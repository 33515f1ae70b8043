#include "sim/backend.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "fsm/serialize.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"

namespace ffsm {

// ---------------------------------------------------- QueuedWireBackend

namespace {

Frame command_frame(FrameType type) {
  Frame frame;
  frame.type = type;
  return frame;
}

}  // namespace

QueuedWireBackend::QueuedWireBackend(ExchangePolicy policy)
    : policy_(std::move(policy)) {}

QueuedWireBackend::TopState& QueuedWireBackend::top_of(
    const std::string& key) {
  const auto it = tops_.find(key);
  FFSM_EXPECTS(it != tops_.end());
  return it->second;
}

const QueuedWireBackend::TopState& QueuedWireBackend::top_of(
    const std::string& key) const {
  const auto it = tops_.find(key);
  FFSM_EXPECTS(it != tops_.end());
  return it->second;
}

std::string QueuedWireBackend::describe_reply(const Frame& reply) {
  if (reply.type == FrameType::kError) return reply.text;
  return std::string("unexpected '") + frame_type_name(reply.type) +
         "' reply";
}

void QueuedWireBackend::add_top(const std::string& key, const Dfsm& top) {
  const std::lock_guard<std::mutex> lock(mutex_);
  FFSM_EXPECTS(!tops_.contains(key));
  TopState state;
  state.machine_text = to_text(top);  // self-contained: alphabet header
  state.top_size = top.size();
  tops_.emplace(key, std::move(state));
  top_order_.push_back(key);
  // Roll our entry back on failure — the cluster rolls its own back too,
  // and a key the cluster denies must not linger here blocking
  // re-registration.
  try {
    register_added_top_locked(key);
  } catch (...) {
    tops_.erase(key);
    top_order_.pop_back();
    throw;
  }
}

void QueuedWireBackend::validate(const std::string& key,
                                 const FusionRequest& request) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const TopState& top = top_of(key);
  for (const Partition& p : request.originals)
    FFSM_EXPECTS(p.size() == top.top_size);
}

std::uint64_t QueuedWireBackend::submit(const std::string& key,
                                        std::string client,
                                        FusionRequest request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TopState& top = top_of(key);
  const std::uint64_t ticket = next_ticket_++;
  top.queue.push_back({ticket, std::move(client), std::move(request)});
  return ticket;
}

std::size_t QueuedWireBackend::pending(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return top_of(key).queue.size();
}

std::size_t QueuedWireBackend::discard_pending(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TopState& top = top_of(key);
  const std::size_t count = top.queue.size();
  top.queue.clear();
  return count;
}

bool QueuedWireBackend::live_locked() const {
  return conversation_ != nullptr && !conversation_->poisoned();
}

bool QueuedWireBackend::connected() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return live_locked();
}

void QueuedWireBackend::drop_connection_locked() noexcept {
  conversation_.reset();
  on_drop_locked();
}

void QueuedWireBackend::open_conversation_locked(net::LineChannel channel,
                                                 std::string peer) {
  // The hello first (the worker answers before any serving state exists),
  // then the handshake in binary frames. A worker starts every connection
  // with clean state, so the full handshake replays: config, then every
  // top in registration order — which is why a respawned worker or any
  // replica serves bit-identically. The replay runs on the raw channel,
  // before the conversation exists, one reply awaited per frame.
  negotiate_wire(channel);
  WireCodec codec;
  const auto expect_ok = [&](Frame frame, const char* context,
                             const std::string& what) {
    channel.send(codec.encode(frame));
    const Frame reply = codec.expect(channel, context);
    if (reply.type != FrameType::kOk)
      throw ContractViolation(std::string(policy_.name) + ": worker " +
                              peer + " rejected " + what + ": " +
                              describe_reply(reply));
  };
  Frame config = command_frame(FrameType::kConfig);
  config.config = policy_.config;
  expect_ok(std::move(config), "config",
            "config (is it an ffsm_shard_worker?)");
  for (const std::string& key : top_order_) {
    Frame top = command_frame(FrameType::kTop);
    top.key = key;
    top.text = tops_.at(key).machine_text;
    expect_ok(std::move(top), "top registration", "top '" + key + "'");
  }
  // Warm handoff: replay the last captured cache snapshots so the fresh
  // worker serves its first drain with its predecessor's hot set resident
  // instead of recomputing every shared descent prefix from scratch.
  for (const std::string& key : top_order_) {
    const TopState& state = tops_.at(key);
    if (state.warm.empty()) continue;
    Frame warm = command_frame(FrameType::kCacheWarm);
    warm.key = key;
    warm.count = state.warm.size();
    warm.entries = state.warm;
    expect_ok(std::move(warm), "warm cache replay",
              "warm cache for '" + key + "'");
  }
  conversation_ =
      std::make_shared<WireConversation>(std::move(channel), policy_.obs);
  peer_ = std::move(peer);
}

void QueuedWireBackend::register_added_top_locked(const std::string& key) {
  if (!live_locked()) return;
  try {
    // A live connection learns the top through its own exchange, which
    // interleaves with in-flight drains.
    WireConversation::Exchange exchange =
        WireConversation::open(conversation_);
    Frame top = command_frame(FrameType::kTop);
    top.key = key;
    top.text = tops_.at(key).machine_text;
    exchange.send(std::move(top));
    const Frame reply = exchange.receive();
    if (reply.type == FrameType::kOk) return;
    if (reply.type != FrameType::kError)
      conversation_->poison("unexpected top reply");
    throw ContractViolation(std::string(policy_.name) + ": worker " + peer_ +
                            " rejected top '" + key +
                            "': " + describe_reply(reply));
  } catch (const net::NetError&) {
    // The connection is dead, not the registration: drop it so the next
    // attempt reconnects lazily instead of re-hitting a corpse.
    drop_connection_locked();
    throw;
  }
}

std::mutex& QueuedWireBackend::serve_gate(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return *serve_gates_.try_emplace(key, std::make_unique<std::mutex>())
              .first->second;
}

std::vector<FusionResponse> QueuedWireBackend::serve_exchange(
    const std::shared_ptr<WireConversation>& conversation,
    const std::string& key, const std::vector<WireRequest>& batch) {
  std::vector<FusionResponse> responses;
  responses.reserve(batch.size());
  const std::size_t window = std::max<std::size_t>(1, policy_.serve_window);
  for (std::size_t start = 0; start < batch.size(); start += window) {
    // The backpressure window: at most `window` request frames are on the
    // wire before we block on their responses. A wedged worker stalls
    // this drain here, with one window buffered, instead of swallowing
    // the whole backlog.
    const std::size_t count = std::min(window, batch.size() - start);
    WireConversation::Exchange exchange =
        WireConversation::open(conversation);
    std::vector<Frame> frames;
    frames.reserve(count + 1);
    Frame serve = command_frame(FrameType::kServe);
    serve.key = key;
    serve.count = count;
    // Trace stitching: the innermost parent-side span (cluster.serve_top)
    // becomes the parent of the worker's gen.* spans for this window.
    serve.parent = obs::current_span_id();
    frames.push_back(std::move(serve));
    for (std::size_t i = 0; i < count; ++i) {
      Frame request = command_frame(FrameType::kRequest);
      request.request = batch[start + i];
      frames.push_back(std::move(request));
    }
    // One send, one buffer: the serve command and its requests are
    // contiguous on the wire even while other exchanges interleave.
    exchange.send(std::move(frames));

    const Frame header = exchange.receive();
    if (header.type == FrameType::kError) {
      // The worker is alive and in sync — the batch itself failed (the
      // analogue of generate_fusion_batch throwing in-process). The whole
      // backlog stays queued for the cluster's retry path; windows
      // already served this round get re-served then, which is harmless
      // (generation is deterministic) and costs only worker counters.
      throw ContractViolation(std::string(policy_.name) +
                              ": worker failed to serve '" + key +
                              "': " + header.text);
    }
    if (header.type != FrameType::kServing || header.count != count) {
      conversation->poison("unexpected serve reply");
      throw ContractViolation(std::string(policy_.name) +
                              ": unexpected serve reply '" +
                              frame_type_name(header.type) + "'");
    }
    for (std::size_t i = 0; i < count; ++i) {
      Frame reply = exchange.receive();
      if (reply.type != FrameType::kResponse) {
        conversation->poison("serve response missing");
        throw ContractViolation(std::string(policy_.name) +
                                ": expected response, got '" +
                                frame_type_name(reply.type) + "'");
      }
      responses.push_back(std::move(reply.response));
    }
    const Frame done = exchange.receive();
    if (done.type != FrameType::kDone) {
      conversation->poison("serve trailer missing");
      throw ContractViolation(std::string(policy_.name) +
                              ": expected 'done', got '" +
                              frame_type_name(done.type) + "'");
    }
  }
  return responses;
}

std::vector<FusionResponse> QueuedWireBackend::drain(const std::string& key) {
  // One drain per top at a time; drains for *different* tops proceed
  // concurrently and interleave their exchanges on the shared connection.
  const std::lock_guard<std::mutex> serialize(serve_gate(key));
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (top_of(key).queue.empty()) return {};
  }
  // In-flight re-submit: a connection that drops mid-exchange is replaced
  // (connect() picks the transport's best worker) and the batch re-sent,
  // serve_retry.max_attempts times in total. Anything else — protocol
  // errors, worker-side batch failures — propagates immediately with the
  // batch still queued. All backoff sleeps run unlocked, and so does the
  // wire I/O itself.
  return net::with_retry(
      policy_.serve_retry, [&]() -> std::vector<FusionResponse> {
        connect();
        std::shared_ptr<WireConversation> conversation;
        std::vector<WireRequest> batch;
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          if (!conversation_)
            throw net::NetError("connection lost before serve");
          conversation = conversation_;
          TopState& top = top_of(key);
          if (top.queue.empty()) return {};  // discarded while connecting
          // Copy, don't move: the queue stays authoritative until every
          // response of the batch has arrived.
          batch = top.queue;
        }
        std::vector<FusionResponse> responses;
        try {
          responses = serve_exchange(conversation, key, batch);
        } catch (const ContractViolation&) {
          // A poisoned conversation (NetError, or a garbled stream) is
          // useless to every exchange: drop it here so the worker behind
          // it is cleaned up now, not at the next connect. A plain batch
          // failure leaves it live.
          const std::lock_guard<std::mutex> lock(mutex_);
          if (conversation_ == conversation && conversation->poisoned())
            drop_connection_locked();
          throw;
        }
        // Only now is the exchange complete — every response arrived,
        // nothing can be lost. Drop exactly the batch's tickets: submits
        // that arrived during the exchange stay queued for the next
        // drain, and a discard_pending that raced it stays a no-op.
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          TopState& top = top_of(key);
          std::unordered_set<std::uint64_t> served;
          served.reserve(batch.size());
          for (const WireRequest& request : batch)
            served.insert(request.ticket);
          std::erase_if(top.queue, [&](const WireRequest& request) {
            return served.contains(request.ticket);
          });
        }
        capture_warm_snapshot(conversation, key);
        return responses;
      });
}

void QueuedWireBackend::capture_warm_snapshot(
    const std::shared_ptr<WireConversation>& conversation,
    const std::string& key) {
  // Best-effort: the drain already completed, so a failure here only
  // costs the snapshot a future handshake would have replayed.
  try {
    WireConversation::Exchange exchange =
        WireConversation::open(conversation);
    Frame query = command_frame(FrameType::kCacheWarm);
    query.key = key;
    query.count = kWarmSnapshotEntries;
    exchange.send(std::move(query));
    Frame reply = exchange.receive();
    if (reply.type != FrameType::kCacheWarm) {
      if (reply.type != FrameType::kError)
        conversation->poison("unexpected cachewarm reply");
      return;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    top_of(key).warm = std::move(reply.entries);
  } catch (const ContractViolation&) {
    // Transport (NetError derives from this) or protocol died after the
    // batch completed; the next drain reconnects and replays whatever
    // snapshot we last captured.
  }
}

ServiceStats QueuedWireBackend::stats(const std::string& key) const {
  std::shared_ptr<WireConversation> conversation;
  ServiceStats cold;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    (void)top_of(key);  // key must be registered
    fill_parent_counters_locked(cold);
    conversation = conversation_;
  }
  // No live worker => nothing has served this incarnation: all-zero
  // counters, like a cold service.
  if (!conversation || conversation->poisoned()) return cold;
  try {
    WireConversation::Exchange exchange =
        WireConversation::open(conversation);
    Frame query = command_frame(FrameType::kStatsQuery);
    query.key = key;
    exchange.send(std::move(query));
    const Frame reply = exchange.receive();
    if (reply.type != FrameType::kStats) {
      if (reply.type != FrameType::kError)
        conversation->poison("unexpected stats reply");
      return cold;
    }
    ServiceStats remote = reply.stats;
    const std::lock_guard<std::mutex> lock(mutex_);
    fill_parent_counters_locked(remote);
    return remote;
  } catch (const ContractViolation&) {
    // Transport or protocol died mid-query (the conversation is already
    // poisoned); the next drain reconnects.
    return cold;
  }
}

obs::ObsSnapshot QueuedWireBackend::obs_snapshot() {
  std::shared_ptr<WireConversation> conversation;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    conversation = conversation_;
  }
  // No live worker => this incarnation has observed nothing; parent-side
  // timing (wire, queueing) lives in the cluster's own Obs already.
  if (!conversation || conversation->poisoned()) return {};
  try {
    WireConversation::Exchange exchange =
        WireConversation::open(conversation);
    // An empty kObs frame is the query form; the reply carries the
    // worker's per-connection snapshot (mirrors the kCacheWarm query).
    exchange.send(command_frame(FrameType::kObs));
    Frame reply = exchange.receive();
    if (reply.type != FrameType::kObs) {
      if (reply.type != FrameType::kError)
        conversation->poison("unexpected obs reply");
      return {};
    }
    return std::move(reply.obs);
  } catch (const ContractViolation&) {
    // Transport or protocol died mid-query; the conversation is already
    // poisoned and the next drain reconnects.
    return {};
  }
}

void QueuedWireBackend::shutdown() {
  std::shared_ptr<WireConversation> conversation;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    conversation = std::move(conversation_);
  }
  if (!conversation) return;
  // Fire-and-close: waiting for "bye" would block shutdown on a vanished
  // peer (serve reads carry no deadline), and the worker ends the
  // connection on EOF just the same.
  conversation->send_goodbye(command_frame(FrameType::kShutdown));
  conversation->poison("shutdown");
}

// ----------------------------------------------------- InProcessBackend

InProcessBackend::InProcessBackend(FusionServiceOptions options)
    : options_(options) {}

FusionService& InProcessBackend::service_of(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = services_.find(key);
  FFSM_EXPECTS(it != services_.end());
  return *it->second;
}

void InProcessBackend::add_top(const std::string& key, const Dfsm& top) {
  // Each service tags its spans with its serving key, so one shared Obs
  // still tells the tops apart.
  FusionServiceOptions per_top = options_;
  per_top.obs_top = key;
  auto service = std::make_unique<FusionService>(top, per_top);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = services_.try_emplace(key, std::move(service));
  FFSM_EXPECTS(inserted);
}

void InProcessBackend::validate(const std::string& key,
                                const FusionRequest& request) const {
  service_of(key).validate(request);
}

std::uint64_t InProcessBackend::submit(const std::string& key,
                                       std::string client,
                                       FusionRequest request) {
  return service_of(key).submit(std::move(client), std::move(request));
}

std::size_t InProcessBackend::pending(const std::string& key) const {
  return service_of(key).pending();
}

std::size_t InProcessBackend::discard_pending(const std::string& key) {
  return service_of(key).discard_pending();
}

std::vector<FusionResponse> InProcessBackend::drain(const std::string& key) {
  return service_of(key).drain();
}

ServiceStats InProcessBackend::stats(const std::string& key) const {
  return service_of(key).stats();
}

const FusionService& InProcessBackend::service(const std::string& key) const {
  return service_of(key);
}

}  // namespace ffsm
