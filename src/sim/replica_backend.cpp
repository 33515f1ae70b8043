#include "sim/replica_backend.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "obs/obs.hpp"
#include "util/contracts.hpp"

namespace ffsm {
namespace {

Frame command_frame(FrameType type) {
  Frame frame;
  frame.type = type;
  return frame;
}

}  // namespace

ReplicaBackend::ReplicaBackend(ReplicaBackendOptions options)
    : options_(std::move(options)) {
  FFSM_EXPECTS(!options_.endpoints.empty());
  for (const net::Endpoint& endpoint : options_.endpoints)
    FFSM_EXPECTS(endpoint.port != 0);
  if (options_.monitor)
    for (const net::Endpoint& endpoint : options_.endpoints)
      options_.monitor->watch(endpoint);
}

ReplicaBackend::~ReplicaBackend() { shutdown(); }

void ReplicaBackend::drop_connection_locked() noexcept {
  // Exchanges still on this conversation keep it alive through their
  // shared_ptr; they fail with NetError once it is poisoned, not here.
  conversation_.reset();
}

std::vector<std::size_t> ReplicaBackend::scan_order() const {
  std::vector<std::size_t> order(options_.endpoints.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!options_.monitor) return order;
  // Verdicts reorder, never exclude: kUp first, then kUnknown, then kDown,
  // priority (seed-list) order within each — stable_sort keeps it. Ranks
  // are snapshot once before sorting: the prober publishes concurrently,
  // and a comparator whose answers shift mid-sort breaks stable_sort's
  // strict-weak-ordering precondition.
  std::vector<int> rank(order.size());
  for (std::size_t replica = 0; replica < order.size(); ++replica) {
    switch (options_.monitor->health(options_.endpoints[replica]).state) {
      case net::ProbeState::kUp:
        rank[replica] = 0;
        break;
      case net::ProbeState::kUnknown:
        rank[replica] = 1;
        break;
      case net::ProbeState::kDown:
        rank[replica] = 2;
        break;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rank[a] < rank[b];
                   });
  return order;
}

void ReplicaBackend::connect_endpoint_locked(std::size_t replica) {
  const net::Endpoint& endpoint = options_.endpoints[replica];
  net::Socket socket = net::Socket::connect(endpoint.host, endpoint.port,
                                            options_.connect_timeout);
  // Serve reads carry no deadline (generation legitimately takes long),
  // so keepalive is what bounds a half-open connection: a vanished
  // replica host turns into a read error after idle + interval * probes
  // seconds, and the failover path takes over from there.
  if (options_.keepalive_idle_s > 0)
    socket.enable_keepalive(options_.keepalive_idle_s,
                            options_.keepalive_interval_s,
                            options_.keepalive_probes);
  net::LineChannel channel(std::move(socket));
  // The hello first (the worker answers before any serving state
  // exists), then the handshake in binary frames. A listen-mode
  // worker starts every connection with clean state, so the full
  // handshake replays: config, then every top in registration order —
  // which is why any replica serves bit-identically. NetError here routes
  // to the next replica; a worker that *answers* but wrongly throws
  // ContractViolation and is not routed around.
  negotiate_wire(channel);
  WireCodec codec;
  Frame config = command_frame(FrameType::kConfig);
  config.config = options_.config;
  channel.send(codec.encode(config));
  const Frame config_reply = codec.expect(channel, "config");
  if (config_reply.type != FrameType::kOk)
    throw ContractViolation("ReplicaBackend: worker rejected config (is " +
                            net::to_string(endpoint) +
                            " an ffsm_shard_worker --listen?): " +
                            describe_reply(config_reply));
  for (const std::string& key : top_order_) {
    Frame top = command_frame(FrameType::kTop);
    top.key = key;
    top.text = tops_.at(key).machine_text;
    channel.send(codec.encode(top));
    const Frame top_reply = codec.expect(channel, "top registration");
    if (top_reply.type != FrameType::kOk)
      throw ContractViolation("ReplicaBackend: worker at " +
                              net::to_string(endpoint) + " rejected top '" +
                              key + "': " + describe_reply(top_reply));
  }
  // Warm handoff: replay the last captured cache snapshots so a failover
  // (or fail-back) target serves its first drain with the previous
  // replica's hot set resident — same exchange discipline as the top
  // replay above, still pre-conversation on the raw channel.
  for (const std::string& key : top_order_) {
    const TopState& top = tops_.at(key);
    if (top.warm.empty()) continue;
    Frame warm = command_frame(FrameType::kCacheWarm);
    warm.key = key;
    warm.count = top.warm.size();
    warm.entries = top.warm;
    channel.send(codec.encode(warm));
    const Frame warm_reply = codec.expect(channel, "warm cache replay");
    if (warm_reply.type != FrameType::kOk)
      throw ContractViolation("ReplicaBackend: worker at " +
                              net::to_string(endpoint) +
                              " rejected warm cache for '" + key +
                              "': " + describe_reply(warm_reply));
  }
  conversation_ =
      std::make_shared<WireConversation>(std::move(channel), options_.obs);
  ++connects_;
  // A reconnect that lands on a different replica is a failover (or a
  // fail-back — both move the serving endpoint); the first connection
  // ever is neither.
  if (connects_ > 1 && replica != current_) {
    ++failovers_;
    if (options_.obs != nullptr)
      options_.obs->instant("replica.failover",
                            {.shard = net::to_string(endpoint)});
  }
  current_ = replica;
}

void ReplicaBackend::connect_any() {
  std::string last_error = "empty replica set";
  for (const std::size_t replica : scan_order()) {
    try {
      // The lock is taken per endpoint, not across the scan: one lock
      // hold is bounded by a single connect_timeout (the PR-4 TcpBackend
      // bound), never by seed-list-size timeouts — submit()/pending()/
      // stats() squeeze in between attempts against a dead replica set.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (conversation_ && !conversation_->poisoned())
        return;  // raced a concurrent connector
      conversation_.reset();
      connect_endpoint_locked(replica);
      return;
    } catch (const net::NetError& error) {
      last_error = error.what();
      if (last_error.rfind("net: ", 0) == 0)
        last_error.erase(0, 5);  // the rethrow below re-adds the prefix
    }
  }
  throw net::NetError("no replica of " +
                      std::to_string(options_.endpoints.size()) +
                      " reachable; last: " + last_error);
}

void ReplicaBackend::maybe_fail_back_locked() {
  if (!options_.monitor || !conversation_ || current_ == 0) return;
  // Moving the connection is only lossless while nothing is in flight on
  // the wire; with exchanges active, fail-back waits for a later drain.
  if (conversation_->active_exchanges() != 0) return;
  for (std::size_t replica = 0; replica < current_; ++replica) {
    if (options_.monitor->health(options_.endpoints[replica]).state !=
        net::ProbeState::kUp)
      continue;
    // An earlier-priority replica probes healthy again: move back to it.
    drop_connection_locked();
    return;
  }
}

void ReplicaBackend::ensure_connected() {
  // with_retry sleeps between rounds with no lock held, and connect_any
  // locks per endpoint: a replica set that is restarting must not block
  // this shard's submit()/pending()/stats() for seconds of backoff or
  // for a whole-seed-list scan of connect timeouts.
  net::with_retry(options_.connect_retry, [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (conversation_ && conversation_->poisoned())
        drop_connection_locked();
      maybe_fail_back_locked();
      if (conversation_) return;
    }
    connect_any();
  });
}

void ReplicaBackend::register_added_top_locked(const std::string& key) {
  if (!conversation_ || conversation_->poisoned()) return;
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
    throw ContractViolation("ReplicaBackend: worker at " +
                            net::to_string(options_.endpoints[current_]) +
                            " rejected top '" + key +
                            "': " + describe_reply(reply));
  } catch (const net::NetError&) {
    // The connection is dead, not the registration: drop it so the next
    // attempt reconnects lazily instead of re-hitting a corpse.
    drop_connection_locked();
    throw;
  }
}

std::mutex& ReplicaBackend::serve_gate(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return *serve_gates_.try_emplace(key, std::make_unique<std::mutex>())
              .first->second;
}

std::vector<FusionResponse> ReplicaBackend::serve_exchange(
    const std::shared_ptr<WireConversation>& conversation,
    const std::string& key, const std::vector<WireRequest>& batch) {
  std::vector<FusionResponse> responses;
  responses.reserve(batch.size());
  const std::size_t window = std::max<std::size_t>(1, options_.serve_window);
  for (std::size_t start = 0; start < batch.size(); start += window) {
    // The backpressure window: at most `window` request frames are on the
    // wire before we block on their responses. A wedged replica stalls
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
      // The replica is alive and in sync — the batch itself failed. The
      // whole backlog stays queued for the cluster's retry path; windows
      // already served this round get re-served then, which is harmless
      // (generation is deterministic) and costs only worker counters.
      throw ContractViolation("ReplicaBackend: worker failed to serve '" +
                              key + "': " + header.text);
    }
    if (header.type != FrameType::kServing || header.count != count) {
      conversation->poison("unexpected serve reply");
      throw ContractViolation("ReplicaBackend: unexpected serve reply '" +
                              std::string(frame_type_name(header.type)) +
                              "'");
    }
    for (std::size_t i = 0; i < count; ++i) {
      Frame reply = exchange.receive();
      if (reply.type != FrameType::kResponse) {
        conversation->poison("serve response missing");
        throw ContractViolation("ReplicaBackend: expected response, got '" +
                                std::string(frame_type_name(reply.type)) +
                                "'");
      }
      responses.push_back(std::move(reply.response));
    }
    const Frame done = exchange.receive();
    if (done.type != FrameType::kDone) {
      conversation->poison("serve trailer missing");
      throw ContractViolation("ReplicaBackend: expected 'done', got '" +
                              std::string(frame_type_name(done.type)) + "'");
    }
  }
  return responses;
}

std::vector<FusionResponse> ReplicaBackend::drain(const std::string& key) {
  // One drain per top at a time; drains for *different* tops proceed
  // concurrently and interleave their exchanges on the shared connection.
  const std::lock_guard<std::mutex> serialize(serve_gate(key));
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (top_of(key).queue.empty()) return {};
  }
  // In-flight re-submit across the replica set: a connection that drops
  // mid-exchange is replaced (each attempt reconnects to the best replica
  // reachable, under connect_retry) and the batch re-sent,
  // options_.serve_retry.max_attempts times in total. Anything else —
  // protocol errors, worker-side batch failures — propagates immediately
  // with the batch still queued. All backoff sleeps run unlocked, and so
  // does the wire I/O itself.
  return net::with_retry(
      options_.serve_retry, [&]() -> std::vector<FusionResponse> {
        ensure_connected();
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
        } catch (const net::NetError&) {
          const std::lock_guard<std::mutex> lock(mutex_);
          if (conversation_ == conversation) drop_connection_locked();
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

void ReplicaBackend::capture_warm_snapshot(
    const std::shared_ptr<WireConversation>& conversation,
    const std::string& key) {
  // Best-effort: the drain already completed, so a failure here only
  // costs the snapshot a future failover would have replayed.
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
  } catch (const net::NetError&) {
    // Connection died after the batch completed; the next drain
    // reconnects (and replays whatever snapshot we last captured).
  } catch (const ContractViolation&) {
  }
}

void ReplicaBackend::fill_parent_counters_locked(ServiceStats& stats) const {
  // Per-connection worker counters reset with every replacement (real
  // process semantics); what this backend survived lives parent-side.
  stats.restarts = connects_ > 0 ? connects_ - 1 : 0;
  stats.failovers = failovers_;
  stats.health_probes_failed = 0;
  if (options_.monitor)
    for (const net::Endpoint& endpoint : options_.endpoints)
      stats.health_probes_failed +=
          options_.monitor->health(endpoint).probes_failed;
}

ServiceStats ReplicaBackend::stats(const std::string& key) const {
  std::shared_ptr<WireConversation> conversation;
  ServiceStats cold;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    (void)top_of(key);  // key must be registered
    fill_parent_counters_locked(cold);
    conversation = conversation_;
  }
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

obs::ObsSnapshot ReplicaBackend::obs_snapshot() {
  std::shared_ptr<WireConversation> conversation;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    conversation = conversation_;
  }
  // Disconnected => this incarnation has observed nothing; parent-side
  // timing (wire, queueing) lives in the cluster's own Obs already.
  if (!conversation || conversation->poisoned()) return {};
  try {
    WireConversation::Exchange exchange =
        WireConversation::open(conversation);
    // An empty kObs frame is the query form; the reply carries the
    // replica's per-connection snapshot (mirrors the kCacheWarm query).
    exchange.send(command_frame(FrameType::kObs));
    Frame reply = exchange.receive();
    if (reply.type != FrameType::kObs) {
      if (reply.type != FrameType::kError)
        conversation->poison("unexpected obs reply");
      return {};
    }
    return std::move(reply.obs);
  } catch (const ContractViolation&) {
    // Transport (NetError derives from this) or protocol died mid-query;
    // the conversation is already poisoned and the next drain reconnects.
    return {};
  }
}

void ReplicaBackend::shutdown() {
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

std::uint64_t ReplicaBackend::connects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return connects_;
}

bool ReplicaBackend::connected() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return conversation_ != nullptr && !conversation_->poisoned();
}

std::uint64_t ReplicaBackend::failovers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failovers_;
}

std::size_t ReplicaBackend::current_replica() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

}  // namespace ffsm
