// ffsm_shard_worker: the out-of-process half of the serving backends.
//
// One worker hosts one cluster shard: a FusionService per registered top,
// served over the negotiated wire protocol (sim/messages.hpp). Two
// transports, one protocol:
//
//   (default)        stdin/stdout — the SubprocessBackend socketpair
//                    bridge; one connection, then exit.
//   --listen <port>  a TCP listener (port 0 = ephemeral; the actual port
//                    is announced as `listening <port>` on stdout) — a
//                    ReplicaBackend's remote end. Each accepted connection is
//                    served on its own thread with its own clean state, so
//                    several shards (or several clusters) can share one
//                    worker process; `shutdown` ends the connection, not
//                    the listener.
//
// Every connection opens with one text line from the parent. A hello
// offering `bin` at this protocol version (`hello <version> bin`, see
// sim/messages.hpp "negotiation") is answered with the same line and the
// connection switches to binary frames. A bare `ping` — the
// HealthMonitor's liveness probe — is answered `pong` and the connection
// closes. Any other first line, a hello of another version, or a hello
// without `bin` gets one `error <escaped detail>` line and a close: the
// worker never guesses an encoding.
//
// The parent owns all queueing and retry policy; the worker is a
// stateless-between-drains serving engine whose only cross-exchange state
// is what makes it worth keeping alive — the per-top closure caches and
// stats counters, both scoped to one connection.
//
// Protocol after the hello (as Frame types; see sim/messages.hpp):
//   config                     -> ok            (once, before tops)
//   top                        -> ok | error
//   serve + n request frames   -> serving + n responses + done | error
//   stats query                -> stats | error
//   cachewarm query / import   -> cachewarm | ok | error
//   ping                       -> pong
//   shutdown (or EOF)          -> bye, connection done
//
// Every command carries an exchange id and serve batches are dispatched to
// their own threads, so drains for different tops interleave on one
// connection; replies echo the command's exchange id and each reply batch
// is sent as one write.
//
// Machines arrive as self-contained to_text (alphabet header included), so
// the worker reconstructs bit-exact transition tables and its fusions are
// bit-identical to in-process serving.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fsm/serialize.hpp"
#include "net/exposition_server.hpp"
#include "net/line_channel.hpp"
#include "net/listener.hpp"
#include "obs/exposition.hpp"
#include "obs/obs.hpp"
#include "sim/messages.hpp"
#include "sim/server.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace {

using namespace ffsm;

/// Once a frame's first byte has arrived, the rest of that frame must
/// arrive within this budget. A peer that dies (or wedges) after half a
/// frame must fail its connection thread in bounded time —
/// TCP keepalive covers half-open *silence*, but a peer that is alive and
/// not sending would hold the thread forever without this. Generous:
/// frames are sent whole by every backend, so only a broken peer ever
/// comes close.
constexpr std::chrono::milliseconds kFrameTimeout{60'000};

/// Per-connection serving state. Listener mode gives every accepted
/// connection a fresh Worker, so a reconnecting backend always finds the
/// clean slate its re-register handshake assumes. Serve batches run on
/// their own threads, so the map shape is guarded by `mutex` and each
/// top's batches serialize on its own `serve_mutex` (drains for
/// *different* tops run concurrently).
struct Worker {
  struct Service {
    Service(Dfsm top, const FusionServiceOptions& options)
        : service(std::move(top), options) {}
    FusionService service;
    std::mutex serve_mutex;  // one batch at a time per top
  };

  ShardServiceConfig config;
  bool configured = false;
  std::optional<ThreadPool> pool;
  /// Connection-scoped observability: every hosted service records into
  /// this context (spans tagged with its top key), and a kObs query is
  /// answered with its snapshot. Dies with the connection, like the
  /// caches — the parent is expected to pull snapshots while serving.
  obs::Obs obs;
  std::mutex mutex;  // guards config/configured/pool + the map shape
  std::unordered_map<std::string, std::unique_ptr<Service>> services;

  Service& service_of(const std::string& key) {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = services.find(key);
    if (it == services.end())
      throw ContractViolation("unknown top '" + key + "'");
    return *it->second;
  }
};

void handle_config(Worker& worker, const Frame& command) {
  const std::lock_guard<std::mutex> lock(worker.mutex);
  if (worker.configured) throw ContractViolation("duplicate 'config'");
  worker.config = command.config;
  worker.configured = true;
  if (worker.config.parallel && !worker.pool)
    worker.pool.emplace(worker.config.threads);
}

void handle_top(Worker& worker, const Frame& command) {
  const std::lock_guard<std::mutex> lock(worker.mutex);
  if (!worker.configured) throw ContractViolation("'top' before 'config'");
  if (worker.services.contains(command.key))
    throw ContractViolation("duplicate top '" + command.key + "'");
  // Standalone parse: the alphabet header reproduces the parent's
  // EventIds, making the transition table bit-exact.
  Dfsm top = from_text(command.text);
  FusionServiceOptions options;
  options.parallel = worker.config.parallel;
  options.pool = worker.pool ? &*worker.pool : nullptr;
  options.incremental = worker.config.incremental;
  options.cache_config = worker.config.cache_config;
  options.speculation_lookahead = worker.config.speculation_lookahead;
  options.obs = &worker.obs;
  options.obs_top = command.key;
  worker.services.emplace(
      command.key,
      std::make_unique<Worker::Service>(std::move(top), options));
}

/// Serves one batch and returns the reply frames (serving + responses +
/// done), untagged — the caller stamps the exchange id. Throws with the
/// service queue reset, so the parent's retry cannot serve duplicates.
std::vector<Frame> run_serve(Worker& worker, const Frame& command,
                             std::vector<Frame> requests) {
  Worker::Service& entry = worker.service_of(command.key);
  const std::lock_guard<std::mutex> batch(entry.serve_mutex);
  FusionService& service = entry.service;
  std::vector<std::uint64_t> tickets;
  tickets.reserve(requests.size());
  std::vector<FusionService::Response> served;
  try {
    for (Frame& frame : requests) {
      tickets.push_back(frame.request.ticket);
      service.submit(std::move(frame.request.client),
                     std::move(frame.request.request));
    }
    // The serve frame carries the parent-side span id that caused this
    // batch (0 from a pre-stitching parent); handing it to drain parents
    // this connection's gen.request spans under the originating
    // cluster.serve_top once the snapshots are merged.
    served = service.drain(command.parent);
  } catch (...) {
    // The parent still holds every request of this batch; reset the
    // service queue so a retry cannot serve duplicates.
    (void)service.discard_pending();
    throw;
  }
  if (served.size() != requests.size())
    throw ContractViolation("served count mismatch");

  // Service tickets are assigned in submission order and drain() returns
  // in ticket order, so index i maps back to wire ticket i.
  std::vector<Frame> replies;
  replies.reserve(served.size() + 2);
  Frame serving;
  serving.type = FrameType::kServing;
  serving.count = served.size();
  replies.push_back(std::move(serving));
  for (std::size_t i = 0; i < served.size(); ++i) {
    Frame reply;
    reply.type = FrameType::kResponse;
    reply.response.ticket = tickets[i];
    reply.response.client = std::move(served[i].client);
    reply.response.result = std::move(served[i].result);
    replies.push_back(std::move(reply));
  }
  Frame done;
  done.type = FrameType::kDone;
  replies.push_back(std::move(done));
  return replies;
}

Frame make_reply(FrameType type) {
  Frame reply;
  reply.type = type;
  return reply;
}

Frame make_error(const std::string& detail) {
  Frame reply;
  reply.type = FrameType::kError;
  reply.text = detail;
  return reply;
}

/// The kObs query: answered with this connection's full observability
/// snapshot — counters, histograms, trace spans. Reading a snapshot never
/// resets anything (counters are lifetime totals; the span ring keeps its
/// window), so the parent can poll and merge freely.
Frame handle_obs(Worker& worker) {
  Frame reply;
  reply.type = FrameType::kObs;
  reply.obs = worker.obs.snapshot();
  return reply;
}

/// --trace-out sink: spans absorbed from every finished connection,
/// rewritten to the file as each connection ends, so listener mode (which
/// never exits) still leaves a loadable Chrome trace behind.
struct TraceFile {
  std::string path;
  std::mutex mutex;
  std::uint64_t connections = 0;
  std::vector<obs::TraceSpan> spans;

  void absorb(const obs::Obs& obs) {
    obs::ObsSnapshot snap = obs.snapshot();
    const std::lock_guard<std::mutex> lock(mutex);
    const std::string source = "conn" + std::to_string(++connections);
    spans.reserve(spans.size() + snap.spans.size());
    for (obs::TraceSpan& span : snap.spans) {
      if (span.source.empty()) span.source = source;
      spans.push_back(std::move(span));
    }
    write_locked();
  }

  /// Rewrites the file with whatever has been absorbed so far (possibly
  /// nothing — an empty trace is still loadable). The signal-flush path:
  /// an operator kill must leave a valid file even when no connection has
  /// finished yet.
  void rewrite() {
    const std::lock_guard<std::mutex> lock(mutex);
    write_locked();
  }

 private:
  void write_locked() {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "ffsm_shard_worker: cannot write trace to '%s'\n",
                   path.c_str());
      return;
    }
    obs::write_chrome_trace(out, spans);
  }
};

TraceFile* g_trace_file = nullptr;  // set once in main, before any thread

/// --metrics-port sink: the process-wide view behind the exposition
/// endpoint. Connections register their Obs while live and fold their
/// final counters in when they end, so a scrape sees in-flight activity
/// plus the totals of every finished connection, with
/// `worker.live_connections` as the level gauge. Span data stays out —
/// spans belong to --trace-out, not a scrape body.
struct MetricsHub {
  std::mutex mutex;
  std::vector<const obs::Obs*> live;
  obs::ObsSnapshot finished;

  void add(const obs::Obs* obs) {
    const std::lock_guard<std::mutex> lock(mutex);
    live.push_back(obs);
  }

  void remove(const obs::Obs* obs) {
    obs::ObsSnapshot snap = obs->snapshot();
    snap.spans.clear();  // bounded: counters accumulate, spans would not
    const std::lock_guard<std::mutex> lock(mutex);
    live.erase(std::remove(live.begin(), live.end(), obs), live.end());
    finished.merge(snap);
  }

  [[nodiscard]] obs::ObsSnapshot snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    obs::ObsSnapshot out = finished;
    for (const obs::Obs* obs : live) {
      obs::ObsSnapshot snap = obs->snapshot();
      snap.spans.clear();
      out.merge(snap);
    }
    out.gauges["worker.live_connections"] =
        static_cast<std::int64_t>(live.size());
    return out;
  }

  [[nodiscard]] std::size_t live_count() {
    const std::lock_guard<std::mutex> lock(mutex);
    return live.size();
  }

  /// Signal-flush helper: absorbs every live connection's spans into
  /// `trace`. The registry lock keeps each Obs alive for the duration —
  /// connections unregister before their Worker is destroyed.
  void absorb_live_into(TraceFile& trace) {
    const std::lock_guard<std::mutex> lock(mutex);
    for (const obs::Obs* obs : live) trace.absorb(*obs);
  }
};

MetricsHub* g_metrics_hub = nullptr;  // set once in main, before any thread

/// The kCacheWarm dual command: empty entries = export query (answered
/// with the service's hottest cache entries), non-empty = import into the
/// service's cache (answered with ok). Imports bypass admission but
/// respect capacity, so a warmed worker still serves bit-identically.
Frame handle_cachewarm(Worker& worker, const Frame& command) {
  Worker::Service& entry = worker.service_of(command.key);
  if (command.entries.empty()) {
    Frame reply;
    reply.type = FrameType::kCacheWarm;
    reply.key = command.key;
    reply.count = command.count;
    reply.entries = entry.service.cache().export_hot(
        static_cast<std::size_t>(command.count));
    return reply;
  }
  entry.service.warm_cache(command.entries);
  return make_reply(FrameType::kOk);
}

/// The serving loop: commands carry exchange ids, serve batches run on
/// their own threads, and every reply batch goes out as one write under a
/// send lock — drains for different tops interleave on this connection.
/// Any framing error tears the connection (length-prefixed streams cannot
/// resync); semantic errors are answered with an `error` frame on the
/// command's exchange.
bool run_loop(Worker& worker, net::LineChannel& channel) {
  WireCodec codec;
  std::mutex send_mutex;
  std::vector<std::thread> serving;
  const auto join_all = [&serving]() noexcept {
    for (std::thread& thread : serving) thread.join();
    serving.clear();
  };
  // Encoding is const/stateless, so serve threads encode concurrently;
  // only the write itself serializes.
  const auto send_frames = [&](const std::vector<Frame>& frames) {
    std::string buffer;
    for (const Frame& frame : frames) codec.encode(frame, buffer);
    const std::lock_guard<std::mutex> lock(send_mutex);
    channel.send(buffer);
  };
  const auto send_one = [&](Frame frame, std::uint64_t exchange) {
    frame.exchange = exchange;
    std::string buffer;
    codec.encode(frame, buffer);
    const std::lock_guard<std::mutex> lock(send_mutex);
    channel.send(buffer);
  };

  bool clean = true;
  try {
    for (;;) {
      std::optional<Frame> command = codec.read_command(channel,
                                                        kFrameTimeout);
      if (!command) break;  // clean EOF: the parent is done with us
      if (command->type == FrameType::kServe) {
        // The serve command and its requests are one send buffer on the
        // parent side, so they are contiguous on the wire even while
        // other exchanges interleave between batches.
        std::vector<Frame> requests;
        requests.reserve(command->count);
        for (std::uint64_t i = 0; i < command->count; ++i) {
          std::optional<Frame> frame = codec.read_command(channel,
                                                          kFrameTimeout);
          if (!frame)
            throw net::NetError("peer closed the stream mid-batch");
          if (frame->type != FrameType::kRequest ||
              frame->exchange != command->exchange)
            throw ContractViolation("serve batch framing violated");
          requests.push_back(std::move(*frame));
        }
        // Bound the thread pile-up on a long-lived connection; joining
        // here only ever waits on batches already in flight.
        if (serving.size() >= 64) join_all();
        serving.emplace_back([&worker, &send_frames,
                              command = std::move(*command),
                              requests = std::move(requests)]() mutable {
          std::vector<Frame> replies;
          try {
            replies = run_serve(worker, command, std::move(requests));
            for (Frame& reply : replies) reply.exchange = command.exchange;
          } catch (const std::exception& error) {
            replies.clear();
            Frame reply = make_error(error.what());
            reply.exchange = command.exchange;
            replies.push_back(std::move(reply));
          }
          try {
            send_frames(replies);
          } catch (...) {
            // The connection is dying; the reader loop sees it too.
          }
        });
        continue;
      }
      try {
        switch (command->type) {
          case FrameType::kConfig:
            handle_config(worker, *command);
            send_one(make_reply(FrameType::kOk), command->exchange);
            break;
          case FrameType::kTop:
            handle_top(worker, *command);
            send_one(make_reply(FrameType::kOk), command->exchange);
            break;
          case FrameType::kStatsQuery: {
            Frame reply;
            reply.type = FrameType::kStats;
            reply.stats = worker.service_of(command->key).service.stats();
            send_one(std::move(reply), command->exchange);
            break;
          }
          case FrameType::kCacheWarm:
            send_one(handle_cachewarm(worker, *command), command->exchange);
            break;
          case FrameType::kObs:
            send_one(handle_obs(worker), command->exchange);
            break;
          case FrameType::kPing:
            send_one(make_reply(FrameType::kPong), command->exchange);
            break;
          case FrameType::kShutdown:
            join_all();  // let in-flight batches reply before the bye
            send_one(make_reply(FrameType::kBye), command->exchange);
            return true;
          default:
            throw ContractViolation(
                std::string("unexpected '") + frame_type_name(command->type) +
                "' command");
        }
      } catch (const net::NetError&) {
        throw;
      } catch (const std::exception& error) {
        send_one(make_error(error.what()), command->exchange);
      }
    }
  } catch (const std::exception&) {
    clean = false;
    // Unblock serve threads wedged in send before joining them.
    channel.shutdown_io();
  }
  join_all();
  return clean;
}

/// Handles the first line of one fresh connection (see the file comment),
/// then serves its exchanges until `shutdown`, clean EOF, or a torn
/// transport. Returns false only for the torn case. Never throws —
/// listener threads are detached and an escaped exception would terminate
/// the whole worker.
bool serve_connection_impl(Worker& worker, net::LineChannel& channel) {
  try {
    std::string first;
    if (!channel.read_line(first)) return true;  // EOF before any command
    if (first == "ping") {
      channel.send("pong\n");
      return true;
    }
    std::string refusal;
    try {
      bool offers_binary = false;
      if (!parse_client_hello(first, offers_binary))
        refusal = "expected a hello or a ping as the first line";
      else if (!offers_binary)
        refusal = "no common wire encoding: the worker speaks only 'bin'";
    } catch (const ContractViolation& error) {
      refusal = error.what();  // a hello, but one we cannot speak
    }
    if (!refusal.empty()) {
      channel.send("error " + escape_token(refusal) + "\n");
      return true;
    }
    channel.send(hello_line());
    return run_loop(worker, channel);
  } catch (const std::exception&) {
    return false;  // torn connection; the peer's backend re-queues
  }
}

bool serve_connection(net::LineChannel& channel) {
  Worker worker;
  if (g_metrics_hub != nullptr) g_metrics_hub->add(&worker.obs);
  const bool clean = serve_connection_impl(worker, channel);
  // Flush this connection's spans whether it ended cleanly or tore —
  // a trace of the run that died is the one an operator wants most.
  if (g_trace_file != nullptr) g_trace_file->absorb(worker.obs);
  if (g_metrics_hub != nullptr) g_metrics_hub->remove(&worker.obs);
  return clean;
}

// ------------------------------------------------------- signal handling
//
// SIGTERM/SIGINT must leave loadable telemetry behind: an operator killing
// a wedged worker wants the trace of the run that wedged, not an empty
// file. The handler itself only writes one byte to a self-pipe
// (async-signal-safe); a watcher thread does the actual flushing —
// absorbing live connections' spans into --trace-out and printing the
// final exposition to stderr — then exits the process.

int g_signal_pipe[2] = {-1, -1};

void on_terminate_signal(int) {
  const char byte = 1;
  // Failure (full pipe) is fine: one pending byte already means "flush".
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

void watch_terminate_signals() {
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  if (g_trace_file != nullptr) {
    if (g_metrics_hub != nullptr) g_metrics_hub->absorb_live_into(*g_trace_file);
    g_trace_file->rewrite();  // valid even when nothing was absorbed
  }
  if (g_metrics_hub != nullptr) {
    const std::string body = obs::render_exposition(g_metrics_hub->snapshot());
    std::fprintf(stderr, "ffsm_shard_worker: final metrics on shutdown\n%s",
                 body.c_str());
  }
  // _exit, not exit: connection threads are mid-serve and their statics /
  // destructors must not run under them.
  ::_exit(0);
}

int listen_forever(std::uint16_t port) {
  try {
    net::Listener listener(port);
    // The banner is the contract with ListenerWorkerProcess and with
    // scripts: the actual port (ephemeral included), then nothing else on
    // stdout.
    std::printf("listening %u\n", static_cast<unsigned>(listener.port()));
    std::fflush(stdout);
    for (;;) {
      net::Socket connection = listener.accept();
      // One thread per connection, detached: connections are independent
      // (own Worker, own pool) and die with their peer or the process.
      std::thread(
          [](net::Socket socket) {
            net::LineChannel channel(std::move(socket));
            (void)serve_connection(channel);
          },
          std::move(connection))
          .detach();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ffsm_shard_worker: %s\n", error.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // A dying peer must surface as a failed write, not a SIGPIPE kill —
  // process-wide, covering the stdio bridge (a pipe/socketpair where
  // MSG_NOSIGNAL may not apply) as well as every TCP connection.
  std::signal(SIGPIPE, SIG_IGN);
  // SIGUSR1 is reserved as a no-op so tests (and operators) can
  // signal-storm a worker to exercise the EINTR retry paths; the default
  // disposition would kill it. sigaction without SA_RESTART on purpose:
  // SIG_IGN — or the BSD restart semantics of std::signal — would keep
  // syscalls from ever returning EINTR, making those paths untestable.
  struct sigaction usr1 = {};
  usr1.sa_handler = [](int) {};
  ::sigemptyset(&usr1.sa_mask);
  usr1.sa_flags = 0;
  ::sigaction(SIGUSR1, &usr1, nullptr);

  bool listen_mode = false;  // default: stdio bridge mode
  std::uint16_t listen_port = 0;
  bool metrics_mode = false;
  std::uint16_t metrics_port = 0;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* port_text = nullptr;
    const char* metrics_text = nullptr;
    if (arg == "--listen" && i + 1 < argc) {
      port_text = argv[++i];
    } else if (arg.rfind("--listen=", 0) == 0) {
      port_text = arg.c_str() + std::strlen("--listen=");
    } else if (arg == "--metrics-port" && i + 1 < argc) {
      metrics_text = argv[++i];
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      metrics_text = arg.c_str() + std::strlen("--metrics-port=");
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--listen <port>] [--metrics-port <port>] "
                   "[--trace-out <file.json>]\n",
                   argv[0]);
      return 2;
    }
    if (port_text != nullptr) {
      // Strict parse (net::parse_port): atol would read "70o1" as 70 and
      // "abc" as 0 — silently binding the wrong port is the one failure an
      // operator cannot debug from the banner. Port 0 = ephemeral.
      if (!ffsm::net::parse_port(port_text, listen_port)) {
        std::fprintf(stderr, "ffsm_shard_worker: bad port '%s'\n", port_text);
        return 2;
      }
      listen_mode = true;
    }
    if (metrics_text != nullptr) {
      if (!ffsm::net::parse_port(metrics_text, metrics_port)) {
        std::fprintf(stderr, "ffsm_shard_worker: bad metrics port '%s'\n",
                     metrics_text);
        return 2;
      }
      metrics_mode = true;
    }
  }

  TraceFile trace_file;
  if (!trace_out.empty()) {
    trace_file.path = std::move(trace_out);
    g_trace_file = &trace_file;
  }

  // The hub always exists (it is the live-connection registry the signal
  // flush walks); the exposition endpoint over it is opt-in.
  MetricsHub metrics_hub;
  g_metrics_hub = &metrics_hub;
  std::optional<ffsm::net::ExpositionServer> metrics_server;
  if (metrics_mode) {
    try {
      metrics_server.emplace(
          metrics_port, [&metrics_hub](std::string_view path) -> std::string {
            if (path == "/metrics")
              return ffsm::obs::render_exposition(metrics_hub.snapshot());
            if (path == "/health")
              return "ok ffsm_shard_worker " +
                     std::to_string(metrics_hub.live_count()) +
                     " live connection(s)\n";
            return {};  // 404
          });
    } catch (const std::exception& error) {
      std::fprintf(stderr, "ffsm_shard_worker: metrics port: %s\n",
                   error.what());
      return 2;
    }
    // stderr, not stdout: in stdio mode stdout is the wire, and in listen
    // mode the `listening <port>` banner contract allows nothing else.
    std::fprintf(stderr, "ffsm_shard_worker: metrics on port %u\n",
                 static_cast<unsigned>(metrics_server->port()));
  }

  // SIGTERM/SIGINT flush --trace-out and the final metrics before exit
  // (see watch_terminate_signals). SA_RESTART so installing the handler
  // does not perturb the wire loops' syscalls; the watcher thread, not an
  // interrupted read, carries the shutdown.
  if (::pipe(g_signal_pipe) == 0) {
    std::thread(watch_terminate_signals).detach();
    struct sigaction term = {};
    term.sa_handler = on_terminate_signal;
    ::sigemptyset(&term.sa_mask);
    term.sa_flags = SA_RESTART;
    ::sigaction(SIGTERM, &term, nullptr);
    ::sigaction(SIGINT, &term, nullptr);
  } else {
    std::fprintf(stderr,
                 "ffsm_shard_worker: no signal pipe; default SIGTERM\n");
  }

  if (!listen_mode) {
    ffsm::net::LineChannel channel(STDIN_FILENO, STDOUT_FILENO);
    return serve_connection(channel) ? 0 : 1;
  }
  return listen_forever(listen_port);
}
