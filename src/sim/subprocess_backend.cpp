#include "sim/subprocess_backend.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
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

std::string discover_worker_path(const std::string& explicit_path) {
  if (!explicit_path.empty()) return explicit_path;
  if (const char* env = std::getenv("FFSM_SHARD_WORKER");
      env != nullptr && *env != '\0')
    return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    std::string path(buf);
    if (const auto slash = path.rfind('/'); slash != std::string::npos) {
      path.erase(slash + 1);
      return path + "ffsm_shard_worker";
    }
  }
  return "ffsm_shard_worker";  // last resort: $PATH lookup via execlp
}

SubprocessBackend::SubprocessBackend(SubprocessBackendOptions options)
    : options_(std::move(options)) {}

SubprocessBackend::~SubprocessBackend() { shutdown(); }

void SubprocessBackend::die_locked(const std::string& what) {
  kill_worker_locked();
  throw ContractViolation("SubprocessBackend: " + what);
}

void SubprocessBackend::kill_worker_locked() noexcept {
  channel_.close();
  if (worker_pid_ > 0) {
    ::kill(worker_pid_, SIGKILL);
    ::waitpid(worker_pid_, nullptr, 0);
    worker_pid_ = 0;
  }
}

void SubprocessBackend::send_locked(std::string_view data) {
  // net::LineChannel::send is the full-buffer SIGPIPE-safe loop; a dead
  // worker surfaces as NetError, which this backend turns into its usual
  // reap-and-throw.
  try {
    channel_.send(data);
  } catch (const net::NetError&) {
    die_locked("write to worker failed (worker died?)");
  }
}

Frame SubprocessBackend::expect_frame_locked(const char* context) {
  try {
    return codec_.expect(channel_, context);
  } catch (const net::NetError&) {
    die_locked(std::string("worker closed the channel during ") + context);
  }
  // A malformed frame (plain ContractViolation) propagates to the caller,
  // which reaps — distinct from EOF so the error message says what broke.
}

void SubprocessBackend::register_top_locked(const std::string& key,
                                            const TopState& top) {
  Frame frame = command_frame(FrameType::kTop);
  frame.key = key;
  frame.text = top.machine_text;
  send_locked(codec_.encode(frame));
  const Frame reply = expect_frame_locked("top registration");
  if (reply.type != FrameType::kOk)
    die_locked("worker rejected top '" + key +
               "': " + describe_reply(reply));
}

void SubprocessBackend::replay_warm_locked(const std::string& key,
                                           const TopState& top) {
  if (top.warm.empty()) return;
  Frame frame = command_frame(FrameType::kCacheWarm);
  frame.key = key;
  frame.count = top.warm.size();
  frame.entries = top.warm;
  send_locked(codec_.encode(frame));
  const Frame reply = expect_frame_locked("warm cache replay");
  if (reply.type != FrameType::kOk)
    die_locked("worker rejected warm cache for '" + key +
               "': " + describe_reply(reply));
}

void SubprocessBackend::ensure_worker_locked() {
  if (channel_.valid() && worker_pid_ > 0) {
    const pid_t status = ::waitpid(worker_pid_, nullptr, WNOHANG);
    if (status == 0) return;  // worker is running
    // Exited (reaped just now) or already gone: forget the pid BEFORE the
    // cleanup below — SIGKILLing a reaped pid could hit whatever process
    // the kernel recycled it to.
    worker_pid_ = 0;
  }
  kill_worker_locked();  // close a stale channel, if any

  const std::string path = discover_worker_path(options_.worker_path);
  int sv[2];
  // SOCK_CLOEXEC: shards spawn workers concurrently during a parallel
  // drain, and a sibling fork between our socketpair() and exec would
  // otherwise inherit a copy of sv[1] — keeping this channel open after
  // our worker dies and so masking its EOF forever. dup2 below clears
  // CLOEXEC on the child's own stdin/stdout copies.
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw ContractViolation("SubprocessBackend: socketpair failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw ContractViolation("SubprocessBackend: fork failed");
  }
  if (pid == 0) {
    // Child: bridge the channel to stdin/stdout and become the worker.
    ::dup2(sv[1], STDIN_FILENO);
    ::dup2(sv[1], STDOUT_FILENO);
    ::close(sv[0]);
    ::close(sv[1]);
    ::execlp(path.c_str(), "ffsm_shard_worker", static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed; the parent sees EOF on its first read
  }
  ::close(sv[1]);
  channel_ = net::LineChannel(net::Socket(sv[0]));
  worker_pid_ = static_cast<int>(pid);
  ++spawns_;
  // The first spawn is cold start, not a fault; every further one replaced
  // a dead worker.
  if (options_.obs != nullptr && spawns_ > 1)
    options_.obs->instant("worker.respawn");

  // Open with the hello, then handshake: configure and re-register
  // every top in registration order (so a respawned worker rebuilds the
  // exact same services).
  try {
    negotiate_wire(channel_);
  } catch (const net::NetError&) {
    die_locked("worker closed the channel during negotiation (is '" + path +
               "' an ffsm_shard_worker?)");
  } catch (const ContractViolation&) {
    // The worker answered, but refused the hello (e.g. a binary of another
    // protocol version): reap it and let the mismatch propagate.
    kill_worker_locked();
    throw;
  }
  Frame config = command_frame(FrameType::kConfig);
  config.config = options_.config;
  send_locked(codec_.encode(config));
  const Frame reply = expect_frame_locked("config");
  if (reply.type != FrameType::kOk)
    die_locked("worker rejected config (is '" + path +
               "' an ffsm_shard_worker?): " + describe_reply(reply));
  for (const std::string& key : top_order_)
    register_top_locked(key, tops_.at(key));
  // Warm handoff: replay the last pre-death cache snapshots so the fresh
  // worker serves its first drain with the predecessor's hot set resident
  // instead of recomputing every shared descent prefix from scratch.
  for (const std::string& key : top_order_)
    replay_warm_locked(key, tops_.at(key));
}

void SubprocessBackend::register_added_top_locked(const std::string& key) {
  if (channel_.valid()) register_top_locked(key, tops_.at(key));
}

std::vector<FusionResponse> SubprocessBackend::drain(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TopState& top = top_of(key);
  if (top.queue.empty()) return {};
  ensure_worker_locked();

  // The whole batch as one buffer, one write: serve command + requests.
  std::string msg;
  Frame serve = command_frame(FrameType::kServe);
  serve.key = key;
  serve.count = top.queue.size();
  // Trace stitching: ship the innermost parent-side span id (the
  // cluster.serve_top wrapping this drain) so the worker's gen.* spans
  // come back parent-linked under it.
  serve.parent = obs::current_span_id();
  codec_.encode(serve, msg);
  for (const WireRequest& request : top.queue) {
    Frame frame = command_frame(FrameType::kRequest);
    frame.request = request;
    codec_.encode(frame, msg);
  }
  send_locked(msg);

  const Frame header = expect_frame_locked("serve");
  if (header.type == FrameType::kError) {
    // The worker is alive and in sync — the batch itself failed (the
    // analogue of generate_fusion_batch throwing in-process). Requests
    // stay queued for the cluster's retry path.
    throw ContractViolation("SubprocessBackend: worker failed to serve '" +
                            key + "': " + header.text);
  }
  if (header.type != FrameType::kServing || header.count != top.queue.size())
    die_locked("unexpected serve reply '" +
               std::string(frame_type_name(header.type)) + "'");

  std::vector<FusionResponse> responses;
  responses.reserve(header.count);
  try {
    for (std::uint64_t i = 0; i < header.count; ++i) {
      Frame reply = expect_frame_locked("response");
      if (reply.type != FrameType::kResponse)
        throw ContractViolation("expected response frame, got '" +
                                std::string(frame_type_name(reply.type)) +
                                "'");
      responses.push_back(std::move(reply.response));
    }
    const Frame done = expect_frame_locked("serve trailer");
    if (done.type != FrameType::kDone)
      die_locked("expected 'done', got '" +
                 std::string(frame_type_name(done.type)) + "'");
  } catch (const ContractViolation&) {
    // Either the channel died (already reaped by die_locked) or a frame
    // failed to decode — in both cases the stream is unusable; make the
    // restart explicit and keep the batch queued.
    kill_worker_locked();
    throw;
  }
  top.queue.clear();
  // Best-effort warm snapshot for the next respawn handshake, captured
  // while the worker's cache reflects the batch just served. The
  // responses are already in hand, so a failure here must not fail the
  // drain — it only costs the snapshot (die_locked already reaped a dead
  // worker; the next drain respawns).
  try {
    Frame query = command_frame(FrameType::kCacheWarm);
    query.key = key;
    query.count = kWarmSnapshotEntries;
    send_locked(codec_.encode(query));
    Frame snapshot = expect_frame_locked("warm cache snapshot");
    if (snapshot.type == FrameType::kCacheWarm)
      top.warm = std::move(snapshot.entries);
    else if (snapshot.type != FrameType::kError)
      kill_worker_locked();  // stream out of sync; respawn next drain
  } catch (const ContractViolation&) {
  }
  return responses;
}

ServiceStats SubprocessBackend::stats(const std::string& key) const {
  auto* self = const_cast<SubprocessBackend*>(this);
  const std::lock_guard<std::mutex> lock(mutex_);
  (void)top_of(key);  // key must be registered
  // Parent-side restart counter: worker counters restart with the worker
  // (like any real process-level metric), respawns are what this backend
  // survived — so `restarts` lives here, uniformly with TcpBackend.
  ServiceStats cold;
  cold.restarts = spawns_ > 0 ? spawns_ - 1 : 0;
  // No worker => nothing has served: all-zero counters, like a cold
  // service.
  if (!channel_.valid()) return cold;
  try {
    Frame query = command_frame(FrameType::kStatsQuery);
    query.key = key;
    self->send_locked(self->codec_.encode(query));
    const Frame reply = self->expect_frame_locked("stats");
    if (reply.type != FrameType::kStats) return cold;
    ServiceStats remote = reply.stats;
    remote.restarts = cold.restarts;
    return remote;
  } catch (const ContractViolation&) {
    // Channel died mid-query; the next drain respawns. Report cold.
    return cold;
  }
}

obs::ObsSnapshot SubprocessBackend::obs_snapshot() {
  const std::lock_guard<std::mutex> lock(mutex_);
  // No worker => nothing observed this incarnation; the parent-side view
  // (queueing, wire timing) lives in the cluster's own Obs already.
  if (!channel_.valid()) return {};
  try {
    // An empty kObs frame is the query form; the worker replies with a
    // kObs frame carrying its snapshot (mirrors the kCacheWarm query).
    send_locked(codec_.encode(command_frame(FrameType::kObs)));
    Frame reply = expect_frame_locked("obs");
    if (reply.type != FrameType::kObs) return {};
    return std::move(reply.obs);
  } catch (const ContractViolation&) {
    // Channel died mid-query; the next drain respawns. Report empty.
    return {};
  }
}

void SubprocessBackend::shutdown() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (channel_.valid()) {
    try {
      channel_.send(codec_.encode(command_frame(FrameType::kShutdown)));
    } catch (const net::NetError&) {
      // Worker already gone; the reap below still applies.
    }
    channel_.close();
  }
  if (worker_pid_ > 0) {
    // The worker exits on `shutdown` or stdin EOF, whichever it sees
    // first; reap it so no zombie outlives the backend.
    ::waitpid(worker_pid_, nullptr, 0);
    worker_pid_ = 0;
  }
}

int SubprocessBackend::worker_pid() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return worker_pid_;
}

std::uint64_t SubprocessBackend::spawns() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spawns_;
}

}  // namespace ffsm
