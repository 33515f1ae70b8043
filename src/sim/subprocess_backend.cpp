#include "sim/subprocess_backend.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <utility>

#include "obs/obs.hpp"
#include "util/contracts.hpp"

namespace ffsm {

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
    : QueuedWireBackend(
          {.name = "SubprocessBackend",
           .config = options.config,
           // One attempt: a dead worker fails the drain and the cluster
           // re-queues; the next drain respawns.
           .serve_retry = {1, std::chrono::milliseconds(0),
                           std::chrono::milliseconds(0), 1},
           // The whole backlog as one serve exchange.
           .serve_window = std::numeric_limits<std::size_t>::max(),
           .obs = options.obs}),
      options_(std::move(options)) {}

SubprocessBackend::~SubprocessBackend() { shutdown(); }

void SubprocessBackend::on_drop_locked() noexcept {
  if (worker_pid_ > 0) {
    ::kill(worker_pid_, SIGKILL);
    ::waitpid(worker_pid_, nullptr, 0);
    worker_pid_ = 0;
  }
}

void SubprocessBackend::connect() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (live_locked()) {
    // The up-front corpse check: a worker killed between drains is
    // replaced now, before this drain sends anything to it.
    if (::waitpid(worker_pid_, nullptr, WNOHANG) == 0) return;  // running
    // Exited (reaped just now): forget the pid BEFORE the cleanup below —
    // SIGKILLing a reaped pid could hit whatever process the kernel
    // recycled it to.
    worker_pid_ = 0;
  }
  drop_connection_locked();  // a stale conversation, and its worker
  spawn_locked();
}

void SubprocessBackend::spawn_locked() {
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
  worker_pid_ = static_cast<int>(pid);
  ++spawns_;
  // The first spawn is cold start, not a fault; every further one replaced
  // a dead worker.
  if (options_.obs != nullptr && spawns_ > 1)
    options_.obs->instant("worker.respawn");
  try {
    open_conversation_locked(net::LineChannel(net::Socket(sv[0])),
                             "'" + path + "'");
  } catch (...) {
    // Died before answering (NetError) or refused the hello or config
    // (ContractViolation, e.g. a binary of another protocol version):
    // reap it and let the failure propagate.
    on_drop_locked();
    throw;
  }
}

void SubprocessBackend::fill_parent_counters_locked(
    ServiceStats& stats) const {
  // Worker counters restart with the worker (like any real process-level
  // metric); the respawns are what this backend survived.
  stats.restarts = spawns_ > 0 ? spawns_ - 1 : 0;
}

void SubprocessBackend::shutdown() {
  QueuedWireBackend::shutdown();  // goodbye, then EOF on the socketpair
  const std::lock_guard<std::mutex> lock(mutex_);
  // A drain racing this shutdown may already have reaped this worker and
  // spawned a successor; that one keeps running.
  if (conversation_ != nullptr) return;
  if (worker_pid_ > 0) {
    // The worker exits on `shutdown` or EOF, whichever it sees first;
    // reap it so no zombie outlives the backend.
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
