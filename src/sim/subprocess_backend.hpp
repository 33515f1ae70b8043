// SubprocessBackend: a cluster shard served by a worker OS process.
//
// The first out-of-process ShardBackend: one `ffsm_shard_worker` process
// per shard, speaking the negotiated wire protocol (sim/messages.hpp)
// over a socketpair bridged to the worker's stdin/stdout. Machines travel
// as self-contained to_text (alphabet header included), so the worker
// reconstructs bit-exact transition tables and serves bit-identical
// fusions to the in-process backend. Every spawn opens with the versioned
// hello; a worker binary that refuses it fails the spawn.
//
// The worker serves its socketpair exactly like a listen-mode worker
// serves a TCP connection, so every exchange on it — the config/top
// handshake, windowed serves, warm-cache capture and replay, stats/obs
// queries, the goodbye — is the shared QueuedWireBackend's
// (sim/backend.hpp): drains of different tops interleave on the one
// worker, and wire I/O runs outside the backend lock. This class only
// forks the worker, reaps it, and fixes the failure policy:
//
//   - one attempt per drain, no in-drain re-submit: a worker death (EOF /
//     failed write mid-exchange) reaps the corpse and fails the drain with
//     the batch still queued, and the cluster's failed-drain path retries
//     it on its next round — when the backend respawns a fresh worker and
//     replays its tops and warm caches;
//   - one serve exchange per drain (no backpressure window: the worker is
//     this process's own child);
//   - before each drain, a worker found dead (waitpid) is replaced up
//     front, so a worker killed between drains costs no failed drain.
//
// A restarted worker restarts its counters and caches (exactly like any
// real process-level state); results are unaffected because caches never
// change results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/backend.hpp"

namespace ffsm {

/// Resolves the shard-worker binary shared by the out-of-process backends:
/// explicit path if non-empty, else $FFSM_SHARD_WORKER, else
/// "ffsm_shard_worker" next to the current executable (tests, benches and
/// the worker all land in the same build directory).
[[nodiscard]] std::string discover_worker_path(
    const std::string& explicit_path);

struct SubprocessBackendOptions {
  /// Path to the ffsm_shard_worker binary. Empty = $FFSM_SHARD_WORKER,
  /// falling back to "ffsm_shard_worker" next to the current executable.
  std::string worker_path;
  /// Wire-safe service options sent to the worker at every (re)spawn.
  ShardServiceConfig config = {};
  /// Optional observability context (nullptr = uninstrumented): wire
  /// encode/decode/round-trip timing (see WireConversation), a
  /// `worker.respawn` instant event per respawn, and obs_snapshot()
  /// pulling the worker's own counters/histograms/spans over the wire
  /// (kObs).
  obs::Obs* obs = nullptr;
};

class SubprocessBackend final : public QueuedWireBackend {
 public:
  explicit SubprocessBackend(SubprocessBackendOptions options = {});
  ~SubprocessBackend() override;

  SubprocessBackend(const SubprocessBackend&) = delete;
  SubprocessBackend& operator=(const SubprocessBackend&) = delete;

  // add_top / validate / submit / pending / discard_pending / drain /
  // stats / obs_snapshot / connected: the shared wire backend. stats()
  // fills `restarts` parent-side from the spawn count.

  /// Graceful worker termination (goodbye + EOF + waitpid). Queued
  /// requests stay queued; the next drain() respawns.
  void shutdown() override;

  /// Pid of the live worker, 0 when none — exposed so tests and fault
  /// injectors can kill the process underneath the backend.
  [[nodiscard]] int worker_pid() const;
  /// Workers (re)spawned so far — 1 after the first drain, +1 per restart.
  [[nodiscard]] std::uint64_t spawns() const;

 private:
  /// Reuses a running worker, or replaces a dead one: spawn + handshake.
  /// Throws NetError when the worker dies before answering and
  /// ContractViolation on a spawn failure or a refused handshake.
  void connect() override;
  /// Reaps the dropped conversation's worker (SIGKILL + waitpid), if any.
  void on_drop_locked() noexcept override;
  void fill_parent_counters_locked(ServiceStats& stats) const override;

  /// Forks the worker on a fresh socketpair and runs the handshake.
  void spawn_locked();

  SubprocessBackendOptions options_;
  int worker_pid_ = 0;
  std::uint64_t spawns_ = 0;
};

}  // namespace ffsm
