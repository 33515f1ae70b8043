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
// Queueing lives parent-side: submit() queues here, drain(key) ships the
// whole backlog as one `serve` exchange and clears it only once every
// response arrived. A worker death (EOF / failed write mid-exchange) is
// therefore never lossy: the backend reaps the corpse, throws from
// drain(), and the cluster's existing failed-drain path retries the still-
// queued requests on its next round — at which point the backend respawns
// a fresh worker and re-registers its tops. A restarted worker restarts
// its counters and caches (exactly like any real process-level state);
// results are unaffected because caches never change results.
//
// Parent <-> worker exchanges (one in flight at a time, serialized on an
// internal mutex; Frame types of sim/messages.hpp):
//   config / top                       -> ok | error          (at spawn)
//   serve + n request frames           -> serving + n responses + done
//                                         | error
//   stats query                        -> stats | error
//   cachewarm query / import           -> cachewarm | ok | error
//   shutdown                           -> bye, then worker exit
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/line_channel.hpp"
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
  /// Optional observability context (nullptr = uninstrumented): the
  /// backend emits a `worker.respawn` instant event per respawn, and
  /// obs_snapshot() pulls the worker's own counters/histograms/spans over
  /// the wire (kObs).
  obs::Obs* obs = nullptr;
};

class SubprocessBackend final : public QueuedWireBackend {
 public:
  explicit SubprocessBackend(SubprocessBackendOptions options = {});
  ~SubprocessBackend() override;

  SubprocessBackend(const SubprocessBackend&) = delete;
  SubprocessBackend& operator=(const SubprocessBackend&) = delete;

  // add_top / validate / submit / pending / discard_pending: the shared
  // parent-side queueing of QueuedWireBackend.
  std::vector<FusionResponse> drain(const std::string& key) override;
  /// Worker counters for `key`; all-zero when no worker is running (a
  /// fresh or just-crashed shard really has served nothing), with
  /// `restarts` filled parent-side from the spawn count.
  [[nodiscard]] ServiceStats stats(const std::string& key) const override;
  /// The live worker's observability snapshot via a kObs exchange; empty
  /// when no worker is running or the query fails (the next drain
  /// respawns).
  [[nodiscard]] obs::ObsSnapshot obs_snapshot() override;
  /// Graceful worker termination (`shutdown` + EOF + waitpid). Queued
  /// requests stay queued; the next drain() respawns.
  void shutdown() override;

  /// Pid of the live worker, 0 when none — exposed so tests and fault
  /// injectors can kill the process underneath the backend.
  [[nodiscard]] int worker_pid() const;
  /// Workers (re)spawned so far — 1 after the first drain, +1 per restart.
  [[nodiscard]] std::uint64_t spawns() const;

 private:
  /// A live worker learns new tops immediately; otherwise the next
  /// ensure_worker_locked() registers them with the rest.
  void register_added_top_locked(const std::string& key) override;

  /// Spawns + negotiates + configures + re-registers tops if no worker is
  /// running. Throws ContractViolation on spawn or handshake failure.
  void ensure_worker_locked();
  /// Reaps the worker (SIGKILL + waitpid) and closes the channel.
  void kill_worker_locked() noexcept;
  /// Sends the frame for one top and expects an ok frame.
  void register_top_locked(const std::string& key, const TopState& top);
  /// Ships a top's warm cache snapshot (if any) and expects an ok frame —
  /// the import half of the kCacheWarm handoff, run at every (re)spawn.
  void replay_warm_locked(const std::string& key, const TopState& top);

  /// I/O over the channel (net::LineChannel: full-buffer SIGPIPE-safe
  /// sends). send throws on a dead peer via die_locked; expect_frame
  /// throws (after reaping) on EOF or a transport error, and lets a
  /// malformed frame's ContractViolation propagate for the caller to
  /// decide.
  void send_locked(std::string_view data);
  [[nodiscard]] Frame expect_frame_locked(const char* context);
  [[noreturn]] void die_locked(const std::string& what);

  SubprocessBackendOptions options_;
  int worker_pid_ = 0;
  net::LineChannel channel_;
  WireCodec codec_;
  std::uint64_t spawns_ = 0;
};

}  // namespace ffsm
