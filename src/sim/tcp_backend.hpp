// ListenerWorkerProcess: a locally spawned TCP shard worker.
//
// A remote shard is a ReplicaBackend (sim/replica_backend.hpp) — with a
// one-endpoint seed list when there is a single worker to talk to. This
// header holds only the loopback harness that stands in for such a
// remote worker process in tests, benches and examples.
#pragma once

#include <cstdint>
#include <string>

namespace ffsm {

/// A locally spawned `ffsm_shard_worker --listen` process — the loopback
/// harness tests, benches and examples use to stand in for a remote host
/// (or for one replica of one). Spawns at construction, parses the
/// worker's `listening <port>` banner (so port 0 = ephemeral works),
/// SIGKILLs + reaps at destruction.
class ListenerWorkerProcess {
 public:
  struct Options {
    /// Worker binary; empty = discover_worker_path's rules
    /// ($FFSM_SHARD_WORKER, then next to the current executable).
    std::string worker_path;
    /// 0 = ephemeral; pass a previous instance's port() to respawn a
    /// listener on the same address (SO_REUSEADDR makes this race-free).
    std::uint16_t port = 0;
  };

  ListenerWorkerProcess();  // Options() defaults: ephemeral port
  explicit ListenerWorkerProcess(Options options);
  ~ListenerWorkerProcess() { kill(); }

  ListenerWorkerProcess(const ListenerWorkerProcess&) = delete;
  ListenerWorkerProcess& operator=(const ListenerWorkerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int pid() const noexcept { return pid_; }

  /// SIGKILL + reap; idempotent. Established connections drop, which is
  /// exactly what the mid-serve kill tests need.
  void kill() noexcept;

 private:
  int pid_ = 0;
  std::uint16_t port_ = 0;
};

}  // namespace ffsm
