// TcpBackend: a cluster shard served by a worker on another machine.
//
// The multi-host ShardBackend: the wire protocol (sim/messages.hpp)
// spoken over a TCP connection to an `ffsm_shard_worker --listen <port>`.
// Since PR 5 this is the one-endpoint special case of ReplicaBackend
// (sim/replica_backend.hpp), which owns all of the machinery — lazy
// connect with bounded backoff, full config/top handshake replay per
// connection (cold caches, reset counters, bit-identical results),
// in-flight re-submit when a connection drops mid-serve, parent-side
// queueing so nothing is ever lost, and the serve_window backpressure
// bound. With a single endpoint there is nobody to fail over to: once
// serve_retry is exhausted drain() throws with the batch still queued and
// the cluster's failed-drain path takes over — re-queue, retry next
// round, discard_pending as the escape hatch. Deployments that want a
// shard to survive its worker use ReplicaBackend with a seed list.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "sim/replica_backend.hpp"

namespace ffsm {

/// Kept field-for-field in lockstep with ReplicaBackendOptions (minus
/// endpoints/monitor): a knob added to one MUST be added to the other
/// AND to as_replica_options() in tcp_backend.cpp, or TcpBackend
/// silently ignores it. (The struct predates ReplicaBackendOptions and
/// is kept distinct so existing host/port call sites stay source-
/// compatible.)
struct TcpBackendOptions {
  /// Worker address (ffsm_shard_worker --listen on that host).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Wire-safe service options sent at every (re)connect.
  ShardServiceConfig config = {};
  /// Bounded time per connect attempt against a black-holed host.
  std::chrono::milliseconds connect_timeout{2000};
  /// Backoff across connect attempts (worker restarting, port not yet
  /// rebound). Exhausted attempts fail the drain.
  net::RetryPolicy connect_retry = {};
  /// In-flight re-submit: how often a serve batch whose connection dropped
  /// mid-exchange is re-sent (each attempt reconnects first, under
  /// connect_retry) before the drain fails and the cluster re-queues.
  net::RetryPolicy serve_retry = {2, std::chrono::milliseconds(50),
                                  std::chrono::milliseconds(1000), 2};
  /// Maximum request frames in flight per serve exchange — the
  /// backpressure window. A backlog larger than this drains as several
  /// sequential exchanges, each waiting for its responses.
  std::size_t serve_window = 32;
  /// TCP keepalive probing (seconds idle before probing, seconds between
  /// probes, probes before declaring the peer dead). Generation can
  /// legitimately take minutes, so serve reads carry no deadline —
  /// keepalive is what turns a *half-open* connection (peer host died
  /// without FIN/RST) into a bounded-time NetError instead of a drain
  /// wedged forever. idle 0 disables.
  int keepalive_idle_s = 30;
  int keepalive_interval_s = 10;
  int keepalive_probes = 3;
  /// Optional observability context (see ReplicaBackendOptions::obs).
  obs::Obs* obs = nullptr;
};

class TcpBackend final : public ReplicaBackend {
 public:
  explicit TcpBackend(TcpBackendOptions options);
};

/// A locally spawned `ffsm_shard_worker --listen` process — the loopback
/// harness tests, benches and examples use to stand in for a remote host
/// (or for one replica of one). Spawns at construction, parses the
/// worker's `listening <port>` banner (so port 0 = ephemeral works),
/// SIGKILLs + reaps at destruction.
class ListenerWorkerProcess {
 public:
  struct Options {
    /// Worker binary; empty = the SubprocessBackend discovery rules
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
