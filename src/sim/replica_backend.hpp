// ReplicaBackend: one cluster shard served through a replica set of
// interchangeable workers.
//
// The paper's deployment story — f spare resources standing by so any f
// crashed machines recover without loss — applied to the serving layer
// itself. A ReplicaBackend owns an *ordered seed list* of worker
// endpoints, all replicas of the same shard worker, and serves every
// exchange through the current primary. A NetError mid-exchange drops the
// connection and the in-flight retry reconnects to the best replica
// reachable, replaying the full config/top handshake — a listen-mode
// worker starts every connection with clean state, so a fresh replica is
// bit-identical by construction (caches never change results). The handshake also replays
// the warm cache snapshot captured after the last successful drain
// (kCacheWarm), so a failover target serves its first drain with the
// previous primary's hot set resident instead of stone-cold — results
// stay bit-identical either way. Queueing stays parent-side
// (QueuedWireBackend): the batch is re-submitted to the survivor and the
// queue cleared only once every response arrived, so failover is
// lossless. With every replica down, drain() throws with the batch still
// queued and the cluster's failed-drain path takes over; any replica
// coming back recovers the backlog.
//
// Every exchange on the connection — the hello and config/top handshake,
// windowed serves, stats/obs queries, the goodbye — is the shared
// QueuedWireBackend's (sim/backend.hpp): drains for different tops run as
// interleaved exchanges on the one connection, with wire I/O *outside*
// the backend lock. This class only decides which replica to connect to.
//
// Endpoint selection consults an optional net::HealthMonitor probing the
// seed list in the background: the connect scan tries replicas the
// monitor believes alive first (priority order within each verdict) but
// never skips one — a stale verdict only reorders attempts, it cannot
// cause unavailability. While serving through a lower-priority replica,
// a higher-priority one probing back up triggers *fail-back* on the next
// drain: the connection moves only when no exchange is active on the
// wire, so nothing is dropped.
//
// A one-endpoint seed list is a plain remote shard (BackendConfig's
// "tcp" kind): with nobody to fail over to, once serve_retry is exhausted
// drain() throws with the batch still queued and the cluster's
// failed-drain path takes over until that one address answers again.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/health.hpp"
#include "net/retry.hpp"
#include "sim/backend.hpp"

namespace ffsm {

struct ReplicaBackendOptions {
  /// Worker replicas of this shard, priority order: the backend serves
  /// through the earliest reachable one and fails back toward the front
  /// as replicas revive. At least one; ports nonzero.
  std::vector<net::Endpoint> endpoints;
  /// Wire-safe service options sent at every (re)connect.
  ShardServiceConfig config = {};
  /// Bounded time per connect attempt against a black-holed host.
  std::chrono::milliseconds connect_timeout{2000};
  /// Backoff across connect rounds; every round scans the whole replica
  /// set once. Exhausted rounds fail the drain.
  net::RetryPolicy connect_retry = {};
  /// In-flight re-submit: how often a serve batch whose connection died
  /// mid-exchange is re-sent (each attempt reconnects first — possibly to
  /// a different replica) before the drain fails and the cluster
  /// re-queues.
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
  /// Liveness oracle for the seed list; the backend watch()es its
  /// endpoints at construction. Optional — without one, failover still
  /// works (pure priority-order scanning) but fail-back happens only on
  /// reconnect. Shared: one monitor typically probes every shard's
  /// replicas.
  std::shared_ptr<net::HealthMonitor> monitor;
  /// Optional observability context (nullptr = uninstrumented): wire
  /// encode/decode/round-trip timing on every connection (see
  /// WireConversation), a `replica.failover` instant event whenever the
  /// serving endpoint moves to a different replica, and obs_snapshot()
  /// pulling the live replica's own snapshot over the wire (kObs).
  obs::Obs* obs = nullptr;
};

class ReplicaBackend final : public QueuedWireBackend {
 public:
  explicit ReplicaBackend(ReplicaBackendOptions options);
  ~ReplicaBackend() override;

  ReplicaBackend(const ReplicaBackend&) = delete;
  ReplicaBackend& operator=(const ReplicaBackend&) = delete;

  // add_top / validate / submit / pending / discard_pending / drain /
  // stats / obs_snapshot / shutdown / connected: the shared wire backend.
  // stats() adds restarts, failovers and health_probes_failed parent-side.

  /// Successful connections so far — 1 after the first drain, +1 per
  /// reconnect (same or different replica). restarts = connects() - 1.
  [[nodiscard]] std::uint64_t connects() const;
  /// Times the serving endpoint moved to a *different* replica.
  [[nodiscard]] std::uint64_t failovers() const;
  /// Seed-list index of the live (or most recent) connection's replica.
  [[nodiscard]] std::size_t current_replica() const;

 private:
  /// Fail-back check + connect + handshake if disconnected, retrying per
  /// connect_retry with the backoff sleeps OUTSIDE the mutex. Throws
  /// NetError once every round failed on every replica.
  void connect() override;
  void fill_parent_counters_locked(ServiceStats& stats) const override;

  /// Drops a connection to a lower-priority replica when the monitor
  /// reports an earlier one back up. Only fires while no exchange is
  /// active on the wire — parent-side queueing makes the drop lossless.
  void maybe_fail_back_locked();
  /// One scan over the replica set in scan_order(); first successful
  /// connect+handshake wins. Locks per endpoint (one lock hold <= one
  /// connect_timeout, never the whole scan). Throws the last NetError if
  /// every replica failed; protocol rejections (ContractViolation)
  /// propagate immediately — a worker that *answers wrongly* is not
  /// routed around.
  void connect_any();
  /// Connect + handshake against one replica; on success the fresh
  /// conversation is installed and failovers are counted.
  void connect_endpoint_locked(std::size_t replica);
  /// Replica indices in attempt order: monitor-alive first (priority
  /// order within each verdict: kUp, kUnknown, kDown), every replica
  /// present exactly once. Without a monitor: plain priority order.
  /// Reads only immutable options and the monitor — no backend lock.
  [[nodiscard]] std::vector<std::size_t> scan_order() const;

  ReplicaBackendOptions options_;
  std::uint64_t connects_ = 0;
  std::uint64_t failovers_ = 0;
  std::size_t current_ = 0;  // endpoint index of the live/last connection
};

}  // namespace ffsm
