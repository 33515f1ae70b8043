// ReplicaBackend: one cluster shard served through a replica set of
// interchangeable workers.
//
// The paper's deployment story — f spare resources standing by so any f
// crashed machines recover without loss — applied to the serving layer
// itself. Where TcpBackend pins a shard to one static endpoint (a dead
// worker stalls the shard until that exact address returns), a
// ReplicaBackend owns an *ordered seed list* of worker endpoints, all
// replicas of the same shard worker, and serves every exchange through
// the current primary. A NetError mid-exchange drops the connection and
// the in-flight retry reconnects to the best replica reachable, replaying
// the full config/top handshake — a listen-mode worker starts every
// connection with clean state, so a fresh replica is bit-identical by
// construction (caches never change results). The handshake also replays
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
// Every connection opens with the versioned hello (sim/messages.hpp) and
// then speaks binary frames; a worker that refuses the hello fails the
// connection. The connection itself is a WireConversation — drains for
// different tops run as interleaved exchanges on the one connection (wire
// I/O happens *outside* the backend lock).
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
// TcpBackend (sim/tcp_backend.hpp) is the one-endpoint special case and
// derives from this class.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/health.hpp"
#include "net/line_channel.hpp"
#include "net/retry.hpp"
#include "sim/backend.hpp"
#include "sim/wire_conversation.hpp"

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
  /// backpressure window (see TcpBackendOptions::serve_window).
  std::size_t serve_window = 32;
  /// TCP keepalive probing for the serve connection (reads there carry no
  /// deadline — generation can run long); idle 0 disables.
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

class ReplicaBackend : public QueuedWireBackend {
 public:
  explicit ReplicaBackend(ReplicaBackendOptions options);
  ~ReplicaBackend() override;

  ReplicaBackend(const ReplicaBackend&) = delete;
  ReplicaBackend& operator=(const ReplicaBackend&) = delete;

  // add_top / validate / submit / pending / discard_pending: the shared
  // parent-side queueing of QueuedWireBackend.
  std::vector<FusionResponse> drain(const std::string& key) override;
  /// Worker counters for `key` from the live replica (per-connection on
  /// the worker side); all-zero when disconnected. restarts, failovers
  /// and health_probes_failed are filled parent-side — the replica that
  /// answers cannot know how often it was replaced.
  [[nodiscard]] ServiceStats stats(const std::string& key) const override;
  /// The live replica's observability snapshot via a kObs exchange
  /// (per-connection on the worker side, like stats()); empty when
  /// disconnected or the query fails.
  [[nodiscard]] obs::ObsSnapshot obs_snapshot() override;
  /// Graceful goodbye (`shutdown` + close). Replicas keep listening;
  /// queued requests stay queued and the next drain() reconnects.
  void shutdown() override;

  /// Successful connections so far — 1 after the first drain, +1 per
  /// reconnect (same or different replica). restarts = connects() - 1.
  [[nodiscard]] std::uint64_t connects() const;
  /// Whether a connection is currently open (tests probe recovery).
  [[nodiscard]] bool connected() const;
  /// Times the serving endpoint moved to a *different* replica.
  [[nodiscard]] std::uint64_t failovers() const;
  /// Seed-list index of the live (or most recent) connection's replica.
  [[nodiscard]] std::size_t current_replica() const;

 private:
  /// A live connection learns new tops immediately; otherwise the next
  /// reconnect handshake registers them with the rest.
  void register_added_top_locked(const std::string& key) override;

  /// Fail-back check + connect + handshake if disconnected, retrying per
  /// connect_retry with the backoff sleeps OUTSIDE the mutex. Throws
  /// NetError once every round failed on every replica.
  void ensure_connected();
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
  /// Connect + negotiate + config/top handshake against one replica; on
  /// success installs the fresh WireConversation.
  void connect_endpoint_locked(std::size_t replica);
  /// Replica indices in attempt order: monitor-alive first (priority
  /// order within each verdict: kUp, kUnknown, kDown), every replica
  /// present exactly once. Without a monitor: plain priority order.
  /// Reads only immutable options and the monitor — no backend lock.
  [[nodiscard]] std::vector<std::size_t> scan_order() const;
  void drop_connection_locked() noexcept;
  /// Serializes drains per top — the cluster already guarantees one drain
  /// per top at a time, the gate makes it a local invariant. Gates are
  /// created lazily and never removed, so the returned reference is
  /// stable.
  [[nodiscard]] std::mutex& serve_gate(const std::string& key);
  /// Ships `batch` as serve_window-sized exchanges on `conversation`;
  /// responses in batch (= ticket) order. Runs WITHOUT the backend lock —
  /// other tops' drains interleave on the same connection while this one
  /// waits. NetError => the conversation is already poisoned (the caller
  /// drops and retries).
  std::vector<FusionResponse> serve_exchange(
      const std::shared_ptr<WireConversation>& conversation,
      const std::string& key, const std::vector<WireRequest>& batch);
  /// Best-effort kCacheWarm export query after a successful drain: stores
  /// the replica's hottest cache entries in the top's warm snapshot, to be
  /// replayed by the next connect handshake (failover or fail-back).
  /// Failures are swallowed — the drain already completed.
  void capture_warm_snapshot(
      const std::shared_ptr<WireConversation>& conversation,
      const std::string& key);
  /// Parent-side counters the remote cannot know, onto `stats`.
  void fill_parent_counters_locked(ServiceStats& stats) const;

  ReplicaBackendOptions options_;
  std::shared_ptr<WireConversation> conversation_;
  /// One gate per top (lazily created; pointers keep them stable under
  /// rehash). Locked for a whole drain, which outlives mutex_ holds.
  std::unordered_map<std::string, std::unique_ptr<std::mutex>> serve_gates_;
  std::uint64_t connects_ = 0;
  std::uint64_t failovers_ = 0;
  std::size_t current_ = 0;  // endpoint index of the live/last connection
};

}  // namespace ffsm
