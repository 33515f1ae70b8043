// Pluggable shard backends for the FusionCluster.
//
// A cluster shard is no longer a set of concrete FusionService objects —
// it is a ShardBackend: per-top serving queues behind a message boundary.
// The cluster routes and re-queues; the backend owns the machines, the
// queues accepted from the cluster, and the closure caches. Two backends
// ship today:
//
//   InProcessBackend  — the pre-refactor behaviour, bit-identical: one
//                       FusionService per registered top in this address
//                       space (the default).
//   SubprocessBackend — one worker process per shard speaking the wire
//                       protocol (sim/messages.hpp) over a socketpair;
//                       see sim/subprocess_backend.hpp.
//
// Contract shared by all backends: submit() queues, drain(key) serves
// everything queued for one top and returns responses in ticket order; a
// failed drain leaves the requests queued inside the backend and throws,
// so the cluster's existing failed-drain path (record the failing top,
// retry next round, discard_pending as the escape hatch) works unchanged
// whether the failure was a malformed batch or a dead worker process.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/server.hpp"

namespace ffsm {

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Registers `top` under `key` (the key must be new to this backend).
  /// Serialized by the cluster's shard lock; not called during drains.
  virtual void add_top(const std::string& key, const Dfsm& top) = 0;

  /// Precondition check for submit: every partition in `request` must
  /// partition the states of `key`'s top. Throws ContractViolation
  /// otherwise. Runs caller-side even for out-of-process backends (the
  /// caller registered the top, so it knows the machine) — a malformed
  /// request is rejected before it ever crosses the wire.
  virtual void validate(const std::string& key,
                        const FusionRequest& request) const = 0;

  /// Queues a request for `key`; returns the backend ticket identifying
  /// the eventual response. Precondition: validate(key, request).
  virtual std::uint64_t submit(const std::string& key, std::string client,
                               FusionRequest request) = 0;

  /// Queued, not yet served requests for `key`; thread-safe.
  [[nodiscard]] virtual std::size_t pending(const std::string& key) const = 0;

  /// Drops every queued request for `key`, returning how many.
  virtual std::size_t discard_pending(const std::string& key) = 0;

  /// Serves everything queued for `key` as one batch; responses in ticket
  /// order. On failure the requests stay queued in the backend and the
  /// error propagates — the cluster re-runs them on its next drain.
  virtual std::vector<FusionResponse> drain(const std::string& key) = 0;

  /// Lifetime counters of `key`'s serving state. For an out-of-process
  /// backend these are the worker's counters: a restarted worker restarts
  /// them, exactly like any real process-level metric.
  [[nodiscard]] virtual ServiceStats stats(const std::string& key) const = 0;

  /// This backend's contribution to the cluster-wide observability view.
  /// Out-of-process backends query their worker over the wire (kObs) and
  /// return its counters, histograms and trace spans; a dead or pre-obs
  /// worker yields an empty snapshot. The in-process backend records
  /// directly into the cluster's own Obs, so the base default — empty — is
  /// correct for it (no double counting).
  [[nodiscard]] virtual obs::ObsSnapshot obs_snapshot() { return {}; }

  /// Releases backend resources (terminates worker processes, flushes
  /// queues are NOT dropped — only serving capacity goes away). Idempotent;
  /// also invoked by destruction.
  virtual void shutdown() {}
};

/// Shared parent-side half of every wire-protocol backend (subprocess,
/// TCP): the registered tops with their self-contained machine texts, the
/// per-top request queues that make worker loss non-lossy, ticket
/// assignment, and caller-side validation. Subclasses own the transport —
/// drain/stats/shutdown — plus one hook: register_added_top_locked, called
/// under the lock by add_top so a live transport learns new tops
/// immediately (and can veto them before the entry commits).
class QueuedWireBackend : public ShardBackend {
 public:
  void add_top(const std::string& key, const Dfsm& top) final;
  void validate(const std::string& key,
                const FusionRequest& request) const final;
  std::uint64_t submit(const std::string& key, std::string client,
                       FusionRequest request) final;
  [[nodiscard]] std::size_t pending(const std::string& key) const final;
  std::size_t discard_pending(const std::string& key) final;

 protected:
  struct TopState {
    std::string machine_text;    // self-contained to_text, for re-register
    std::uint32_t top_size = 0;  // states, for caller-side validate
    std::vector<WireRequest> queue;  // accepted, not yet served
    /// Warm cache snapshot captured (best-effort) after the last
    /// successful drain, replayed alongside the config/top handshake when
    /// the transport is re-established — a respawned worker or failover
    /// target starts with the predecessor's hot set instead of stone-cold.
    std::vector<WarmCacheEntry> warm;
  };

  /// Entries captured per top by the post-drain warm snapshot (and the
  /// most a handshake replays). Covers are a few hundred bytes each, so
  /// the snapshot stays well under a single network read even at the
  /// default cache capacity.
  static constexpr std::uint64_t kWarmSnapshotEntries = 64;

  [[nodiscard]] TopState& top_of(const std::string& key);
  [[nodiscard]] const TopState& top_of(const std::string& key) const;

  /// Called by add_top with mutex_ held, after the entry was recorded. A
  /// throw rolls the registration back (the cluster rolls its own back
  /// too). Typical implementation: if the transport is live, send the
  /// `top` frame and expect "ok"; if not, do nothing — the (re)connect
  /// handshake registers every recorded top anyway.
  virtual void register_added_top_locked(const std::string& key) = 0;

  /// Human-readable tail for a reply frame that should have been `ok` (or
  /// another expected type): the error detail for kError, the frame type
  /// name otherwise.
  [[nodiscard]] static std::string describe_reply(const Frame& reply);

  /// Serializes the wire conversation and guards tops_/top_order_/queues.
  mutable std::mutex mutex_;
  std::unordered_map<std::string, TopState> tops_;
  std::vector<std::string> top_order_;  // registration order for replays
  std::uint64_t next_ticket_ = 1;
};

/// The default backend: the pre-refactor in-address-space behaviour, one
/// FusionService per registered top. Bit-identical responses and stats to
/// the pre-backend FusionCluster.
class InProcessBackend final : public ShardBackend {
 public:
  explicit InProcessBackend(FusionServiceOptions options);

  void add_top(const std::string& key, const Dfsm& top) override;
  void validate(const std::string& key,
                const FusionRequest& request) const override;
  std::uint64_t submit(const std::string& key, std::string client,
                       FusionRequest request) override;
  [[nodiscard]] std::size_t pending(const std::string& key) const override;
  std::size_t discard_pending(const std::string& key) override;
  std::vector<FusionResponse> drain(const std::string& key) override;
  [[nodiscard]] ServiceStats stats(const std::string& key) const override;

  /// The concrete service hosting `key` — diagnostics hatch for callers
  /// that know they run in-process (see FusionCluster::service).
  [[nodiscard]] const FusionService& service(const std::string& key) const;

 private:
  [[nodiscard]] FusionService& service_of(const std::string& key) const;

  FusionServiceOptions options_;
  // Guards the services_ topology only; FusionService is itself
  // thread-safe, and map references are rehash-stable (services are never
  // removed), so calls proceed outside this lock.
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<FusionService>> services_;
};

}  // namespace ffsm
