// Pluggable shard backends for the FusionCluster.
//
// A cluster shard is no longer a set of concrete FusionService objects —
// it is a ShardBackend: per-top serving queues behind a message boundary.
// The cluster routes and re-queues; the backend owns the machines, the
// queues accepted from the cluster, and the closure caches. Three
// backends ship today:
//
//   InProcessBackend  — the pre-refactor behaviour, bit-identical: one
//                       FusionService per registered top in this address
//                       space (the default).
//   SubprocessBackend — one ffsm_shard_worker child process per shard on
//                       a socketpair; see sim/subprocess_backend.hpp.
//   ReplicaBackend    — an ordered seed list of `ffsm_shard_worker
//                       --listen` replicas over TCP with lossless
//                       failover; one endpoint is a plain remote shard.
//                       See sim/replica_backend.hpp.
//
// The two out-of-process backends share one parent-side implementation
// of the wire protocol (sim/messages.hpp), QueuedWireBackend below; they
// differ only in how a connection to a worker is obtained.
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

#include "net/line_channel.hpp"
#include "net/retry.hpp"
#include "sim/server.hpp"
#include "sim/wire_conversation.hpp"

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
/// replica set): the registered tops with their self-contained machine
/// texts, the per-top request queues that make worker loss non-lossy,
/// ticket assignment, caller-side validation — and the one
/// WireConversation with everything spoken on it. This class is the only
/// parent-side code that knows the exchange grammar (sim/messages.hpp):
///   handshake  hello, config, every top, every warm-cache snapshot
///   serve      windowed `serve` exchanges, re-submitted whole when the
///              connection dies mid-exchange, served tickets removed only
///              once every response of the batch arrived
///   warm       a best-effort `cachewarm` export after each drain,
///              replayed by the next handshake
///   stats/obs  per-key counters and the worker's observability snapshot
///   top        live registration on an open conversation
///   shutdown   a fire-and-close goodbye
/// Wire I/O runs outside mutex_, so drains of different tops interleave on
/// the one connection and submit()/pending() never wait behind a drain.
///
/// A subclass supplies only how a fresh connection is obtained (connect()
/// hands a channel to open_conversation_locked), what a dropped connection
/// leaves behind to clean up (on_drop_locked), and the parent-side
/// counters it keeps (fill_parent_counters_locked).
class QueuedWireBackend : public ShardBackend {
 public:
  void add_top(const std::string& key, const Dfsm& top) final;
  void validate(const std::string& key,
                const FusionRequest& request) const final;
  std::uint64_t submit(const std::string& key, std::string client,
                       FusionRequest request) final;
  [[nodiscard]] std::size_t pending(const std::string& key) const final;
  std::size_t discard_pending(const std::string& key) final;

  /// Connects if needed (connect()), then ships the top's backlog as
  /// serve_window-sized exchanges. A connection that dies mid-exchange is
  /// dropped and the batch re-sent on a fresh one, serve_retry attempts in
  /// total; anything else — protocol errors, a worker-side batch failure —
  /// propagates at once. Either way the batch stays queued until every
  /// response arrived.
  std::vector<FusionResponse> drain(const std::string& key) final;
  /// Worker counters for `key` from the live conversation (they restart
  /// with the worker or connection); all-zero when there is none, or the
  /// query fails. The subclass's parent-side counters (restarts, ...) are
  /// filled in either way — the worker that answers cannot know how often
  /// it was replaced.
  [[nodiscard]] ServiceStats stats(const std::string& key) const final;
  /// The live worker's observability snapshot via a kObs exchange; empty
  /// when there is no live conversation or the query fails.
  [[nodiscard]] obs::ObsSnapshot obs_snapshot() final;
  /// Sends the goodbye and closes the conversation. Queued requests stay
  /// queued; the next drain() reconnects.
  void shutdown() override;

  /// Whether a conversation is currently open (tests probe recovery).
  [[nodiscard]] bool connected() const;

 protected:
  /// How a transport speaks the exchanges: fixed by each subclass at
  /// construction (ReplicaBackend forwards its options, SubprocessBackend
  /// passes constants).
  struct ExchangePolicy {
    /// Prefix of every error this backend throws.
    const char* name = "QueuedWireBackend";
    /// Wire-safe service options sent at every handshake.
    ShardServiceConfig config = {};
    /// Attempts per drain; a connection that dies mid-exchange costs one.
    /// 1 = no in-drain re-submit: the drain fails and the cluster
    /// re-queues.
    net::RetryPolicy serve_retry = {};
    /// Request frames per serve exchange — the backpressure window (a
    /// larger backlog drains as sequential exchanges). 0 counts as 1.
    std::size_t serve_window = 32;
    /// Times wire encode/decode/round-trip (see WireConversation).
    obs::Obs* obs = nullptr;
  };

  explicit QueuedWireBackend(ExchangePolicy policy);

  /// Leaves a live conversation_ installed, or throws: NetError when no
  /// worker could be reached (drain() retries those per serve_retry),
  /// ContractViolation when one answered wrongly. Called WITHOUT mutex_;
  /// implementations lock as they need and may reuse a live conversation.
  virtual void connect() = 0;
  /// Runs with mutex_ held whenever the conversation is dropped — a
  /// transport or protocol failure, or a stale one replaced. Default: no
  /// cleanup.
  virtual void on_drop_locked() noexcept {}
  /// Parent-side counters the remote cannot know, onto `stats`.
  virtual void fill_parent_counters_locked(ServiceStats& stats) const = 0;

  /// Runs the handshake on a freshly connected `channel` — hello, config,
  /// every top in registration order, every warm snapshot — and installs
  /// it as conversation_. `peer` names the worker in error messages.
  /// Throws NetError when the peer vanished and ContractViolation when it
  /// answered wrongly, closing the channel in both cases.
  void open_conversation_locked(net::LineChannel channel, std::string peer);
  /// Forgets the conversation and calls on_drop_locked(). Exchanges still
  /// on it keep it alive through their shared_ptr and fail with NetError
  /// once it is poisoned.
  void drop_connection_locked() noexcept;
  /// Whether conversation_ is installed and not poisoned.
  [[nodiscard]] bool live_locked() const;

  /// Guards the tops and their queues, conversation_ and subclass state.
  /// Held through a handshake and a live top registration, never across
  /// a serve, stats or obs exchange.
  mutable std::mutex mutex_;
  std::shared_ptr<WireConversation> conversation_;

 private:
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
  /// add_top's hook, with mutex_ held: a live conversation learns the new
  /// top at once (a rejection rolls the registration back); otherwise the
  /// next handshake registers it with the rest.
  void register_added_top_locked(const std::string& key);
  /// Human-readable tail for a reply frame that should have been `ok` (or
  /// another expected type): the error detail for kError, the frame type
  /// name otherwise.
  [[nodiscard]] static std::string describe_reply(const Frame& reply);
  /// Serializes drains per top — the cluster already guarantees one drain
  /// per top at a time, the gate makes it a local invariant. Gates are
  /// created lazily and never removed, so the returned reference is
  /// stable.
  [[nodiscard]] std::mutex& serve_gate(const std::string& key);
  /// Ships `batch` as serve_window-sized exchanges on `conversation`;
  /// responses in batch (= ticket) order. Runs WITHOUT mutex_ — other
  /// tops' drains interleave on the same connection while this one waits.
  /// NetError => the conversation is already poisoned (the caller drops
  /// and retries).
  std::vector<FusionResponse> serve_exchange(
      const std::shared_ptr<WireConversation>& conversation,
      const std::string& key, const std::vector<WireRequest>& batch);
  /// Best-effort kCacheWarm export query after a successful drain: stores
  /// the worker's hottest cache entries in the top's warm snapshot, to be
  /// replayed by the next handshake. Failures are swallowed — the drain
  /// already completed.
  void capture_warm_snapshot(
      const std::shared_ptr<WireConversation>& conversation,
      const std::string& key);

  ExchangePolicy policy_;
  std::unordered_map<std::string, TopState> tops_;
  std::vector<std::string> top_order_;  // registration order for replays
  std::uint64_t next_ticket_ = 1;
  std::string peer_;  // the live (or last) conversation's worker
  /// One gate per top (lazily created; pointers keep them stable under
  /// rehash). Locked for a whole drain, which outlives mutex_ holds.
  std::unordered_map<std::string, std::unique_ptr<std::mutex>> serve_gates_;
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
