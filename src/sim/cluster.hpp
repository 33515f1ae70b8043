// A multi-tenant fusion cluster: N shard backends keyed by top machine.
//
// One serving backend owns the tops of one shard and serves every client
// asking about them. The cluster is the routing layer above: top machines
// are registered under string keys, each key is consistently assigned to
// one of N shards (FNV-1a hash of the key, so the assignment is stable
// across runs and independent of registration order), and every shard's
// ShardBackend hosts the tops that map to it. drain() fans the shard
// backlogs out across the shared ThreadPool, so independent tops make
// progress in parallel while all requests for one top still share that
// top's bounded closure cache (wherever it lives — this address space or a
// worker process).
//
// The backend behind a shard is pluggable (sim/backend.hpp): the default
// InProcessBackend reproduces the pre-backend behaviour bit-identically;
// SubprocessBackend (sim/subprocess_backend.hpp) moves each shard into its
// own OS process behind the wire protocol. The cluster's routing, ticket
// bookkeeping and failure handling are backend-agnostic, and every backend
// must serve bit-identical responses for the same request stream.
//
// Failure model: the cluster validates only that a request names a
// registered top. Request contents (partition sizes) are validated by the
// serving shard at drain time — a malformed request fails validation and
// is *re-queued at the cluster*, never silently lost; DrainReport says
// which tops failed and discard_pending() evicts a poisoned backlog. A
// shard whose batched generation throws — or whose worker process died —
// keeps the drained requests queued inside its backend and the cluster
// retries them on the next drain (a subprocess backend respawns its worker
// then).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/window.hpp"
#include "sim/backend.hpp"

namespace ffsm {

struct FusionClusterOptions {
  /// Number of shards (must be >= 1). Tops hash onto shards; several tops
  /// can share a shard (and with it a backend / worker process).
  std::size_t shards = 4;
  /// Drain shards in parallel on the pool (each shard's nested fan-outs
  /// run on whatever pool workers are idle).
  bool parallel = true;
  ThreadPool* pool = nullptr;
  /// Per-request engine mode (see GenerateOptions::incremental).
  bool incremental = true;
  /// Bound + eviction policy for every top's persistent closure cache;
  /// total resident cache memory is O(tops * capacity) entries.
  LowerCoverCacheConfig cache_config = {};
  /// Speculative-descent lookahead for every served request (see
  /// SpeculationOptions::lookahead).
  std::uint32_t speculation_lookahead = 2;
  /// Observability context shared by the cluster and its default
  /// in-process backends. nullptr (the default) makes the cluster
  /// construct and own a private *enabled* Obs, so drain spans and
  /// latency histograms work out of the box; pass an explicitly disabled
  /// Obs to opt out of all instrumentation (zero clock reads on the hot
  /// path — the bench baseline). Wire backends built by a factory get
  /// their context via BackendConfig::obs; point it at this cluster's
  /// obs() so every event lands in one timeline.
  obs::Obs* obs = nullptr;
  /// Background telemetry poller. Nonzero starts one poller thread that
  /// every `telemetry_poll_us` microseconds pulls the cluster-wide
  /// cumulative snapshot — this process's Obs plus one kObs exchange per
  /// wire backend (interleaving with drains on the same connection) — and
  /// diffs it into the rotating window set behind obs_windows(). 0 (the
  /// default) starts no thread; poll_telemetry() can still be called
  /// manually.
  std::uint64_t telemetry_poll_us = 0;
  /// Window count + width of the view the poller maintains (see
  /// obs::WindowedObsConfig; default 6 × 10 s).
  obs::WindowedObsConfig telemetry_windows = {};
  /// Produces the backend hosting each shard's tops; called once per
  /// shard at construction with the shard index. Leave empty for the
  /// default InProcessBackend built from the options above.
  std::function<std::unique_ptr<ShardBackend>(std::size_t shard)>
      backend_factory;
};

class FusionCluster {
 public:
  /// A served request. Tickets are cluster-global and strictly increasing
  /// in submission order.
  struct Response {
    std::uint64_t ticket = 0;
    std::string top;
    std::string client;
    FusionResult result;
  };

  /// Outcome of one drain() round.
  struct DrainReport {
    /// Served requests in cluster-ticket order.
    std::vector<Response> responses;
    /// Requests put back (cluster queue or shard backend queue) because
    /// their shard failed to serve them this round.
    std::uint64_t requeued = 0;
    /// Top keys whose shard reported a failure this round (deduplicated,
    /// sorted).
    std::vector<std::string> failed_tops;
  };

  /// Aggregate of the cluster's own counters and every top's backend
  /// Stats (cache counters summed across tops).
  struct Stats {
    std::uint64_t requests_submitted = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t requests_requeued = 0;
    std::uint64_t drains = 0;
    std::uint64_t drain_failures = 0;
    std::uint64_t shard_batches_served = 0;
    /// Speculative cover prefetches launched / consumed / abandoned,
    /// summed over every top's backend (see GenerateStats).
    std::uint64_t speculative_covers_launched = 0;
    std::uint64_t speculation_hits = 0;
    std::uint64_t speculation_wasted_closures = 0;
    /// Worker restarts across every top's backend (processes respawned,
    /// connections re-established); 0 for in-process shards.
    std::uint64_t restarts = 0;
    /// Replica failovers across every shard's backend (the serving
    /// endpoint moved to a different replica); 0 outside replica sets.
    std::uint64_t failovers = 0;
    /// Failed health probes, summed over shards (each shard reports the
    /// failures of *its* replica endpoints). Exact when shards have
    /// disjoint replica sets; when several shards watch the same
    /// endpoints (a shared seed list, as in bench/fusion_service), one
    /// real failed probe counts once per shard watching that endpoint —
    /// the aggregate is a flap *indicator* (0 means healthy everywhere),
    /// not a deduplicated probe count. 0 without a HealthMonitor.
    std::uint64_t health_probes_failed = 0;
    std::size_t shards = 0;
    std::size_t tops = 0;
    std::size_t pending = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_cold_misses = 0;
    std::uint64_t cache_eviction_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::size_t cache_entries = 0;
    std::size_t cache_bytes = 0;
    /// Inserts rejected by the kLfuAdmit frequency gate, and the resident
    /// footprint of the admission sketches; 0 under every other policy.
    std::uint64_t cache_admission_rejects = 0;
    std::size_t cache_sketch_bytes = 0;
  };

  explicit FusionCluster(FusionClusterOptions options = {});

  /// Stops the telemetry poller (worker processes are reaped by the
  /// backends' own destructors; call shutdown() for an orderly stop).
  ~FusionCluster();

  /// Registers `top` under `key` on the backend of shard `shard_of(key)`.
  /// The key must be new. Thread-safe.
  void add_top(const std::string& key, Dfsm top);

  [[nodiscard]] bool has_top(const std::string& key) const;
  [[nodiscard]] std::size_t top_count() const;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Consistent shard assignment: FNV-1a(key) % shard_count(), stable
  /// across runs, platforms and registration order.
  [[nodiscard]] std::size_t shard_of(const std::string& key) const noexcept;

  /// The backend hosting `key` (must be registered).
  [[nodiscard]] const ShardBackend& backend(const std::string& key) const;

  /// The concrete FusionService hosting `key` — only valid when the
  /// shard's backend is the in-process one (the default); throws
  /// ContractViolation otherwise. Backend-agnostic callers should use
  /// top_stats() instead.
  [[nodiscard]] const FusionService& service(const std::string& key) const;

  /// Serving counters of `key`'s top, whichever backend hosts it.
  [[nodiscard]] ServiceStats top_stats(const std::string& key) const;

  /// Queues a request for the given top; thread-safe. Only registration of
  /// the top is checked here — request contents are validated by the
  /// serving shard at drain time (see the failure model above). Returns
  /// the cluster ticket identifying the response.
  std::uint64_t submit(const std::string& top_key, std::string client,
                       FusionRequest request);

  /// Queued-but-unserved requests, cluster queues plus shard backend
  /// backlogs; thread-safe.
  [[nodiscard]] std::size_t pending() const;

  /// Serves every queued request, fanning shards out across the pool.
  /// Requests from a failed shard drain are re-queued and retried on the
  /// next call; see DrainReport. Concurrent drains are serialized.
  DrainReport drain();

  /// Drops every unserved request for `top_key` — cluster-queued requests
  /// and any backlog a failed drain left queued inside the shard's
  /// backend — returning how many were discarded. The escape hatch for a
  /// backlog the shard keeps failing on. Serialized with drain().
  std::size_t discard_pending(const std::string& top_key);

  /// Shuts every shard backend down (terminates worker processes).
  /// Serialized with drain(); queued requests stay queued caller-side.
  void shutdown();

  [[nodiscard]] Stats stats() const;

  /// The cluster's observability context — never null (the one supplied
  /// in FusionClusterOptions::obs, else the private one the cluster
  /// owns). Hand it to BackendConfig::obs so wire backends share it.
  [[nodiscard]] obs::Obs& obs() const noexcept { return *obs_; }

  /// The cluster-wide observability view: this process's counters,
  /// histograms and trace spans merged with every shard backend's
  /// snapshot. Out-of-process backends answer a kObs query over the wire;
  /// their spans arrive tagged with source "shard<i>" so one Chrome trace
  /// shows parent drains and worker generation side by side. A dead or
  /// pre-obs (hello < v4) worker contributes an empty snapshot.
  [[nodiscard]] obs::ObsSnapshot obs_snapshot();

  /// One telemetry poll round, synchronously: ingest obs_snapshot()'s
  /// constituents (this process as "parent", each wire backend as
  /// "shard<i>") into the windowed view. The poller thread calls this on
  /// its schedule; tests and pollerless setups call it directly.
  void poll_telemetry();

  /// A copy of the rotating windowed-telemetry view poll_telemetry()
  /// maintains — per-window activity deltas over the last
  /// telemetry_windows horizon. This is the serve-cost feed a placement /
  /// rebalancing loop consumes ("requests per top over the last minute"),
  /// as opposed to obs_snapshot()'s since-birth cumulatives. Empty until
  /// the first poll.
  [[nodiscard]] obs::WindowedObs obs_windows() const;

 private:
  struct Item {
    std::uint64_t ticket;
    std::string top;
    std::string client;
    FusionRequest request;
    /// Obs timestamp at submit (0 when instrumentation is disabled);
    /// feeds the cluster.queue_wait histogram when the item is handed to
    /// its backend.
    std::uint64_t enqueued_us = 0;
  };

  struct TopEntry {
    /// Backend ticket -> cluster ticket for requests the backend has
    /// accepted but not yet served (survives failed drains). Touched only
    /// by the serialized drain path, one worker per shard.
    std::unordered_map<std::uint64_t, std::uint64_t> inflight;
  };

  struct Shard {
    mutable std::mutex mutex;  // guards tops (topology) and queue
    std::unique_ptr<ShardBackend> backend;
    std::unordered_map<std::string, TopEntry> tops;
    std::vector<Item> queue;
  };

  /// Serves one shard: feed its queue into the backend's per-top queues,
  /// drain each top with a backlog, map backend tickets back to cluster
  /// tickets. Failures are captured in the out-params, never thrown.
  /// `parent_span` is the enclosing cluster.drain span id; the per-top
  /// cluster.serve_top spans parent under it.
  void serve_shard(Shard& shard, std::uint64_t parent_span,
                   std::vector<Response>& responses,
                   std::uint64_t& requeued,
                   std::vector<std::string>& failed_tops);

  /// Telemetry poller thread body: poll_telemetry() every
  /// telemetry_poll_us until stop_poller().
  void poller_loop();

  /// Stops and joins the poller thread; idempotent.
  void stop_poller();

  FusionClusterOptions options_;
  /// Backing storage for obs_ when FusionClusterOptions::obs was null.
  std::unique_ptr<obs::Obs> owned_obs_;
  obs::Obs* obs_ = nullptr;  // never null after construction
  std::vector<Shard> shards_;
  std::mutex drain_mutex_;  // serializes drain() rounds
  std::atomic<std::uint64_t> next_ticket_{1};
  std::atomic<std::uint64_t> requests_submitted_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> requests_requeued_{0};
  std::atomic<std::uint64_t> drains_{0};
  std::atomic<std::uint64_t> drain_failures_{0};
  /// Windowed telemetry view (internally synchronized — the poller writes
  /// while obs_windows() copies).
  obs::WindowedObs windows_;
  std::mutex poller_mutex_;  // guards poller_stop_
  std::condition_variable poller_cv_;
  bool poller_stop_ = false;
  std::thread poller_;
};

}  // namespace ffsm
