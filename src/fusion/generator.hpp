// Algorithm 2 (paper section 5.1): generate the minimum set of backup
// machines tolerating f crash faults (equivalently floor(f/2) Byzantine
// faults, Theorem 2).
//
// Outer loop: while dmin(A ∪ F) <= f, find one more fusion machine and add
// it — each addition raises dmin by exactly 1, so exactly
// f + 1 - dmin(A) machines are produced.
//
// Inner loop (lattice descent): start from the top (identity partition,
// which separates everything) and repeatedly move to a lower-cover element
// that still covers every *weakest edge* of the current fault graph
// G(A ∪ F); stop when no such element exists. The weakest-edge set is fixed
// for the whole descent (it only changes when F changes — paper Lemma 1), so
// it is computed once per outer iteration.
//
// The paper's line 6 is nondeterministic ("∃ F ∈ C"); DescentPolicy selects
// which viable candidate to follow, which affects the size (not the
// validity or count) of the generated machines — see
// bench_ablation_policy.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_graph.hpp"
#include "fsm/dfsm.hpp"
#include "fsm/product.hpp"
#include "partition/lower_cover.hpp"
#include "partition/partition.hpp"

namespace ffsm {

enum class DescentPolicy {
  /// Follow the first viable lower-cover element (the paper's literal
  /// reading; order is the enumeration order of lower_cover).
  kFirstFound,
  /// Follow the viable element with the fewest blocks — descends toward the
  /// smallest machines fastest (library default).
  kFewestBlocks,
  /// Follow the viable element with the most blocks — most conservative
  /// descent.
  kMostBlocks,
};

/// Tuning for the speculative descent engine (used when parallel &&
/// incremental — see GenerateOptions).
struct SpeculationOptions {
  /// Number of ranked viable candidates whose next-level lower covers are
  /// prefetched per descent step: the committed branch plus lookahead-1
  /// runners-up. The committed branch's prefetch is always consumed (a
  /// hit); runner-up covers land in the shared cache where reconverging
  /// descents and later batch requests reuse them. 0 disables prefetching
  /// (the engine still pipelines graph maintenance).
  std::uint32_t lookahead = 2;
};

struct GenerateOptions {
  /// Crash faults to tolerate (use 2*f here to tolerate f Byzantine faults).
  std::uint32_t f = 1;
  DescentPolicy policy = DescentPolicy::kFewestBlocks;
  /// Run the speculative engine (with `incremental`), which fans the
  /// pruned lower_cover out across the thread pool. false runs the serial
  /// skeleton with the classic evaluator (lower_cover_classic): the oracle
  /// the speculative engine is checked against, same results.
  bool parallel = true;
  ThreadPool* pool = nullptr;
  /// Incremental engine (default): maintain the fault graph / weakest-edge
  /// set by delta updates as fusion machines are added (paper Lemma 1) and
  /// memoize lower covers across outer iterations. When false, every outer
  /// iteration rebuilds the fault graph from scratch and recomputes every
  /// closure — the ablation baseline (bench_ablation_incremental), which
  /// like parallel = false runs the serial skeleton with the classic
  /// evaluator. Both modes return bit-identical results.
  bool incremental = true;
  /// Optional lower-cover memo shared across calls; must be dedicated to
  /// `top`. nullptr = a private per-call cache. Ignored entirely when
  /// incremental is false (the ablation baseline memoizes nothing).
  LowerCoverCache* cache = nullptr;
  /// Eviction policy + capacity for the private per-call cache when
  /// `cache == nullptr`. A bounded cache never changes results: an evicted
  /// cover is recomputed on the next miss (a descent keeps the cover it is
  /// currently scanning alive via shared_ptr), so outputs are bit-identical
  /// at any capacity — only the recompute count varies.
  LowerCoverCacheConfig cache_config = {};
  /// Speculative-descent tuning. Only consulted by the speculative engine
  /// (parallel && incremental); the serial and ablation paths never
  /// speculate. Speculation cannot change results — only which thread
  /// computes a cover, and what lands in the cache early.
  SpeculationOptions speculation = {};
  /// Optional observability context (nullptr = uninstrumented), forwarded
  /// into every lower-cover call (see LowerCoverOptions::obs). The
  /// generator itself adds `gen.speculation_join` (time the descent spends
  /// waiting on a speculative prefetch it decided to consume). Never
  /// affects results.
  obs::Obs* obs = nullptr;
};

struct GenerateStats {
  /// Outer-loop iterations == number of fusion machines produced.
  std::uint32_t machines_added = 0;
  /// Total lattice-descent steps across all outer iterations.
  std::uint32_t descent_steps = 0;
  /// Total lower-cover candidate partitions examined.
  std::uint64_t candidates_examined = 0;
  /// Block-pair merge closures considered by lower covers that were
  /// computed rather than served from the memo: C(B,2) per cover of a
  /// B-block partition, pairs the fused evaluator prunes before finishing
  /// included (the `gen.closures_pruned` obs counter counts those). The
  /// incremental engine's saving shows up as candidates_examined >>
  /// closures_evaluated.
  std::uint64_t closures_evaluated = 0;
  /// Lower-cover calls served entirely from the memo.
  std::uint64_t cover_cache_hits = 0;
  /// Fault-graph edge slots examined (build + per-iteration maintenance).
  std::uint64_t graph_edges_examined = 0;
  /// Speculative cover prefetches launched (speculative engine only).
  std::uint64_t speculative_covers_launched = 0;
  /// Prefetches the descent actually consumed — the committed branch's
  /// cover was hot (or already being computed) when the descent arrived.
  std::uint64_t speculation_hits = 0;
  /// Closures computed by prefetches that were abandoned unconsumed. Not
  /// counted in closures_evaluated (which tracks the descent chain's own
  /// work); not pure waste either — abandoned covers stay in the cache.
  std::uint64_t speculation_wasted_closures = 0;
  std::uint32_t dmin_before = 0;
  std::uint32_t dmin_after = 0;
};

struct FusionResult {
  /// Generated fusion machines as closed partitions of the top, in
  /// generation order.
  std::vector<Partition> partitions;
  GenerateStats stats;
};

/// Runs Algorithm 2 on originals expressed as closed partitions of `top`.
/// Postcondition: dmin(originals ∪ result) > f, and result.partitions.size()
/// == minimum_fusion_size(f, dmin(originals)).
[[nodiscard]] FusionResult generate_fusion(
    const Dfsm& top, std::span<const Partition> originals,
    const GenerateOptions& options = {});

/// Convenience wrapper over a cross product: derives the originals'
/// partitions from the component assignments, runs Algorithm 2, and builds
/// the backup DFSMs as quotients of the top (named "F1", "F2", ...).
struct GeneratedBackups {
  std::vector<Partition> partitions;
  std::vector<Dfsm> machines;
  GenerateStats stats;
};

[[nodiscard]] GeneratedBackups generate_backup_machines(
    const CrossProduct& product, const GenerateOptions& options = {});

// ---------------------------------------------------------------- batching
//
// Many clients asking for backups of machines over the *same* top (the
// expensive reachable cross product) share almost all of the work: every
// lattice descent starts at the identity partition of that top, so the
// lower covers along the shared prefix of the descents — by far the hot
// path — can be computed once and memoized. generate_fusion_batch runs many
// (originals, f, policy) requests against one top, fanning requests across
// the thread pool and sharing one closure cache. Results are bit-identical
// to per-request generate_fusion calls at any thread count.

/// One client request against the shared top machine.
struct FusionRequest {
  /// Originals as closed partitions of the shared top.
  std::vector<Partition> originals;
  /// Crash faults to tolerate for this client.
  std::uint32_t f = 1;
  DescentPolicy policy = DescentPolicy::kFewestBlocks;
};

struct BatchOptions {
  /// Fan requests across the pool (inner loops fan out to idle workers).
  bool parallel = true;
  ThreadPool* pool = nullptr;
  /// Incremental per-request engine (see GenerateOptions::incremental).
  bool incremental = true;
  /// Closure memo shared by all requests; nullptr = a per-batch cache.
  /// Passing a persistent cache amortizes work across successive batches
  /// (see sim::FusionService).
  LowerCoverCache* cache = nullptr;
  /// Bound + eviction policy for the per-batch cache when `cache ==
  /// nullptr` (see GenerateOptions::cache_config; results never depend on
  /// capacity).
  LowerCoverCacheConfig cache_config = {};
  /// Per-request speculative-descent tuning (see
  /// GenerateOptions::speculation).
  SpeculationOptions speculation = {};
  /// Optional observability context (nullptr = uninstrumented): every
  /// request runs under a `gen.request` span tagged with `obs_top`, and
  /// obs flows down into the per-request generator + lower-cover calls.
  obs::Obs* obs = nullptr;
  /// Top tag stamped on this batch's `gen.request` spans (typically the
  /// serving key, e.g. "sensors/0"); empty = untagged.
  std::string obs_top;
  /// Parent span id stamped on this batch's `gen.request` spans; 0 = no
  /// parent. Set by serving layers that know which span caused the batch —
  /// locally the enclosing drain, or across a process boundary the
  /// parent-side cluster.serve_top id carried in the serve frame — so the
  /// merged trace nests generation under the originating drain.
  std::uint64_t obs_parent = 0;
};

/// Runs Algorithm 2 for every request against `top`. results[i] corresponds
/// to requests[i].
[[nodiscard]] std::vector<FusionResult> generate_fusion_batch(
    const Dfsm& top, std::span<const FusionRequest> requests,
    const BatchOptions& options = {});

}  // namespace ffsm
