#include "fusion/generator.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <unordered_map>
#include <utility>

#include "partition/quotient.hpp"
#include "util/contracts.hpp"

namespace ffsm {

namespace {

/// True iff `p` separates both endpoints of every listed edge.
bool covers_all(const Partition& p,
                std::span<const std::pair<std::uint32_t, std::uint32_t>>
                    edges) {
  for (const auto& [i, j] : edges)
    if (!p.separates(i, j)) return false;
  return true;
}

/// Applies the descent policy to the viable candidates; `viable` is
/// non-empty.
std::size_t pick(const std::vector<const Partition*>& viable,
                 DescentPolicy policy) {
  switch (policy) {
    case DescentPolicy::kFirstFound:
      return 0;
    case DescentPolicy::kFewestBlocks: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < viable.size(); ++i)
        if (viable[i]->block_count() < viable[best]->block_count()) best = i;
      return best;
    }
    case DescentPolicy::kMostBlocks: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < viable.size(); ++i)
        if (viable[i]->block_count() > viable[best]->block_count()) best = i;
      return best;
    }
  }
  FFSM_ASSERT(false);
  return 0;
}

/// Full policy ranking of the viable candidates (stable, so ranked[0] ==
/// pick(viable, policy) — the stable sort keeps the earliest of equally
/// good candidates first, exactly pick()'s strict-improvement rule). The
/// speculative engine prefetches the top of this order.
std::vector<std::size_t> rank_viable(
    const std::vector<const Partition*>& viable, DescentPolicy policy) {
  std::vector<std::size_t> order(viable.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  switch (policy) {
    case DescentPolicy::kFirstFound:
      break;
    case DescentPolicy::kFewestBlocks:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return viable[a]->block_count() <
                                viable[b]->block_count();
                       });
      break;
    case DescentPolicy::kMostBlocks:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return viable[a]->block_count() >
                                viable[b]->block_count();
                       });
      break;
  }
  return order;
}

/// lower_cover_classic in lower_cover_cached's evaluator shape: the
/// non-speculative skeleton's evaluator, so that it stays an oracle
/// independent of the pruned evaluator the speculative engine runs.
std::vector<Partition> classic_cover(const Dfsm& top, const Partition& p,
                                     const LowerCoverOptions& /*unused*/) {
  return lower_cover_classic(top, p);
}

/// In-flight speculative lower-cover prefetches, keyed by the partition
/// descended from. Single-consumer: launch/consume/abandon_all run on the
/// descent thread only; each prefetch task writes its own slot (read by
/// the descent strictly after join) and the thread-safe cache.
///
/// Accounting preserves the serial engine's invariants: a consumed
/// prefetch counts exactly what the inline lookup it replaced would have
/// counted (a cover_cache_hit, or closures_evaluated for a computed
/// cover, and the cache's own hit or miss) plus one speculation_hit;
/// abandoned prefetches count only speculation_wasted_closures. A
/// warm-cache run therefore still reports closures_evaluated == 0.
class SpeculationEngine {
 public:
  using Cover = LowerCoverCache::Cover;

  SpeculationEngine(const Dfsm& top, const LowerCoverOptions& cover_options,
                    ThreadPool& pool, GenerateStats& stats)
      : top_(top), cover_options_(cover_options), pool_(pool), stats_(stats) {}

  ~SpeculationEngine() { abandon_all(); }

  SpeculationEngine(const SpeculationEngine&) = delete;
  SpeculationEngine& operator=(const SpeculationEngine&) = delete;

  /// Starts a prefetch of p's lower cover unless one is already in flight
  /// (or p is the bottom partition, whose cover is empty).
  void launch(const Partition& p) {
    if (p.block_count() <= 1) return;
    if (inflight_.contains(p)) return;
    auto slot = std::make_unique<Prefetch>();
    Prefetch* const raw = slot.get();
    const auto [it, inserted] = inflight_.emplace(p, std::move(slot));
    FFSM_ASSERT(inserted);
    // The task reads the map node's key; nodes are address-stable and the
    // entry is only erased after the task finished (consume/abandon join
    // first).
    const Partition* const key = &it->first;
    raw->task = pool_.submit(
        [this, raw, key] {
          raw->closures =
              prefetch_lower_cover(top_, *key, cover_options_, raw->token,
                                   &raw->cover, &raw->from_cache);
        },
        raw->token);
    ++stats_.speculative_covers_launched;
  }

  /// The lower cover of p: joins p's in-flight prefetch when there is one
  /// (claiming it inline if no worker got to it — progress never depends
  /// on pool capacity), otherwise looks it up / computes it inline.
  /// `from_cache` reports whether the cover was served from the cache.
  std::shared_ptr<const Cover> consume(const Partition& p, bool& from_cache) {
    const auto it = inflight_.find(p);
    if (it != inflight_.end()) {
      Prefetch& slot = *it->second;
      // Time the join itself: how long the descent stalls on a prefetch it
      // decided to consume (0 when the worker already finished — the ideal).
      obs::Obs* const obs = cover_options_.obs;
      const bool timed = obs != nullptr && obs->enabled();
      const std::uint64_t join_start = timed ? obs->now_us() : 0;
      const bool finished = slot.task.join();
      if (timed)
        obs->record("gen.speculation_join", obs->now_us() - join_start);
      if (finished && slot.cover != nullptr) {
        ++stats_.speculation_hits;
        from_cache = slot.from_cache;
        if (from_cache)
          ++stats_.cover_cache_hits;
        else
          stats_.closures_evaluated += slot.closures;
        if (cover_options_.cache != nullptr)
          cover_options_.cache->count_lookup(p, from_cache);
        auto cover = std::move(slot.cover);
        inflight_.erase(it);
        return cover;
      }
      inflight_.erase(it);
    }
    const std::uint32_t blocks = p.block_count();
    auto cover = lower_cover_cached(top_, p, cover_options_, &from_cache);
    if (from_cache)
      ++stats_.cover_cache_hits;
    else
      stats_.closures_evaluated +=
          static_cast<std::uint64_t>(blocks) * (blocks - 1) / 2;
    return cover;
  }

  /// Cancels and retires every unconsumed prefetch. Tasks not yet started
  /// are retired unrun; tasks that already completed have their computed
  /// closures booked as speculation waste (their covers stay cached).
  void abandon_all() {
    for (auto& [key, slot] : inflight_) {
      slot->task.cancel();
      if (slot->task.join())
        stats_.speculation_wasted_closures += slot->closures;
    }
    inflight_.clear();
  }

 private:
  struct Prefetch {
    TaskHandle task;
    CancellationToken token;
    // Written by the task body, read by the descent after join only.
    std::shared_ptr<const Cover> cover;
    std::uint64_t closures = 0;
    bool from_cache = false;
  };

  const Dfsm& top_;
  const LowerCoverOptions& cover_options_;
  ThreadPool& pool_;
  GenerateStats& stats_;
  std::unordered_map<Partition, std::unique_ptr<Prefetch>, PartitionHash>
      inflight_;
};

/// The speculative, pipelined engine behind generate_fusion when parallel
/// && incremental. Three overlap axes on top of the serial skeleton, none
/// of which can change results:
///  1. per-step prefetch of the top-ranked viable candidates' next-level
///     covers (SpeculationEngine);
///  2. FaultGraph::add_machine + the weakest-edge rescan run as a pool
///     task, overlapped with warming the next iteration's descent entry;
///  3. a predicted first descent step for the next iteration, filtered
///     against the *previous* weakest-edge set — a subset of the next one
///     (every new-machine-separated edge moves up one weight class
///     together), so the prediction is a sound over-approximation of
///     viability: often right, and merely a cached extra cover when wrong.
FusionResult generate_fusion_speculative(const Dfsm& top,
                                         std::span<const Partition> originals,
                                         const GenerateOptions& options) {
  const std::uint32_t n = top.size();
  for (const Partition& p : originals) FFSM_EXPECTS(p.size() == n);

  FusionResult result;
  const FaultGraphOptions graph_options{.pool = options.pool,
                                        .parallel = true};
  FaultGraph graph = FaultGraph::build(n, originals, graph_options);
  result.stats.dmin_before = graph.dmin();

  LowerCoverCache local_cache(options.cache_config);
  LowerCoverCache* const cache =
      options.cache != nullptr ? options.cache : &local_cache;

  LowerCoverOptions cover_options;
  cover_options.pool = options.pool;
  cover_options.parallel = true;
  cover_options.cache = cache;
  cover_options.obs = options.obs;

  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::global();
  SpeculationEngine spec(top, cover_options, pool, result.stats);
  const std::uint32_t lookahead = options.speculation.lookahead;

  const Partition identity = Partition::identity(n);
  TaskHandle maintenance;  // previous iteration's pipelined add_machine
  // The maintenance task captures references to `graph` and the partition
  // just appended to `result` — both function-locals. If an exception
  // unwinds out of the loop while it is in flight (e.g. bad_alloc from a
  // consume), it must be joined before those locals die.
  struct JoinOnExit {
    TaskHandle* handle;
    ~JoinOnExit() {
      if (handle->valid()) (void)handle->join();
    }
  } join_maintenance{&maintenance};

  std::uint32_t expected_dmin = 0;  // after the in-flight maintenance
  while (true) {
    // The pipelined maintenance task must land before any graph read.
    if (maintenance.valid()) {
      maintenance.join();
      maintenance = TaskHandle{};
      FFSM_ASSERT(graph.dmin() == expected_dmin);
    }
    if (graph.dmin() == FaultGraph::kInfinity || graph.dmin() > options.f)
      break;

    const auto& weakest = graph.weakest_edges();
    FFSM_ASSERT(!weakest.empty());

    Partition current = identity;
    std::shared_ptr<const SpeculationEngine::Cover> identity_cover;
    std::uint32_t identity_prefetches = 0;
    while (true) {
      bool from_cache = false;
      auto cover = spec.consume(current, from_cache);
      // Runners-up are speculated on only off a cover this descent
      // computed: a cached cover was computed by an earlier descent, which
      // already speculated on the same runners-up.
      const std::uint32_t prefetches =
          from_cache ? std::min<std::uint32_t>(lookahead, 1) : lookahead;
      if (identity_cover == nullptr) {
        identity_cover = cover;
        identity_prefetches = prefetches;
      }
      result.stats.candidates_examined += cover->size();
      std::vector<const Partition*> viable;
      for (const Partition& c : *cover)
        if (covers_all(c, weakest)) viable.push_back(&c);
      if (viable.empty()) break;
      const std::vector<std::size_t> ranked =
          rank_viable(viable, options.policy);
      // Prefetch the committed branch's next level (always consumed on the
      // next loop turn) and the best runners-up (cache fodder for
      // reconverging descents).
      for (std::size_t r = 0; r < ranked.size() && r < prefetches; ++r)
        spec.launch(*viable[ranked[r]]);
      current = *viable[ranked[0]];
      ++result.stats.descent_steps;
    }

    result.partitions.push_back(std::move(current));
    ++result.stats.machines_added;
    const Partition& added = result.partitions.back();

    // Copy the weakest set before the maintenance task invalidates the
    // graph's memo; the prediction below filters against it. `added`
    // separates every weakest edge and no edge gains more than one, so
    // dmin grows by exactly one.
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> old_weakest =
        weakest;
    expected_dmin = graph.dmin() + 1;
    maintenance = pool.submit([&graph, &added] {
      graph.add_machine(added);
      // Finish every mutable write (delta + lazy rescan) inside the task;
      // after join the loop top's reads are write-free.
      graph.prepare_weakest_edges();
    });

    // Overlap with the maintenance task: warm the next iteration's descent
    // entry, and predict its first step against the old weakest set —
    // unless that iteration will not run.
    if (lookahead > 0 && expected_dmin <= options.f) {
      spec.launch(identity);
      if (identity_cover != nullptr) {
        std::vector<const Partition*> viable;
        for (const Partition& c : *identity_cover)
          if (covers_all(c, old_weakest)) viable.push_back(&c);
        if (!viable.empty()) {
          const std::vector<std::size_t> ranked =
              rank_viable(viable, options.policy);
          const std::size_t predicted =
              std::min<std::size_t>(ranked.size(), identity_prefetches);
          for (std::size_t r = 0; r < predicted; ++r)
            spec.launch(*viable[ranked[r]]);
        }
      }
    }
  }

  spec.abandon_all();
  result.stats.graph_edges_examined += graph.edges_examined();
  result.stats.dmin_after = graph.dmin();
  FFSM_ENSURES(result.stats.dmin_after == FaultGraph::kInfinity ||
               result.stats.dmin_after > options.f);
  return result;
}

}  // namespace

FusionResult generate_fusion(const Dfsm& top,
                             std::span<const Partition> originals,
                             const GenerateOptions& options) {
  // The speculative engine needs both a pool to speculate on and the
  // incremental invariants (stable cache, delta-maintained graph). The
  // serial path and the recompute-everything ablation keep the reference
  // skeleton below, which evaluates covers with the serial classic
  // evaluator: it is the oracle the speculative engine is checked against.
  if (options.parallel && options.incremental)
    return generate_fusion_speculative(top, originals, options);

  const std::uint32_t n = top.size();
  for (const Partition& p : originals) FFSM_EXPECTS(p.size() == n);

  FusionResult result;
  const FaultGraphOptions graph_options{.pool = options.pool,
                                        .parallel = options.parallel};
  FaultGraph graph = FaultGraph::build(n, originals, graph_options);
  result.stats.dmin_before = graph.dmin();

  // The memo turns the shared prefix of all descents (every descent starts
  // at the identity partition) into lookups; a caller-provided cache extends
  // the sharing across requests (generate_fusion_batch). incremental=false
  // is the recompute-everything ablation baseline, so it ignores any
  // supplied cache too.
  LowerCoverCache local_cache(options.cache_config);
  LowerCoverCache* cache =
      !options.incremental
          ? nullptr
          : (options.cache != nullptr ? options.cache : &local_cache);

  LowerCoverOptions cover_options;
  cover_options.cache = cache;
  cover_options.obs = options.obs;

  // Outer loop: one fusion machine per iteration until dmin exceeds f.
  // dmin == kInfinity (single-state top) tolerates everything already.
  while (true) {
    if (!options.incremental && result.stats.machines_added > 0) {
      // Ablation baseline: rebuild G(A ∪ F) from every machine instead of
      // taking the O(E) delta update add_machine already applied.
      result.stats.graph_edges_examined += graph.edges_examined();
      std::vector<Partition> all(originals.begin(), originals.end());
      all.insert(all.end(), result.partitions.begin(),
                 result.partitions.end());
      graph = FaultGraph::build(n, all, graph_options);
    }
    if (graph.dmin() == FaultGraph::kInfinity || graph.dmin() > options.f)
      break;

    // Weakest edges are fixed for the whole descent (Lemma 1): the candidate
    // machine increases dmin iff it separates every one of them. One memoized
    // O(E) derivation per outer iteration — versus a full graph rebuild plus
    // scan on the non-incremental path.
    const auto& weakest = graph.weakest_edges();
    FFSM_ASSERT(!weakest.empty());

    // Descend from the top of the lattice (identity partition separates all
    // pairs, hence always covers the weakest edges — Theorem 4's existence
    // argument).
    Partition current = Partition::identity(n);
    while (true) {
      const std::uint32_t blocks = current.block_count();
      bool from_cache = false;
      const auto cover = lower_cover_cached(top, current, cover_options,
                                            &from_cache, classic_cover);
      result.stats.candidates_examined += cover->size();
      if (from_cache)
        ++result.stats.cover_cache_hits;
      else
        result.stats.closures_evaluated +=
            static_cast<std::uint64_t>(blocks) * (blocks - 1) / 2;
      std::vector<const Partition*> viable;
      for (const Partition& c : *cover)
        if (covers_all(c, weakest)) viable.push_back(&c);
      if (viable.empty()) break;
      current = *viable[pick(viable, options.policy)];
      ++result.stats.descent_steps;
    }

    // The ablation baseline skips the delta update — its loop-top rebuild
    // recomputes the graph (and dmin) from scratch instead.
    if (options.incremental) graph.add_machine(current);
    result.partitions.push_back(std::move(current));
    ++result.stats.machines_added;
  }

  result.stats.graph_edges_examined += graph.edges_examined();
  result.stats.dmin_after = graph.dmin();
  FFSM_ENSURES(result.stats.dmin_after == FaultGraph::kInfinity ||
               result.stats.dmin_after > options.f);
  return result;
}

std::vector<FusionResult> generate_fusion_batch(
    const Dfsm& top, std::span<const FusionRequest> requests,
    const BatchOptions& options) {
  std::vector<FusionResult> results(requests.size());
  if (requests.empty()) return results;

  LowerCoverCache local_cache(options.cache_config);
  LowerCoverCache* cache =
      options.cache != nullptr ? options.cache : &local_cache;

  LowerCoverOptions cover_options;
  cover_options.pool = options.pool;
  cover_options.parallel = options.parallel;
  cover_options.cache = cache;
  cover_options.obs = options.obs;

  // Amortize the shared top-machine work once, before fanning out: every
  // request's first descent step needs the identity partition's lower cover
  // — the single most expensive cover (B = N blocks) — so computing it here
  // keeps the workers from duplicating it while the cache is still cold.
  // Pointless when incremental=false: the per-request runs ignore the cache.
  if (options.incremental && requests.size() > 1) {
    const auto identity_cover = lower_cover_cached(
        top, Partition::identity(top.size()), cover_options);
    // One level deeper: every descent's second step starts from some child
    // of identity, and the policies concentrate on their top-ranked child,
    // so prewarm that one per distinct policy in the batch. A heuristic
    // (each request's weakest-edge filter may rank differently), but a
    // wrong guess is just an extra cached cover.
    std::vector<DescentPolicy> policies;
    for (const FusionRequest& request : requests)
      if (std::find(policies.begin(), policies.end(), request.policy) ==
          policies.end())
        policies.push_back(request.policy);
    std::vector<const Partition*> children;
    children.reserve(identity_cover->size());
    for (const Partition& c : *identity_cover) children.push_back(&c);
    for (const DescentPolicy policy : policies)
      if (!children.empty())
        (void)lower_cover_cached(top, *children[pick(children, policy)],
                                 cover_options);
  }

  // Exceptions must not escape on a pool worker (that terminates the
  // process — see ThreadPool's exception policy); capture per request and
  // rethrow the first on the calling thread, so parallel and serial batches
  // fail identically and FusionService::drain can re-queue.
  std::vector<std::exception_ptr> errors(requests.size());
  const auto serve = [&](std::size_t i) {
    try {
      const obs::ScopedSpan span(
          options.obs, "gen.request",
          {.top = options.obs_top, .parent = options.obs_parent});
      GenerateOptions per_request;
      per_request.f = requests[i].f;
      per_request.policy = requests[i].policy;
      // Inner loops stay parallel-capable: their fan-outs run on whatever
      // pool workers are idle.
      per_request.parallel = options.parallel;
      per_request.pool = options.pool;
      per_request.incremental = options.incremental;
      per_request.cache = cache;
      per_request.speculation = options.speculation;
      per_request.obs = options.obs;
      results[i] = generate_fusion(top, requests[i].originals, per_request);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  if (options.parallel) {
    ParallelOptions popt;
    popt.pool = options.pool;
    popt.serial_threshold = 2;  // requests are coarse-grained
    parallel_for(0, requests.size(), serve, popt);
  } else {
    for (std::size_t i = 0; i < requests.size(); ++i) serve(i);
  }
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return results;
}

GeneratedBackups generate_backup_machines(const CrossProduct& product,
                                          const GenerateOptions& options) {
  std::vector<Partition> originals;
  originals.reserve(product.machine_count());
  for (std::uint32_t i = 0; i < product.machine_count(); ++i)
    originals.emplace_back(product.component_assignment(i));

  FusionResult fusion = generate_fusion(product.top, originals, options);

  GeneratedBackups backups;
  backups.stats = fusion.stats;
  backups.machines.reserve(fusion.partitions.size());
  for (std::size_t i = 0; i < fusion.partitions.size(); ++i)
    backups.machines.push_back(quotient_machine(
        product.top, fusion.partitions[i], "F" + std::to_string(i + 1)));
  backups.partitions = std::move(fusion.partitions);
  return backups;
}

}  // namespace ffsm
