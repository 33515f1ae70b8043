#include "partition/lower_cover.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <unordered_set>
#include <utility>

#include "partition/closure.hpp"
#include "util/contracts.hpp"

namespace ffsm {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

FrequencySketch::FrequencySketch(std::size_t capacity)
    : width_(next_pow2(std::max<std::size_t>(64, 8 * capacity))),
      // Classic TinyLFU ages once the sample holds ~10x the resident set's
      // worth of accesses; tying it to width keeps the period proportional
      // to the sketch's resolution.
      sample_size_(8 * width_),
      table_(new std::atomic<std::uint8_t>[kDepth * width_ / 2]) {
  for (std::size_t i = 0; i < kDepth * width_ / 2; ++i)
    table_[i].store(0, std::memory_order_relaxed);
}

std::size_t FrequencySketch::index(std::size_t hash,
                                   std::size_t row) const noexcept {
  // Per-row remix of the key hash (splitmix64-style finalizer over a
  // row-salted seed) so the four rows probe independent positions.
  std::uint64_t x = static_cast<std::uint64_t>(hash) +
                    (row + 1) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x) & (width_ - 1);
}

void FrequencySketch::increment(std::size_t hash) noexcept {
  for (std::size_t row = 0; row < kDepth; ++row) {
    const std::size_t idx = row * width_ + index(hash, row);
    std::atomic<std::uint8_t>& byte = table_[idx / 2];
    const std::uint8_t shift = (idx & 1) ? 4 : 0;
    // Load/store (not CAS): a concurrent increment may be lost, which only
    // under-counts — acceptable for an estimator, and race-free.
    const std::uint8_t v = byte.load(std::memory_order_relaxed);
    const std::uint8_t count = (v >> shift) & 0x0f;
    if (count < kMaxCount)
      byte.store(
          static_cast<std::uint8_t>(v + (std::uint8_t{1} << shift)),
          std::memory_order_relaxed);
  }
  if (increments_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      sample_size_) {
    // Concurrent agers can double-halve; benign for an estimator.
    increments_.store(0, std::memory_order_relaxed);
    age();
  }
}

std::uint32_t FrequencySketch::estimate(std::size_t hash) const noexcept {
  std::uint32_t best = kMaxCount;
  for (std::size_t row = 0; row < kDepth; ++row) {
    const std::size_t idx = row * width_ + index(hash, row);
    const std::uint8_t v = table_[idx / 2].load(std::memory_order_relaxed);
    const std::uint8_t shift = (idx & 1) ? 4 : 0;
    best = std::min<std::uint32_t>(best, (v >> shift) & 0x0f);
  }
  return best;
}

void FrequencySketch::age() noexcept {
  // Halve both packed nibbles of every byte at once: shift, then mask off
  // the bit each high nibble leaked into its low neighbour.
  for (std::size_t i = 0; i < kDepth * width_ / 2; ++i) {
    const std::uint8_t v = table_[i].load(std::memory_order_relaxed);
    table_[i].store(static_cast<std::uint8_t>((v >> 1) & 0x77),
                    std::memory_order_relaxed);
  }
}

LowerCoverCache::LowerCoverCache(Config config) : config_(config) {
  if (config_.policy != CacheEvictionPolicy::kUnbounded)
    FFSM_EXPECTS(config_.capacity >= 1);
  if (config_.policy == CacheEvictionPolicy::kLfuAdmit)
    sketch_ = std::make_unique<FrequencySketch>(config_.capacity);
}

std::size_t LowerCoverCache::entry_bytes(const Partition& key,
                                         const Cover& cover) {
  std::size_t bytes = sizeof(Entry) + sizeof(Partition) +
                      key.size() * sizeof(std::uint32_t);
  for (const Partition& p : cover)
    bytes += sizeof(Partition) + p.size() * sizeof(std::uint32_t);
  return bytes;
}

std::shared_ptr<const LowerCoverCache::Cover> LowerCoverCache::find(
    const Partition& p, Lookup lookup) const {
  const bool demand = lookup == Lookup::kDemand;
  {
    const std::shared_lock lock(mutex_);
    // Every lookup (hit or miss) feeds the admission sketch: frequency has
    // to accumulate while a key is still being rejected, or a hot-but-not-
    // yet-resident key could never earn its way in.
    if (sketch_) sketch_->increment(p.hash());
    const auto it = map_.find(p);
    if (it != map_.end()) {
      if (demand) hits_.fetch_add(1, std::memory_order_relaxed);
      // Recency bump, kLru/kLfuAdmit only: kEpoch/kUnbounded never read
      // last_used, and skipping the shared clock_ RMW keeps their hit path
      // free of cross-thread cache-line traffic. A relaxed store suffices —
      // eviction order only affects which entry gets recomputed later,
      // never results.
      if (config_.policy == CacheEvictionPolicy::kLru ||
          config_.policy == CacheEvictionPolicy::kLfuAdmit)
        it->second->last_used.store(
            clock_.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
      return it->second->cover;
    }
    if (demand) count_miss_locked(p);
  }
  return nullptr;
}

void LowerCoverCache::count_lookup(const Partition& p, bool hit) const {
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::shared_lock lock(mutex_);
  count_miss_locked(p);
}

void LowerCoverCache::count_miss_locked(const Partition& p) const {
  // A key evicted earlier re-missing is eviction pressure, not a cold
  // workload.
  if (evicted_hashes_.contains(p.hash()))
    eviction_misses_.fetch_add(1, std::memory_order_relaxed);
  else
    cold_misses_.fetch_add(1, std::memory_order_relaxed);
}

void LowerCoverCache::record_eviction_locked(const Partition& key) {
  // The tombstone set only feeds the eviction-miss counter, so it is
  // itself bounded: past ~16x capacity it resets, after which re-misses
  // on long-gone keys count as cold again (the counters are documented
  // approximate; the cache's memory bound is the hard guarantee).
  if (evicted_hashes_.size() >=
      std::max<std::size_t>(4096, 16 * config_.capacity))
    evicted_hashes_.clear();
  evicted_hashes_.insert(key.hash());
}

LowerCoverCache::Map::iterator LowerCoverCache::lru_victim_locked() {
  // O(capacity) victim scan, but only on a miss that already paid for
  // a full cover computation (orders of magnitude more work than the
  // scan); an intrusive LRU list is not worth the hit-path writes.
  auto victim = map_.begin();
  std::uint64_t oldest =
      victim->second->last_used.load(std::memory_order_relaxed);
  for (auto it = std::next(map_.begin()); it != map_.end(); ++it) {
    const std::uint64_t used =
        it->second->last_used.load(std::memory_order_relaxed);
    if (used < oldest) {
      oldest = used;
      victim = it;
    }
  }
  return victim;
}

void LowerCoverCache::evict_locked(Map::iterator victim) {
  record_eviction_locked(victim->first);
  bytes_.fetch_sub(victim->second->bytes, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  map_.erase(victim);
}

void LowerCoverCache::make_room_locked() {
  switch (config_.policy) {
    case CacheEvictionPolicy::kUnbounded:
      return;
    case CacheEvictionPolicy::kLru:
    case CacheEvictionPolicy::kLfuAdmit:
      // kLfuAdmit normally decides admission in insert() before reaching
      // here; this path still evicts LRU-style for import() replays and
      // any admitted insert.
      while (map_.size() >= config_.capacity)
        evict_locked(lru_victim_locked());
      return;
    case CacheEvictionPolicy::kEpoch:
      if (map_.size() >= config_.capacity) {
        for (const auto& [key, entry] : map_) {
          record_eviction_locked(key);
          bytes_.fetch_sub(entry->bytes, std::memory_order_relaxed);
        }
        evictions_.fetch_add(map_.size(), std::memory_order_relaxed);
        epochs_.fetch_add(1, std::memory_order_relaxed);
        map_.clear();
      }
      return;
  }
}

std::shared_ptr<const LowerCoverCache::Cover> LowerCoverCache::insert(
    const Partition& p, std::shared_ptr<const Cover> cover,
    const CancellationToken* gate) {
  const std::unique_lock lock(mutex_);
  // First writer wins so concurrent computations of the same cover agree on
  // one shared value (they are identical anyway — the computation is
  // deterministic). A resident key never triggers eviction.
  const auto it = map_.find(p);
  if (it != map_.end()) return it->second->cover;

  // The gate check must sit under the lock: a cancel() sequenced before a
  // clear() on the owner's thread is visible here once clear() released
  // the lock, making cancel-then-clear authoritative against stragglers.
  if (gate != nullptr && gate->cancelled()) return cover;

  // TinyLFU admission: at capacity, the candidate must be strictly
  // hotter (by sketch estimate) than the LRU victim it would displace;
  // otherwise the insert is rejected and the caller keeps its computed
  // cover — the hot set stays resident through a scan flood. Ties reject
  // (classic TinyLFU): once estimates saturate, admitting ties would
  // resume exactly the churn the gate exists to stop; periodic aging is
  // what lets a genuinely hotter newcomer eventually win. Rejection never
  // affects results, only what gets recomputed later.
  if (config_.policy == CacheEvictionPolicy::kLfuAdmit &&
      map_.size() >= config_.capacity) {
    const auto victim = lru_victim_locked();
    if (sketch_->estimate(p.hash()) <=
        sketch_->estimate(victim->first.hash())) {
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      return cover;
    }
    evict_locked(victim);
  }

  emplace_locked(p, std::move(cover));
  return map_.find(p)->second->cover;
}

void LowerCoverCache::emplace_locked(const Partition& key,
                                     std::shared_ptr<const Cover> cover) {
  make_room_locked();
  auto entry = std::make_shared<Entry>();
  entry->cover = std::move(cover);
  entry->bytes = entry_bytes(key, *entry->cover);
  entry->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  bytes_.fetch_add(entry->bytes, std::memory_order_relaxed);
  map_.emplace(key, std::move(entry));
}

std::size_t LowerCoverCache::size() const {
  const std::shared_lock lock(mutex_);
  return map_.size();
}

void LowerCoverCache::clear() {
  const std::unique_lock lock(mutex_);
  map_.clear();
  evicted_hashes_.clear();
  bytes_.store(0, std::memory_order_relaxed);
}

std::vector<WarmCacheEntry> LowerCoverCache::export_hot(std::size_t n) const {
  const std::shared_lock lock(mutex_);
  std::vector<std::pair<std::uint64_t, const Map::value_type*>> ranked;
  ranked.reserve(map_.size());
  for (const auto& kv : map_)
    ranked.emplace_back(kv.second->last_used.load(std::memory_order_relaxed),
                        &kv);
  // Hottest (most recently used) first; ties broken by key hash so the
  // snapshot does not depend on unordered_map iteration order.
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second->first.hash() > b.second->first.hash();
            });
  if (ranked.size() > n) ranked.resize(n);
  std::vector<WarmCacheEntry> out;
  out.reserve(ranked.size());
  for (const auto& [used, kv] : ranked)
    out.push_back({kv->first, *kv->second->cover});
  return out;
}

void LowerCoverCache::import(const std::vector<WarmCacheEntry>& entries) {
  const std::unique_lock lock(mutex_);
  // Replay coldest first so the exporter's hottest entries end up with the
  // youngest clocks (and survive longest if this cache must evict).
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (map_.contains(it->key)) continue;
    emplace_locked(it->key, std::make_shared<const Cover>(it->cover));
  }
}

std::shared_ptr<const LowerCoverCache::Cover> lower_cover_cached(
    const Dfsm& machine, const Partition& p, const LowerCoverOptions& options,
    bool* from_cache, CoverEvaluator evaluate) {
  obs::Obs* const obs = options.obs;
  const bool timed = obs != nullptr && obs->enabled();
  if (from_cache != nullptr) *from_cache = false;
  if (options.cache != nullptr) {
    const std::uint64_t find_start = timed ? obs->now_us() : 0;
    auto cached = options.cache->find(p);
    if (timed) obs->record("cache.get", obs->now_us() - find_start);
    if (cached) {
      if (from_cache != nullptr) *from_cache = true;
      return cached;
    }
  }
  std::shared_ptr<const LowerCoverCache::Cover> computed;
  {
    obs::ScopedSpan span(obs, "gen.lower_cover");
    computed = std::make_shared<const LowerCoverCache::Cover>(
        evaluate(machine, p, options));
  }
  if (options.cache != nullptr) {
    const std::uint64_t insert_start = timed ? obs->now_us() : 0;
    auto resident = options.cache->insert(p, std::move(computed));
    if (timed) obs->record("cache.insert", obs->now_us() - insert_start);
    return resident;
  }
  return computed;
}

namespace {

/// Every unordered pair of p's blocks, as a pair of block representatives
/// in lexicographic block order: the enumeration both evaluators walk, and
/// so the order their covers come out in. Empty for the bottom.
std::vector<std::pair<State, State>> block_pairs(const Dfsm& machine,
                                                 const Partition& p) {
  FFSM_EXPECTS(p.size() == machine.size());
  FFSM_EXPECTS(is_closed(machine, p));

  const std::uint32_t blocks = p.block_count();
  if (blocks <= 1) return {};
  std::vector<State> rep(blocks, kInvalidState);
  for (State s = 0; s < p.size(); ++s)
    if (rep[p.block_of(s)] == kInvalidState) rep[p.block_of(s)] = s;

  std::vector<std::pair<State, State>> pairs;
  pairs.reserve(static_cast<std::size_t>(blocks) * (blocks - 1) / 2);
  for (std::uint32_t i = 0; i < blocks; ++i)
    for (std::uint32_t j = i + 1; j < blocks; ++j)
      pairs.emplace_back(rep[i], rep[j]);
  return pairs;
}

/// The candidates that lie strictly below no other candidate, in their
/// given order; `candidates` must be distinct. The rows of the O(k^2) scan
/// are independent, so with `parallel` they fan out on `pool`.
std::vector<Partition> keep_maximal(std::vector<Partition> candidates,
                                    bool parallel, ThreadPool* pool) {
  const std::size_t k = candidates.size();
  std::vector<char> dominated(k, 0);
  const auto scan_row = [&](std::size_t i) {
    for (std::size_t j = 0; j < k; ++j)
      if (i != j && Partition::less(candidates[i], candidates[j])) {
        dominated[i] = 1;
        return;
      }
  };
  if (parallel) {
    ParallelOptions popt;
    popt.pool = pool;
    popt.serial_threshold = 16;
    parallel_for(0, k, scan_row, popt);
  } else {
    for (std::size_t i = 0; i < k; ++i) scan_row(i);
  }
  std::vector<Partition> result;
  for (std::size_t i = 0; i < k; ++i)
    if (!dominated[i]) result.push_back(std::move(candidates[i]));
  return result;
}

/// One MergeClosureEngine per chunk of pairs, which prunes as it goes. A
/// closure completes iff the earliest block pair it unites is its own
/// pair, so the completed closures are pairwise distinct, each at its
/// value's first occurrence; a pruned pair's closure repeats or lies
/// strictly below an earlier pair's (see MergeClosureEngine::run). The
/// chunks' survivors in index order are thus lower_cover_classic's
/// deduplicated list minus some candidates that are not maximal, and the
/// cover after the maximality filter is bit-identical to the classic one
/// at any thread count.
std::vector<Partition> fused_candidates(
    const Dfsm& machine, const Partition& p,
    const std::vector<std::pair<State, State>>& pairs,
    const LowerCoverOptions& options) {
  const auto evaluate_range = [&](std::size_t lo, std::size_t hi,
                                  std::vector<Partition>& out) {
    MergeClosureEngine engine(machine, p);
    for (std::size_t i = lo; i < hi; ++i)
      if (engine.evaluate(pairs[i].first, pairs[i].second)) {
        const std::span<const std::uint32_t> labels = engine.labels();
        out.emplace_back(std::vector<std::uint32_t>(labels.begin(),
                                                    labels.end()));
      }
  };

  // Pair chunks are fixed-size (NOT thread-count-derived): pruning reads
  // only pair indices, so any split gives the same survivors, but fixed
  // chunks also keep the work split — and the per-chunk engine count —
  // reproducible for profiling.
  constexpr std::size_t kChunkPairs = 2048;
  const std::size_t chunk_count =
      options.parallel ? (pairs.size() + kChunkPairs - 1) / kChunkPairs : 1;
  std::vector<std::vector<Partition>> chunks(chunk_count);
  if (chunk_count == 1) {
    evaluate_range(0, pairs.size(), chunks[0]);
  } else {
    ParallelOptions popt;
    popt.pool = options.pool;
    popt.serial_threshold = 1;
    parallel_for(
        0, chunk_count,
        [&](std::size_t c) {
          const std::size_t lo = c * kChunkPairs;
          const std::size_t hi = std::min(pairs.size(), lo + kChunkPairs);
          evaluate_range(lo, hi, chunks[c]);
        },
        popt);
  }

  std::vector<Partition> candidates = std::move(chunks[0]);
  for (std::size_t c = 1; c < chunk_count; ++c)
    candidates.insert(candidates.end(),
                      std::make_move_iterator(chunks[c].begin()),
                      std::make_move_iterator(chunks[c].end()));
  return candidates;
}

}  // namespace

std::vector<Partition> lower_cover(const Dfsm& machine, const Partition& p,
                                   const LowerCoverOptions& options) {
  const auto pairs = block_pairs(machine, p);
  if (pairs.empty()) return {};  // bottom: nothing below

  obs::Obs* const obs = options.obs;
  const bool timed = obs != nullptr && obs->enabled();
  const std::uint64_t eval_start = timed ? obs->now_us() : 0;
  std::vector<Partition> distinct =
      fused_candidates(machine, p, pairs, options);
  if (timed) obs->record("gen.closure_eval", obs->now_us() - eval_start);
  if (obs != nullptr)
    obs->count("gen.closures_pruned", pairs.size() - distinct.size());

  std::vector<Partition> result =
      keep_maximal(std::move(distinct), options.parallel, options.pool);
  // The engine skips merge_closure's closedness check, so run it on the
  // few survivors.
  for (const Partition& q : result) FFSM_ENSURES(is_closed(machine, q));
  return result;
}

std::vector<Partition> lower_cover_classic(const Dfsm& machine,
                                           const Partition& p) {
  std::vector<Partition> distinct;
  std::unordered_set<Partition, PartitionHash> seen;
  for (const std::pair<State, State>& pair : block_pairs(machine, p)) {
    const std::pair<State, State> merge[1] = {pair};
    Partition closure = merge_closure(machine, p, merge);
    if (seen.insert(closure).second) distinct.push_back(std::move(closure));
  }
  return keep_maximal(std::move(distinct), false, nullptr);
}

std::uint64_t prefetch_lower_cover(
    const Dfsm& machine, const Partition& p, const LowerCoverOptions& options,
    const CancellationToken& token,
    std::shared_ptr<const LowerCoverCache::Cover>* cover, bool* from_cache) {
  obs::Obs* const obs = options.obs;
  const bool timed = obs != nullptr && obs->enabled();
  if (from_cache != nullptr) *from_cache = false;
  if (cover != nullptr) *cover = nullptr;
  if (options.cache != nullptr) {
    const std::uint64_t find_start = timed ? obs->now_us() : 0;
    auto cached =
        options.cache->find(p, LowerCoverCache::Lookup::kSpeculative);
    if (timed) obs->record("cache.get", obs->now_us() - find_start);
    if (cached) {
      if (from_cache != nullptr) *from_cache = true;
      if (cover != nullptr) *cover = std::move(cached);
      return 0;
    }
  }
  if (token.cancelled()) return 0;

  const std::uint32_t blocks = p.block_count();
  const std::uint64_t closures =
      blocks <= 1 ? 0
                  : static_cast<std::uint64_t>(blocks) * (blocks - 1) / 2;
  std::shared_ptr<const LowerCoverCache::Cover> computed;
  {
    obs::ScopedSpan span(obs, "gen.lower_cover");
    computed = std::make_shared<const LowerCoverCache::Cover>(
        lower_cover(machine, p, options));
  }
  // Publication is the only cancellation-gated step: the joiner may still
  // consume a cover computed despite a late cancel, but a cancelled task
  // must never re-populate a cache its owner already cleared. The token is
  // passed as the insert gate so the decisive check runs under the cache's
  // lock (atomic with respect to a concurrent cancel + clear).
  if (options.cache != nullptr) {
    const std::uint64_t insert_start = timed ? obs->now_us() : 0;
    computed = options.cache->insert(p, std::move(computed), &token);
    if (timed) obs->record("cache.insert", obs->now_us() - insert_start);
  }
  if (cover != nullptr) *cover = std::move(computed);
  return closures;
}

}  // namespace ffsm
