// Lower cover of a closed partition (paper Definition 2).
//
// The lower cover of machine M consists of the *maximal* closed partitions
// strictly less (coarser) than M. Following Lee–Yannakakis and the paper's
// construction, every lower-cover element arises as the merge closure of M
// with one pair of its blocks united. Two evaluators enumerate the block
// pairs in the same lexicographic order and return the same cover in the
// same order (each distinct closure at its first occurrence, then only the
// maximal ones):
//
// - lower_cover(), the one every generation path runs, evaluates the pairs
//   through MergeClosureEngine. The base partition's union-find is seeded
//   once and restored per pair, and a pair's closure stops once it unites
//   an earlier block pair, because it can then only repeat or lie below an
//   earlier candidate. The closures that finish are already distinct, so
//   only the maximality filter runs on them. Fixed-size chunks of pairs
//   fan out across the thread pool; the cover is bit-identical at any
//   thread count.
// - lower_cover_classic() is the serial oracle: one merge_closure per pair,
//   a first-occurrence dedup, then the same maximality filter. The
//   non-speculative generate_fusion path, enumerate_lattice and
//   is_minimal_fusion run it, so the checks built on them stay independent
//   of the pruning rule.
//
// Complexity: O(B^2) closures for B blocks, each O(N * |Sigma| * alpha);
// pruning stops most of them early.
//
// A lower cover depends only on (machine, p) — not on which originals or
// fault graph drove the caller there — so results are memoizable across
// Algorithm 2's outer iterations and across whole batches of fusion
// requests sharing one top machine. LowerCoverCache provides that shared,
// thread-safe memo; every descent restarts from the identity partition, so
// the cache turns the shared prefix of all descents into O(1) lookups.
// Long-lived services bound the memo's footprint with an eviction policy
// (CacheEvictionPolicy): an evicted cover is simply recomputed on the next
// miss, so results never depend on capacity.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fsm/dfsm.hpp"
#include "obs/obs.hpp"
#include "partition/partition.hpp"
#include "util/parallel.hpp"

namespace ffsm {

/// How a bounded LowerCoverCache makes room (see LowerCoverCacheConfig).
enum class CacheEvictionPolicy : std::uint8_t {
  /// Evict the least-recently-used entry once `capacity` entries are
  /// resident. Per-hit cost: one relaxed atomic store under the shared
  /// lock; eviction scans the (bounded) table for the oldest entry.
  kLru,
  /// Epoch-based bulk eviction: when the table reaches `capacity` the
  /// epoch ends and every entry is dropped at once. No per-hit
  /// bookkeeping at all — the cheapest policy for read-heavy services
  /// whose working set periodically shifts wholesale.
  kEpoch,
  /// Never evict — the pre-eviction legacy behaviour. Memory grows with
  /// the number of distinct partitions ever descended through; only
  /// sensible for short-lived, single-workload caches (kept default-off).
  kUnbounded,
  /// LRU eviction behind a TinyLFU admission filter: a 4-bit count-min
  /// frequency sketch (FrequencySketch) tracks how often each key was
  /// looked up recently, and an insert at capacity is *rejected* when the
  /// candidate's estimated frequency is below the LRU victim's — a one-off
  /// scan key can no longer evict a hot descent-prefix key. Rejection
  /// never changes results (the caller keeps its freshly computed cover;
  /// the next miss recomputes), it only decides what stays resident.
  kLfuAdmit,
};

struct LowerCoverCacheConfig {
  CacheEvictionPolicy policy = CacheEvictionPolicy::kLru;
  /// Maximum resident entries for kLru/kEpoch/kLfuAdmit (must be >= 1);
  /// ignored by kUnbounded. The cache never holds more than `capacity`
  /// entries.
  std::size_t capacity = 1024;
};

/// One exported hot cache entry — the partition descended from plus its
/// lower cover. The unit of the warm cache handoff: export_hot() hands a
/// vector of these to the backend, which ships them in a kCacheWarm frame
/// and replays them into the replacement worker's cache via import().
struct WarmCacheEntry {
  Partition key;
  std::vector<Partition> cover;
};

/// TinyLFU-style frequency sketch: a depth-4 count-min sketch of 4-bit
/// saturating counters (two per byte) with periodic halving ("aging") once
/// a sample-size worth of increments has accumulated, so estimates track
/// *recent* popularity rather than all of history. Counters are atomic
/// bytes updated with relaxed plain stores — concurrent increments may
/// lose updates, which only makes the (already approximate) estimate
/// conservative; there are no data races.
class FrequencySketch {
 public:
  /// Sized for `capacity` resident entries: width is the smallest power of
  /// two >= max(64, 8 * capacity) counters per row.
  explicit FrequencySketch(std::size_t capacity);

  /// Records one lookup of `hash` and ages the sketch when the sample
  /// period elapses.
  void increment(std::size_t hash) noexcept;

  /// Estimated recent lookup count for `hash` (min over rows, <= 15).
  [[nodiscard]] std::uint32_t estimate(std::size_t hash) const noexcept;

  /// Bytes held by the counter table.
  [[nodiscard]] std::size_t table_bytes() const noexcept {
    return kDepth * width_ / 2;
  }

 private:
  static constexpr std::size_t kDepth = 4;
  static constexpr std::uint32_t kMaxCount = 15;

  /// Counter index of `hash` in `row`.
  [[nodiscard]] std::size_t index(std::size_t hash,
                                  std::size_t row) const noexcept;
  /// Halves every counter in place: the aging step.
  void age() noexcept;

  std::size_t width_;  // counters per row; power of two
  std::size_t sample_size_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> table_;
  std::atomic<std::uint64_t> increments_{0};
};

/// Thread-safe, size-bounded memo of lower covers keyed by the partition
/// descended from. One cache instance must only ever be used with a single
/// machine (the cache does not key on it); generate_fusion_batch enforces
/// this by construction.
///
/// Values are handed out as shared_ptr, so eviction can never invalidate a
/// cover a descent is still walking — the entry just leaves the table and
/// the next lookup recomputes it. Counters distinguish that case:
/// a miss on a key that was previously evicted counts as an
/// *eviction miss*, keeping cold-miss stats meaningful under eviction.
class LowerCoverCache {
 public:
  using Cover = std::vector<Partition>;
  using Config = LowerCoverCacheConfig;

  LowerCoverCache() : LowerCoverCache(Config{}) {}
  explicit LowerCoverCache(Config config);

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// How find() books a lookup. A demand lookup counts as a hit or a miss;
  /// a speculative one (a prefetch the descent may never consume) counts as
  /// neither, and its consumer books it with count_lookup().
  enum class Lookup { kDemand, kSpeculative };

  /// Cached cover for `p`, or nullptr on miss.
  [[nodiscard]] std::shared_ptr<const Cover> find(
      const Partition& p, Lookup lookup = Lookup::kDemand) const;

  /// Books one demand lookup of `p` as a hit or a miss without looking it
  /// up: the descent consumed a speculative lookup's result (`hit` is
  /// whether that lookup found `p` cached).
  void count_lookup(const Partition& p, bool hit) const;

  /// Inserts (first writer wins) and returns the cached value, evicting
  /// per the configured policy first when the table is at capacity.
  ///
  /// When `gate` is non-null, it is re-checked under the cache's exclusive
  /// lock and a cancelled gate skips the insert (returning `cover`
  /// unchanged, or the resident value when the key is already cached).
  /// Because clear() takes the same lock, an owner that cancels a task's
  /// token and then calls clear() is authoritative: the straggler either
  /// inserted before the clear (and was dropped by it) or observes the
  /// cancel under the lock and never inserts.
  std::shared_ptr<const Cover> insert(const Partition& p,
                                      std::shared_ptr<const Cover> cover,
                                      const CancellationToken* gate = nullptr);

  [[nodiscard]] std::size_t size() const;

  /// Drops every entry and the evicted-key memory; lifetime counters are
  /// preserved and the drop is not counted as eviction.
  void clear();

  /// Snapshot of the (up to) `n` hottest resident entries, most recently
  /// used first — the payload of a warm cache handoff. Covers are copied
  /// out, so the snapshot stays valid after eviction or clear().
  [[nodiscard]] std::vector<WarmCacheEntry> export_hot(std::size_t n) const;

  /// Replays an export_hot() snapshot into this cache (typically a fresh
  /// one on a respawned worker or a failover target). Bypasses admission —
  /// the exporter already judged these entries hot — but still respects
  /// the capacity bound, and preserves the exporter's recency order.
  /// Resident keys are left untouched (first writer wins, as in insert()).
  void import(const std::vector<WarmCacheEntry>& entries);

  // Lifetime counters (monotonic, approximate under contention).

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Total misses == cold_misses() + eviction_misses().
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return cold_misses() + eviction_misses();
  }
  /// Misses on keys never seen before.
  [[nodiscard]] std::uint64_t cold_misses() const noexcept {
    return cold_misses_.load(std::memory_order_relaxed);
  }
  /// Misses on keys that were resident once and then evicted — the price
  /// of the capacity bound, reported separately so eviction pressure does
  /// not masquerade as a cold workload.
  [[nodiscard]] std::uint64_t eviction_misses() const noexcept {
    return eviction_misses_.load(std::memory_order_relaxed);
  }
  /// Entries evicted so far (never counts clear()).
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Epochs completed so far (kEpoch only; 0 otherwise).
  [[nodiscard]] std::uint64_t epochs() const noexcept {
    return epochs_.load(std::memory_order_relaxed);
  }
  /// Approximate bytes held by resident keys + covers (payload estimate,
  /// excluding hash-table overhead).
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Inserts rejected by the TinyLFU admission filter (kLfuAdmit only;
  /// 0 otherwise). Each reject kept a hotter victim resident at the price
  /// of recomputing the rejected key on its next miss.
  [[nodiscard]] std::uint64_t admission_rejects() const noexcept {
    return admission_rejects_.load(std::memory_order_relaxed);
  }
  /// Bytes held by the admission frequency sketch (kLfuAdmit only).
  [[nodiscard]] std::size_t sketch_bytes() const noexcept {
    return sketch_ ? sketch_->table_bytes() : 0;
  }

 private:
  struct Entry {
    std::shared_ptr<const Cover> cover;
    /// Logical access clock value of the last find() hit (kLru/kLfuAdmit).
    std::atomic<std::uint64_t> last_used{0};
    std::size_t bytes = 0;
  };
  using Map = std::unordered_map<Partition, std::shared_ptr<Entry>,
                                 PartitionHash>;

  /// Payload estimate for one (key, cover) pair.
  static std::size_t entry_bytes(const Partition& key, const Cover& cover);

  /// Counts a miss on `p` as cold or eviction; requires lock held.
  void count_miss_locked(const Partition& p) const;

  /// Evicts per policy until an insert fits; requires unique lock held.
  void make_room_locked();

  /// The map_ iterator of the LRU entry (kLru/kLfuAdmit eviction victim);
  /// requires lock held and map_ non-empty.
  [[nodiscard]] Map::iterator lru_victim_locked();

  /// Evicts the entry at `victim`; requires unique lock held.
  void evict_locked(Map::iterator victim);

  /// Places one entry, evicting first if needed; requires unique lock
  /// held and the key non-resident. Shared by insert() and import().
  void emplace_locked(const Partition& key,
                      std::shared_ptr<const Cover> cover);

  Config config_;
  mutable std::shared_mutex mutex_;
  // shared_ptr<Entry> values: stable addresses across rehash, so find()
  // can bump last_used outside any per-entry lock.
  Map map_;
  /// Remembers an evicted key's hash for miss classification, keeping the
  /// tombstone set bounded; requires unique lock held.
  void record_eviction_locked(const Partition& key);

  /// Content hashes of evicted keys, for the eviction-miss counter.
  /// 8 bytes per distinct evicted key; itself capped at ~16x capacity and
  /// reset when full, so miss classification is approximate (a collision
  /// or a reset merely flips an eviction miss to cold or vice versa) but
  /// the cache's total memory stays bounded.
  std::unordered_set<std::size_t> evicted_hashes_;
  mutable std::atomic<std::uint64_t> clock_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> cold_misses_{0};
  mutable std::atomic<std::uint64_t> eviction_misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> admission_rejects_{0};
  /// Admission frequency sketch; allocated only under kLfuAdmit.
  std::unique_ptr<FrequencySketch> sketch_;
};

struct LowerCoverOptions {
  /// Evaluate chunks of block-pair closures, and the maximality filter's
  /// rows, in parallel on this pool (nullptr = global pool). Covers are
  /// bit-identical at any thread count.
  ThreadPool* pool = nullptr;
  bool parallel = true;
  /// Optional memo shared across calls (and threads). Must only ever see
  /// partitions of one machine.
  LowerCoverCache* cache = nullptr;
  /// Optional observability context (nullptr = uninstrumented). Feeds the
  /// `gen.lower_cover` span (one full cover computation in
  /// lower_cover_cached or prefetch_lower_cover, whichever evaluator), and
  /// from lower_cover the `gen.closure_eval` histogram (the
  /// candidate-evaluation phase inside it) and the `gen.closures_pruned`
  /// counter (pairs whose closure stopped early, added once per cover);
  /// also `cache.get` / `cache.insert` (memo lookup / publish latency).
  /// Never affects results.
  obs::Obs* obs = nullptr;
};

/// Maximal closed partitions strictly below `p` on `machine`'s transition
/// structure. For the single-block partition (bottom) this is empty.
/// `p` must be closed.
[[nodiscard]] std::vector<Partition> lower_cover(
    const Dfsm& machine, const Partition& p,
    const LowerCoverOptions& options = {});

/// The serial classic evaluator: lower_cover's result, order included,
/// from one full merge_closure per block pair. The oracle the pruned
/// evaluator is checked against.
[[nodiscard]] std::vector<Partition> lower_cover_classic(const Dfsm& machine,
                                                         const Partition& p);

/// An evaluator in lower_cover's shape, for lower_cover_cached.
using CoverEvaluator = std::vector<Partition> (*)(const Dfsm&,
                                                  const Partition&,
                                                  const LowerCoverOptions&);

/// Cache-aware variant: consults options.cache (when set) before computing
/// with `evaluate` and shares the result without copying the cover. When
/// `from_cache` is non-null it is set to whether this call was served by
/// the cache — a per-call signal that stays exact when many threads share
/// one cache (unlike deltas of the cache's global counters).
[[nodiscard]] std::shared_ptr<const LowerCoverCache::Cover> lower_cover_cached(
    const Dfsm& machine, const Partition& p,
    const LowerCoverOptions& options = {}, bool* from_cache = nullptr,
    CoverEvaluator evaluate = lower_cover);

/// Speculative (cancellable) variant for prefetch tasks. Consults the
/// cache with a speculative lookup (booked by the consumer, if any, through
/// LowerCoverCache::count_lookup), then — unless `token` was cancelled
/// first — computes the cover.
/// Cancellation gates *publication only*: a cover computed despite a late
/// cancel is still handed back through `cover` (the joiner may use it),
/// but it is never inserted into options.cache — the token is re-checked
/// inside the cache's insert lock, so cancel() followed by clear() cannot
/// be undone by a straggling speculation (see LowerCoverCache::insert).
/// Returns the number of pair closures evaluated (0 on a cache hit or a
/// pre-compute cancel); `from_cache` (optional) reports whether the cache
/// served the call.
std::uint64_t prefetch_lower_cover(
    const Dfsm& machine, const Partition& p, const LowerCoverOptions& options,
    const CancellationToken& token,
    std::shared_ptr<const LowerCoverCache::Cover>* cover,
    bool* from_cache = nullptr);

}  // namespace ffsm
