// Bounded LowerCoverCache mechanics: LRU and epoch eviction, the strict
// capacity invariant, eviction-vs-cold miss classification, byte
// accounting, the TinyLFU admission gate (sketch counting, aging, and
// scan resistance), the export/import warm handoff, and the end-to-end
// guarantee that eviction only ever costs a recompute — never a wrong
// cover.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "partition/lower_cover.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"

namespace ffsm {
namespace {

using ffsm::testing::CanonicalExample;

std::shared_ptr<const LowerCoverCache::Cover> dummy_cover(
    const Partition& element) {
  return std::make_shared<const LowerCoverCache::Cover>(
      LowerCoverCache::Cover{element});
}

/// Partition of `n` elements with `i` and `j` merged, everything else a
/// singleton — a cheap family of C(n,2) distinct keys for scan floods.
Partition merged_pair(std::uint32_t n, std::uint32_t i, std::uint32_t j) {
  std::vector<std::uint32_t> assignment(n);
  for (std::uint32_t k = 0; k < n; ++k) assignment[k] = k;
  assignment[j] = assignment[i];
  return Partition(std::move(assignment));
}

TEST(CacheEviction, DefaultConfigIsBoundedLru) {
  const LowerCoverCache cache;
  EXPECT_EQ(cache.config().policy, CacheEvictionPolicy::kLru);
  EXPECT_GE(cache.config().capacity, 1u);
}

TEST(CacheEviction, BoundedPolicyRequiresCapacity) {
  EXPECT_THROW(LowerCoverCache({CacheEvictionPolicy::kLru, 0}),
               ContractViolation);
  EXPECT_THROW(LowerCoverCache({CacheEvictionPolicy::kEpoch, 0}),
               ContractViolation);
  // Unbounded ignores capacity entirely.
  const LowerCoverCache legacy({CacheEvictionPolicy::kUnbounded, 0});
  EXPECT_EQ(legacy.size(), 0u);
}

TEST(CacheEviction, LruEvictsLeastRecentlyUsed) {
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kLru, 2});

  (void)cache.insert(ex.p_a, dummy_cover(ex.p_a));
  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));
  EXPECT_EQ(cache.size(), 2u);

  // Touch A so B becomes the LRU victim.
  EXPECT_NE(cache.find(ex.p_a), nullptr);
  (void)cache.insert(ex.p_m1, dummy_cover(ex.p_m1));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.find(ex.p_a), nullptr);   // survived
  EXPECT_NE(cache.find(ex.p_m1), nullptr);  // fresh
  EXPECT_EQ(cache.find(ex.p_b), nullptr);   // evicted
  EXPECT_EQ(cache.eviction_misses(), 1u);
}

TEST(CacheEviction, EpochFlushesEverythingAtCapacity) {
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kEpoch, 2});

  (void)cache.insert(ex.p_a, dummy_cover(ex.p_a));
  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.epochs(), 0u);

  // Third insert ends the epoch: both residents dropped in one sweep.
  (void)cache.insert(ex.p_m1, dummy_cover(ex.p_m1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.epochs(), 1u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.find(ex.p_a), nullptr);
  EXPECT_EQ(cache.find(ex.p_b), nullptr);
  EXPECT_EQ(cache.eviction_misses(), 2u);
}

TEST(CacheEviction, UnboundedNeverEvicts) {
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kUnbounded, 1});
  for (const Partition& p :
       {ex.p_a, ex.p_b, ex.p_m1, ex.p_m2, ex.p_m3, ex.p_m4, ex.p_m5, ex.p_m6})
    (void)cache.insert(p, dummy_cover(p));
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.eviction_misses(), 0u);
}

TEST(CacheEviction, CapacityIsAHardBoundUnderChurn) {
  const CanonicalExample ex;
  const std::vector<Partition> keys = {ex.p_top, ex.p_a,  ex.p_b,
                                       ex.p_m1,  ex.p_m2, ex.p_m3,
                                       ex.p_m4,  ex.p_m5, ex.p_m6};
  for (const CacheEvictionPolicy policy :
       {CacheEvictionPolicy::kLru, CacheEvictionPolicy::kEpoch}) {
    for (const std::size_t capacity : {1u, 2u, 3u, 4u}) {
      LowerCoverCache cache({policy, capacity});
      for (int round = 0; round < 3; ++round)
        for (const Partition& p : keys) {
          if (cache.find(p) == nullptr)
            (void)cache.insert(p, dummy_cover(p));
          ASSERT_LE(cache.size(), capacity);
        }
    }
  }
}

TEST(CacheEviction, ReMissAfterEvictionIsNotAColdMiss) {
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kLru, 1});

  EXPECT_EQ(cache.find(ex.p_a), nullptr);  // never seen: cold
  EXPECT_EQ(cache.cold_misses(), 1u);
  (void)cache.insert(ex.p_a, dummy_cover(ex.p_a));
  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));  // evicts A

  EXPECT_EQ(cache.find(ex.p_a), nullptr);  // seen before: eviction miss
  EXPECT_EQ(cache.cold_misses(), 1u);
  EXPECT_EQ(cache.eviction_misses(), 1u);
  EXPECT_EQ(cache.misses(), 2u);  // total stays hits-complement compatible
}

TEST(CacheEviction, SpeculativeLookupsAreBookedOnlyWhenConsumed) {
  // A prefetch's lookup is not demand: it books nothing until the descent
  // consumes its result and books the hit or miss it stood in for.
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kLru, 1});
  constexpr auto kSpeculative = LowerCoverCache::Lookup::kSpeculative;

  EXPECT_EQ(cache.find(ex.p_a, kSpeculative), nullptr);
  EXPECT_EQ(cache.misses(), 0u);
  cache.count_lookup(ex.p_a, /*hit=*/false);
  EXPECT_EQ(cache.cold_misses(), 1u);

  (void)cache.insert(ex.p_a, dummy_cover(ex.p_a));
  EXPECT_NE(cache.find(ex.p_a, kSpeculative), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  cache.count_lookup(ex.p_a, /*hit=*/true);
  EXPECT_EQ(cache.hits(), 1u);

  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));  // evicts A
  cache.count_lookup(ex.p_a, /*hit=*/false);
  EXPECT_EQ(cache.eviction_misses(), 1u);
  EXPECT_EQ(cache.cold_misses(), 1u);
}

TEST(CacheEviction, TracksApproximateBytes) {
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kLru, 2});
  EXPECT_EQ(cache.approx_bytes(), 0u);

  (void)cache.insert(ex.p_a, dummy_cover(ex.p_a));
  const std::size_t one = cache.approx_bytes();
  EXPECT_GT(one, 0u);

  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));
  EXPECT_GT(cache.approx_bytes(), one);

  (void)cache.insert(ex.p_m1, dummy_cover(ex.p_m1));  // evicts one entry
  EXPECT_LE(cache.approx_bytes(), 2 * one + 64);

  cache.clear();
  EXPECT_EQ(cache.approx_bytes(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheEviction, InsertOfResidentKeyKeepsFirstValueAndEvictsNothing) {
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kLru, 1});
  const auto first = cache.insert(ex.p_a, dummy_cover(ex.p_a));
  const auto second = cache.insert(ex.p_a, dummy_cover(ex.p_b));
  EXPECT_EQ(first.get(), second.get());  // first writer wins
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheEviction, EvictedCoverStaysAliveForHolders) {
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kLru, 1});
  const auto held = cache.insert(ex.p_a, dummy_cover(ex.p_a));
  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));  // evicts A's entry
  ASSERT_EQ(cache.evictions(), 1u);
  // The shared_ptr we kept is still valid and unchanged.
  ASSERT_EQ(held->size(), 1u);
  EXPECT_EQ((*held)[0], ex.p_a);
}

TEST(CacheEviction, CapacityOneRecomputesCorrectCovers) {
  // End-to-end: a 1-entry cache thrashes on alternating keys, yet every
  // lookup returns exactly the uncached cover.
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kLru, 1});
  LowerCoverOptions options;
  options.cache = &cache;

  for (int round = 0; round < 3; ++round)
    for (const Partition& p : {ex.p_top, ex.p_a, ex.p_m1}) {
      const auto cover = lower_cover_cached(ex.top, p, options);
      EXPECT_EQ(*cover, lower_cover(ex.top, p)) << p.to_string();
      EXPECT_LE(cache.size(), 1u);
    }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.eviction_misses(), 0u);
}

TEST(CacheEviction, FrequencySketchCountsAndSaturates) {
  FrequencySketch sketch(4);
  const std::size_t hot = 0x1234abcd;
  EXPECT_EQ(sketch.estimate(hot), 0u);
  for (int i = 0; i < 3; ++i) sketch.increment(hot);
  EXPECT_EQ(sketch.estimate(hot), 3u);
  for (int i = 0; i < 100; ++i) sketch.increment(hot);
  EXPECT_EQ(sketch.estimate(hot), 15u);  // 4-bit counters saturate
  EXPECT_GT(sketch.table_bytes(), 0u);
}

TEST(CacheEviction, FrequencySketchAgingHalvesCounts) {
  // capacity 4 => width 64, sample period 8 * 64 = 512 increments.
  FrequencySketch sketch(4);
  const std::size_t hot = 0x9e3779b9;
  for (int i = 0; i < 20; ++i) sketch.increment(hot);
  ASSERT_EQ(sketch.estimate(hot), 15u);
  // Flood with distinct cold hashes so the 512th increment lands exactly
  // on the sample boundary: the halving fires once and nothing is counted
  // after it. Saturated nibbles (collisions included) all halve 15 -> 7.
  for (std::size_t i = 1; i <= 492; ++i)
    sketch.increment(hot + i * 0x100010001ULL);
  EXPECT_EQ(sketch.estimate(hot), 7u);
}

TEST(CacheEviction, LfuAdmitRequiresCapacity) {
  EXPECT_THROW(LowerCoverCache({CacheEvictionPolicy::kLfuAdmit, 0}),
               ContractViolation);
  const LowerCoverCache cache({CacheEvictionPolicy::kLfuAdmit, 4});
  EXPECT_GT(cache.sketch_bytes(), 0u);
  EXPECT_EQ(cache.admission_rejects(), 0u);
}

TEST(CacheEviction, OtherPoliciesCarryNoSketch) {
  for (const CacheEvictionPolicy policy :
       {CacheEvictionPolicy::kUnbounded, CacheEvictionPolicy::kLru,
        CacheEvictionPolicy::kEpoch}) {
    const LowerCoverCache cache({policy, 4});
    EXPECT_EQ(cache.sketch_bytes(), 0u);
    EXPECT_EQ(cache.admission_rejects(), 0u);
  }
}

TEST(CacheEviction, LfuAdmitHotKeysSurviveScanFlood) {
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kLfuAdmit, 4});
  const std::vector<Partition> hot = {ex.p_a, ex.p_b, ex.p_m1, ex.p_m2};
  for (const Partition& p : hot) {
    EXPECT_EQ(cache.find(p), nullptr);  // cold miss, feeds the sketch
    (void)cache.insert(p, dummy_cover(p));
  }
  // Heat the working set: every lookup feeds the admission sketch.
  for (int round = 0; round < 5; ++round)
    for (const Partition& p : hot) EXPECT_NE(cache.find(p), nullptr);

  // One-touch scan flood: 28 distinct keys, each looked up once and then
  // inserted. Every insert meets a victim whose frequency dwarfs the
  // scanner's single touch, so the gate rejects them all — under plain
  // LRU this loop would evict the entire working set 7 times over.
  std::uint64_t scanned = 0;
  for (std::uint32_t i = 0; i < 8; ++i)
    for (std::uint32_t j = i + 1; j < 8; ++j) {
      const Partition p = merged_pair(8, i, j);
      ASSERT_EQ(cache.find(p), nullptr);
      (void)cache.insert(p, dummy_cover(p));
      ++scanned;
    }
  EXPECT_EQ(cache.admission_rejects(), scanned);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), 4u);
  for (const Partition& p : hot)
    EXPECT_NE(cache.find(p), nullptr) << p.to_string();
}

TEST(CacheEviction, LfuAdmitAdmitsKeyHotterThanVictim) {
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kLfuAdmit, 2});
  (void)cache.insert(ex.p_a, dummy_cover(ex.p_a));  // never found: freq 0
  (void)cache.find(ex.p_b);
  (void)cache.insert(ex.p_b, dummy_cover(ex.p_b));
  // A key hotter than the coldest resident earns its slot on insert.
  for (int i = 0; i < 4; ++i) (void)cache.find(ex.p_m1);
  (void)cache.insert(ex.p_m1, dummy_cover(ex.p_m1));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.admission_rejects(), 0u);
  EXPECT_NE(cache.find(ex.p_m1), nullptr);  // admitted
  EXPECT_EQ(cache.find(ex.p_a), nullptr);   // the cold victim was evicted
}

TEST(CacheEviction, ExportHotReturnsMostRecentlyUsedFirst) {
  const CanonicalExample ex;
  LowerCoverCache cache({CacheEvictionPolicy::kLru, 8});
  for (const Partition& p : {ex.p_a, ex.p_b, ex.p_m1})
    (void)cache.insert(p, dummy_cover(p));
  EXPECT_NE(cache.find(ex.p_a), nullptr);  // hottest now

  const auto top2 = cache.export_hot(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].key, ex.p_a);
  EXPECT_EQ(top2[1].key, ex.p_m1);
  ASSERT_EQ(top2[0].cover.size(), 1u);
  EXPECT_EQ(top2[0].cover[0], ex.p_a);
  // Asking for more than resident returns everything, once.
  EXPECT_EQ(cache.export_hot(100).size(), 3u);
  EXPECT_TRUE(cache.export_hot(0).empty());
}

TEST(CacheEviction, ImportKeepsHottestWhenOverCapacity) {
  const CanonicalExample ex;
  LowerCoverCache source({CacheEvictionPolicy::kLru, 8});
  (void)source.insert(ex.p_a, dummy_cover(ex.p_a));   // coldest
  (void)source.insert(ex.p_b, dummy_cover(ex.p_b));
  (void)source.insert(ex.p_m1, dummy_cover(ex.p_m1));  // hottest

  LowerCoverCache target({CacheEvictionPolicy::kLru, 2});
  target.import(source.export_hot(8));
  EXPECT_EQ(target.size(), 2u);  // capacity still binds on import
  EXPECT_NE(target.find(ex.p_m1), nullptr);
  EXPECT_NE(target.find(ex.p_b), nullptr);
  EXPECT_EQ(target.find(ex.p_a), nullptr);  // coldest snapshot entry dropped
}

TEST(CacheEviction, ImportSkipsResidentKeys) {
  const CanonicalExample ex;
  LowerCoverCache source({CacheEvictionPolicy::kLru, 8});
  (void)source.insert(ex.p_a, dummy_cover(ex.p_a));

  LowerCoverCache target({CacheEvictionPolicy::kLru, 8});
  const auto original = target.insert(ex.p_a, dummy_cover(ex.p_b));
  target.import(source.export_hot(8));
  // First writer wins, exactly like a racing insert of a resident key.
  EXPECT_EQ(target.find(ex.p_a).get(), original.get());
  EXPECT_EQ(target.size(), 1u);
}

TEST(CacheEviction, PoliciesServeBitIdenticalCoversUnderThreads) {
  // The end-to-end guarantee the warm handoff and the admission gate both
  // lean on: whatever the policy, capacity or concurrency, a cached
  // lookup returns exactly the uncached cover — a miss (rejected insert,
  // eviction, race) only ever costs a recompute.
  const CanonicalExample ex;
  const std::vector<Partition> keys = {ex.p_top, ex.p_a,  ex.p_b,
                                       ex.p_m1,  ex.p_m2, ex.p_m3,
                                       ex.p_m4,  ex.p_m5, ex.p_m6};
  std::vector<LowerCoverCache::Cover> oracle;
  oracle.reserve(keys.size());
  for (const Partition& p : keys) oracle.push_back(lower_cover(ex.top, p));

  for (const CacheEvictionPolicy policy :
       {CacheEvictionPolicy::kUnbounded, CacheEvictionPolicy::kLru,
        CacheEvictionPolicy::kEpoch, CacheEvictionPolicy::kLfuAdmit}) {
    for (const std::size_t capacity : {1u, 4u, 16u}) {
      for (const unsigned thread_count : {1u, 8u}) {
        LowerCoverCache cache({policy, capacity});
        LowerCoverOptions options;
        options.cache = &cache;
        std::atomic<bool> identical{true};
        std::vector<std::thread> workers;
        workers.reserve(thread_count);
        for (unsigned t = 0; t < thread_count; ++t)
          workers.emplace_back([&] {
            for (int round = 0; round < 3; ++round)
              for (std::size_t i = 0; i < keys.size(); ++i) {
                const auto cover =
                    lower_cover_cached(ex.top, keys[i], options);
                if (*cover != oracle[i])
                  identical.store(false, std::memory_order_relaxed);
              }
          });
        for (std::thread& worker : workers) worker.join();
        EXPECT_TRUE(identical.load())
            << "policy=" << static_cast<int>(policy)
            << " capacity=" << capacity << " threads=" << thread_count;
        if (policy != CacheEvictionPolicy::kUnbounded)
          EXPECT_LE(cache.size(), capacity);
      }
    }
  }
}

}  // namespace
}  // namespace ffsm
