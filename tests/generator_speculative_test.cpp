// The speculative descent engine: bit-identity to the serial reference at
// every thread count / lookahead / cache bound, speculation stats
// accounting, and the cancellation guarantee (a cancelled speculative task
// never publishes into the cache after clear()).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fsm/product.hpp"
#include "fusion/generator.hpp"
#include "partition/lower_cover.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace ffsm {
namespace {

using ffsm::testing::component_partitions;
using ffsm::testing::counter_pair_product;

TEST(SpeculativeEngine, BitIdenticalAcrossPoliciesFaultsThreadsAndCaches) {
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);

  for (const DescentPolicy policy :
       {DescentPolicy::kFirstFound, DescentPolicy::kFewestBlocks,
        DescentPolicy::kMostBlocks}) {
    for (const std::uint32_t f : {1u, 2u, 3u}) {
      GenerateOptions serial;
      serial.f = f;
      serial.policy = policy;
      serial.parallel = false;
      const FusionResult baseline =
          generate_fusion(cp.top, originals, serial);
      ASSERT_FALSE(baseline.partitions.empty());

      for (const std::size_t threads : {1u, 2u, 8u}) {
        for (const std::size_t capacity : {2u, 1024u}) {
          ThreadPool pool(threads);
          GenerateOptions speculative = serial;
          speculative.parallel = true;
          speculative.pool = &pool;
          speculative.cache_config.policy = CacheEvictionPolicy::kLru;
          speculative.cache_config.capacity = capacity;
          const FusionResult result =
              generate_fusion(cp.top, originals, speculative);
          EXPECT_EQ(result.partitions, baseline.partitions)
              << "policy=" << static_cast<int>(policy) << " f=" << f
              << " threads=" << threads << " capacity=" << capacity;
          EXPECT_EQ(result.stats.machines_added,
                    baseline.stats.machines_added);
          EXPECT_EQ(result.stats.descent_steps,
                    baseline.stats.descent_steps);
          EXPECT_EQ(result.stats.dmin_after, baseline.stats.dmin_after);
          EXPECT_LE(result.stats.speculation_hits,
                    result.stats.speculative_covers_launched);
        }
      }
    }
  }
}

TEST(SpeculativeEngine, LookaheadNeverChangesResults) {
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);

  GenerateOptions serial;
  serial.f = 2;
  serial.parallel = false;
  const FusionResult baseline = generate_fusion(cp.top, originals, serial);

  ThreadPool pool(8);
  for (const std::uint32_t lookahead : {0u, 1u, 2u, 4u}) {
    GenerateOptions speculative = serial;
    speculative.parallel = true;
    speculative.pool = &pool;
    speculative.speculation.lookahead = lookahead;
    const FusionResult result =
        generate_fusion(cp.top, originals, speculative);
    EXPECT_EQ(result.partitions, baseline.partitions)
        << "lookahead=" << lookahead;
    if (lookahead == 0)
      EXPECT_EQ(result.stats.speculative_covers_launched, 0u);
  }
}

TEST(SpeculativeEngine, WarmCacheRunEvaluatesNoClosures) {
  // Speculation accounting must preserve the cross-call cache contract: a
  // rerun against the same shared cache serves every cover (including the
  // prefetched ones) from memory.
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);
  LowerCoverCache cache({CacheEvictionPolicy::kUnbounded, 1});
  ThreadPool pool(8);

  GenerateOptions options;
  options.f = 2;
  options.parallel = true;
  options.pool = &pool;
  options.cache = &cache;
  const FusionResult cold = generate_fusion(cp.top, originals, options);
  const FusionResult warm = generate_fusion(cp.top, originals, options);
  EXPECT_EQ(cold.partitions, warm.partitions);
  EXPECT_GT(cold.stats.closures_evaluated, 0u);
  EXPECT_EQ(warm.stats.closures_evaluated, 0u);
  EXPECT_EQ(warm.stats.speculation_wasted_closures, 0u);
}

TEST(SpeculativePrefetch, CancelledTaskNeverPublishesAfterClear) {
  // ThreadPool(1) has zero workers, so a submitted task stays pending until
  // someone joins or cancels it — fully deterministic ordering.
  const CrossProduct cp = counter_pair_product(4);
  const Partition identity = Partition::identity(cp.top.size());
  LowerCoverCache cache;
  ThreadPool pool(1);
  ASSERT_EQ(pool.thread_count(), 0u);

  LowerCoverOptions options;
  options.parallel = false;
  options.cache = &cache;

  CancellationToken token;
  std::shared_ptr<const LowerCoverCache::Cover> cover;
  TaskHandle task = pool.submit(
      [&] {
        (void)prefetch_lower_cover(cp.top, identity, options, token, &cover);
      },
      token);
  ASSERT_TRUE(task.valid());
  EXPECT_FALSE(task.finished());

  task.cancel();
  cache.clear();
  // join() must report "cancelled before it ran", and the body must never
  // have published anything: the clear() above is final.
  EXPECT_FALSE(task.join());
  EXPECT_TRUE(task.finished());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(identity), nullptr);
  EXPECT_EQ(cover, nullptr);
}

TEST(SpeculativePrefetch, CancelledStragglerComputesButDoesNotPublish) {
  // A token cancelled *before* the body runs makes prefetch_lower_cover
  // return without computing; the cache must stay empty even though the
  // task itself runs to completion (join() == true).
  const CrossProduct cp = counter_pair_product(4);
  const Partition identity = Partition::identity(cp.top.size());
  LowerCoverCache cache;
  ThreadPool pool(1);

  LowerCoverOptions options;
  options.parallel = false;
  options.cache = &cache;

  CancellationToken token;
  token.cancel();
  std::shared_ptr<const LowerCoverCache::Cover> cover;
  std::uint64_t closures = 1;
  // No pool token: the task itself is not retired, only the prefetch's
  // publication gate sees the cancel.
  TaskHandle task = pool.submit([&] {
    closures = prefetch_lower_cover(cp.top, identity, options, token, &cover);
  });
  EXPECT_TRUE(task.join());
  EXPECT_EQ(closures, 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(identity), nullptr);
}

TEST(SpeculativePrefetch, CancelStressLeavesCacheEmpty) {
  const CrossProduct cp = counter_pair_product(4);
  const std::uint32_t n = cp.top.size();
  LowerCoverCache cache;
  ThreadPool pool(1);  // zero workers: all tasks stay pending

  LowerCoverOptions options;
  options.parallel = false;
  options.cache = &cache;

  std::vector<TaskHandle> tasks;
  std::vector<CancellationToken> tokens(32);
  std::vector<std::shared_ptr<const LowerCoverCache::Cover>> covers(32);
  const Partition identity = Partition::identity(n);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tasks.push_back(pool.submit(
        [&, i] {
          (void)prefetch_lower_cover(cp.top, identity, options, tokens[i],
                                     &covers[i]);
        },
        tokens[i]));
  }
  for (TaskHandle& t : tasks) t.cancel();
  for (TaskHandle& t : tasks) EXPECT_FALSE(t.join());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(identity), nullptr);
}

TEST(SpeculativePrefetch, UncancelledPrefetchPublishesAndReportsClosures) {
  const CrossProduct cp = counter_pair_product(4);
  const Partition identity = Partition::identity(cp.top.size());
  LowerCoverCache cache;

  LowerCoverOptions options;
  options.parallel = false;
  options.cache = &cache;

  CancellationToken token;
  std::shared_ptr<const LowerCoverCache::Cover> cover;
  bool from_cache = true;
  const std::uint64_t closures = prefetch_lower_cover(
      cp.top, identity, options, token, &cover, &from_cache);
  const std::uint32_t blocks = identity.block_count();
  EXPECT_EQ(closures,
            static_cast<std::uint64_t>(blocks) * (blocks - 1) / 2);
  EXPECT_FALSE(from_cache);
  ASSERT_NE(cover, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.find(identity), *cover);

  // Second call: served by the cache, zero closures, same cover object.
  std::shared_ptr<const LowerCoverCache::Cover> again;
  EXPECT_EQ(
      prefetch_lower_cover(cp.top, identity, options, token, &again,
                           &from_cache),
      0u);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(again, cover);
}

TEST(SpeculativeEngine, BatchPrewarmKeepsResultsIdentical) {
  // Multi-request batches prewarm the cache one level below the identity;
  // results must match per-request serial generation exactly.
  const CrossProduct cp = counter_pair_product();
  const auto originals = component_partitions(cp);

  std::vector<FusionRequest> requests;
  for (const DescentPolicy policy :
       {DescentPolicy::kFewestBlocks, DescentPolicy::kFirstFound}) {
    FusionRequest r;
    r.originals = originals;
    r.f = 2;
    r.policy = policy;
    requests.push_back(std::move(r));
  }

  ThreadPool pool(4);
  BatchOptions batch;
  batch.parallel = true;
  batch.pool = &pool;
  const std::vector<FusionResult> results =
      generate_fusion_batch(cp.top, requests, batch);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    GenerateOptions serial;
    serial.f = requests[i].f;
    serial.policy = requests[i].policy;
    serial.parallel = false;
    const FusionResult expect =
        generate_fusion(cp.top, originals, serial);
    EXPECT_EQ(results[i].partitions, expect.partitions) << "request " << i;
    EXPECT_EQ(results[i].stats.dmin_after, expect.stats.dmin_after);
  }
}

}  // namespace
}  // namespace ffsm
