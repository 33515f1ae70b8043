#include "partition/lower_cover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fsm/random_dfsm.hpp"
#include "partition/closure.hpp"
#include "partition/lattice.hpp"
#include "test_support.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;
using testing::pt;

bool contains(const std::vector<Partition>& v, const Partition& p) {
  return std::find(v.begin(), v.end(), p) != v.end();
}

TEST(LowerCover, OfTopIsTheBasis) {
  // Fig. 3: "the machines A, B, M1 and M2 constitute the basis".
  const CanonicalExample ex;
  const auto cover = lower_cover(ex.top, ex.p_top);
  EXPECT_EQ(cover.size(), 4u);
  EXPECT_TRUE(contains(cover, ex.p_a));
  EXPECT_TRUE(contains(cover, ex.p_b));
  EXPECT_TRUE(contains(cover, ex.p_m1));
  EXPECT_TRUE(contains(cover, ex.p_m2));
}

TEST(LowerCover, OfAIsM3M4) {
  // Definition 2's example: "the lower cover of machine A consists of
  // machines M3 and M4".
  const CanonicalExample ex;
  const auto cover = lower_cover(ex.top, ex.p_a);
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_TRUE(contains(cover, ex.p_m3));
  EXPECT_TRUE(contains(cover, ex.p_m4));
}

TEST(LowerCover, OfM1IsM3M6) {
  // Section 5.1 walk-through: M6 and M3 are the candidates below M1.
  const CanonicalExample ex;
  const auto cover = lower_cover(ex.top, ex.p_m1);
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_TRUE(contains(cover, ex.p_m3));
  EXPECT_TRUE(contains(cover, ex.p_m6));
}

TEST(LowerCover, OfTwoBlockPartitionIsBottom) {
  const CanonicalExample ex;
  const auto cover = lower_cover(ex.top, ex.p_m6);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], ex.p_bottom);
}

TEST(LowerCover, OfBottomIsEmpty) {
  const CanonicalExample ex;
  EXPECT_TRUE(lower_cover(ex.top, ex.p_bottom).empty());
}

TEST(LowerCover, NonClosedInputRejected) {
  const CanonicalExample ex;
  EXPECT_THROW((void)lower_cover(ex.top, pt({0, 0, 1, 2})),
               ContractViolation);
}

TEST(LowerCover, ElementsAreStrictlyBelowAndClosed) {
  const CanonicalExample ex;
  for (const Partition& p :
       {ex.p_top, ex.p_a, ex.p_b, ex.p_m1, ex.p_m2, ex.p_m5}) {
    for (const Partition& q : lower_cover(ex.top, p)) {
      EXPECT_TRUE(is_closed(ex.top, q));
      EXPECT_TRUE(Partition::less(q, p))
          << q.to_string() << " under " << p.to_string();
    }
  }
}

TEST(LowerCover, ElementsArePairwiseIncomparable) {
  const CanonicalExample ex;
  const auto cover = lower_cover(ex.top, ex.p_top);
  for (const auto& x : cover)
    for (const auto& y : cover) {
      if (x == y) continue;
      EXPECT_FALSE(Partition::leq(x, y));
    }
}

TEST(LowerCover, SerialAndParallelAgree) {
  const CanonicalExample ex;
  LowerCoverOptions serial;
  serial.parallel = false;
  LowerCoverOptions parallel;
  parallel.parallel = true;
  auto a = lower_cover(ex.top, ex.p_top, serial);
  auto b = lower_cover(ex.top, ex.p_top, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& p : a) EXPECT_TRUE(contains(b, p));
}

// Cross-check against the full lattice on random machines: the lower cover
// of each node must be exactly the maximal closed partitions strictly below
// it.
class LowerCoverVsLattice : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LowerCoverVsLattice, MatchesLatticeDefinition) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 6;
  spec.num_events = 2;
  spec.seed = GetParam();
  const Dfsm m = make_random_connected_dfsm(al, "m", spec);
  const ClosedPartitionLattice lattice = enumerate_lattice(m);

  for (const LatticeNode& node : lattice.nodes) {
    // Reference: maximal strictly-below elements from the full lattice.
    std::vector<Partition> below;
    for (const LatticeNode& other : lattice.nodes)
      if (Partition::less(other.partition, node.partition))
        below.push_back(other.partition);
    std::vector<Partition> maximal;
    for (const auto& q : below) {
      bool dominated = false;
      for (const auto& r : below)
        if (!(q == r) && Partition::less(q, r)) {
          dominated = true;
          break;
        }
      if (!dominated) maximal.push_back(q);
    }

    const auto cover = lower_cover(m, node.partition);
    EXPECT_EQ(cover.size(), maximal.size())
        << "node " << node.partition.to_string();
    for (const auto& q : maximal)
      EXPECT_TRUE(contains(cover, q)) << q.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerCoverVsLattice,
                         ::testing::Range<std::uint64_t>(1, 13));

// The sharded-hash parallel dedup + parallel maximality filter must emit
// exactly the serial post-pass's cover — same elements, same
// (first-occurrence) order — on any machine and at any thread count,
// because descent policies like kFirstFound are order-sensitive.

TEST(DedupEquivalence, ShardedMatchesSerialOnCatalogProduct) {
  const CrossProduct cp = ffsm::testing::counter_pair_product();
  const Partition identity = Partition::identity(cp.top.size());

  LowerCoverOptions legacy;
  legacy.sharded_dedup = false;
  const auto baseline = lower_cover(cp.top, identity, legacy);
  ASSERT_FALSE(baseline.empty());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    LowerCoverOptions sharded;
    sharded.pool = &pool;
    sharded.sharded_dedup = true;
    EXPECT_EQ(lower_cover(cp.top, identity, sharded), baseline)
        << "threads=" << threads;
  }

  // Serial execution of the sharded algorithm is also bit-identical.
  LowerCoverOptions serial_sharded;
  serial_sharded.parallel = false;
  serial_sharded.sharded_dedup = true;
  EXPECT_EQ(lower_cover(cp.top, identity, serial_sharded), baseline);
}

class DedupEquivalenceRandom : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DedupEquivalenceRandom, ShardedMatchesSerialDownARandomLattice) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 10;
  spec.num_events = 3;
  spec.seed = GetParam();
  const Dfsm m = make_random_connected_dfsm(al, "m", spec);

  ThreadPool pool(4);
  LowerCoverOptions legacy;
  legacy.sharded_dedup = false;
  LowerCoverOptions sharded;
  sharded.pool = &pool;
  sharded.sharded_dedup = true;

  // Walk a descent: compare the two post-passes at every node, following
  // the first cover element (order-sensitive, so this also locks the
  // ordering contract), plus every sibling's own cover once.
  Partition current = Partition::identity(m.size());
  while (true) {
    const auto baseline = lower_cover(m, current, legacy);
    EXPECT_EQ(lower_cover(m, current, sharded), baseline)
        << current.to_string();
    if (baseline.empty()) break;
    for (const Partition& sibling : baseline)
      EXPECT_EQ(lower_cover(m, sibling, sharded),
                lower_cover(m, sibling, legacy))
          << sibling.to_string();
    current = baseline.front();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupEquivalenceRandom,
                         ::testing::Range<std::uint64_t>(1, 9));

// The fused evaluator (pruned MergeClosureEngine closures) must emit
// exactly the classic evaluator's cover — same elements, same
// first-occurrence order — serially and at any thread count, at every node
// of a descent and at each sibling. Products of two random machines have
// 65+ states, so the identity's cover spans several kChunkPairs chunks.
void expect_fused_matches_classic_down_a_descent(const Dfsm& m) {
  obs::Obs obs;
  // Thread count 0 runs the fused evaluator serially (parallel = false).
  std::vector<std::pair<std::size_t, LowerCoverOptions>> fused_configs;
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
    LowerCoverOptions fused;
    fused.fused = true;
    fused.obs = &obs;
    if (threads == 0) {
      fused.parallel = false;
    } else {
      pools.push_back(std::make_unique<ThreadPool>(threads));
      fused.pool = pools.back().get();
    }
    fused_configs.emplace_back(threads, fused);
  }
  const LowerCoverOptions classic;  // fused = false: the oracle
  const auto expect_same = [&](const Partition& p,
                               const std::vector<Partition>& baseline) {
    for (const auto& [threads, fused] : fused_configs)
      EXPECT_EQ(lower_cover(m, p, fused), baseline)
          << "threads=" << threads << " at " << p.to_string();
  };

  Partition current = Partition::identity(m.size());
  while (true) {
    const auto baseline = lower_cover(m, current, classic);
    expect_same(current, baseline);
    if (baseline.empty()) break;
    for (const Partition& sibling : baseline)
      expect_same(sibling, lower_cover(m, sibling, classic));
    current = baseline.front();
  }
  // A pruning rule that never fires would pass the equality checks too.
  EXPECT_GT(obs.snapshot().counters["gen.closures_pruned"], 0u);
}

class FusedEquivalenceRandom : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FusedEquivalenceRandom, FusedMatchesClassicDownARandomLattice) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 10;
  spec.num_events = 3;
  spec.seed = GetParam();
  expect_fused_matches_classic_down_a_descent(
      make_random_connected_dfsm(al, "m", spec));
}

TEST_P(FusedEquivalenceRandom, FusedMatchesClassicOnARandomProduct) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  for (std::uint64_t i = 0; i < 2; ++i) {
    RandomDfsmSpec spec;
    spec.states = 11;
    spec.num_events = 2;
    spec.seed = GetParam() * 2 + i;
    machines.push_back(make_random_connected_dfsm(
        al, "m" + std::to_string(i), spec));
  }
  const CrossProduct cp = reachable_cross_product(machines);
  // C(65,2) = 2080 pairs: the identity's cover spans at least two chunks.
  ASSERT_GE(cp.top.size(), 65u);
  expect_fused_matches_classic_down_a_descent(cp.top);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedEquivalenceRandom,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(FusedEquivalence, FusedMatchesClassicOnCatalogProduct) {
  expect_fused_matches_classic_down_a_descent(
      ffsm::testing::counter_pair_product(9).top);
}

TEST(LowerCoverCache, MemoizesWithoutChangingResults) {
  const ffsm::testing::CanonicalExample ex;
  LowerCoverCache cache;
  LowerCoverOptions options;
  options.cache = &cache;

  const auto cached = lower_cover_cached(ex.top, ex.p_a, options);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cached, lower_cover(ex.top, ex.p_a));

  // Second lookup: same shared value, no recomputation.
  const auto again = lower_cover_cached(ex.top, ex.p_a, options);
  EXPECT_EQ(again.get(), cached.get());
  EXPECT_EQ(cache.hits(), 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LowerCoverCache, NullCacheStillComputes) {
  const ffsm::testing::CanonicalExample ex;
  const auto cover = lower_cover_cached(ex.top, ex.p_a);
  EXPECT_EQ(*cover, lower_cover(ex.top, ex.p_a));
}

}  // namespace
}  // namespace ffsm
