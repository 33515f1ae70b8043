#include "partition/lower_cover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fsm/random_dfsm.hpp"
#include "partition/closure.hpp"
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
  EXPECT_THROW((void)lower_cover_classic(ex.top, pt({0, 0, 1, 2})),
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

// Every set partition of {0, .., n-1}, one per restricted growth string
// (a[0] = 0, a[i] <= 1 + max(a[0..i-1])): Bell(n) of them.
std::vector<Partition> all_set_partitions(std::uint32_t n) {
  std::vector<Partition> out;
  std::vector<std::uint32_t> labels(n, 0);
  const auto extend = [&](const auto& self, std::uint32_t i,
                          std::uint32_t blocks) -> void {
    if (i == n) {
      out.emplace_back(labels);
      return;
    }
    for (std::uint32_t b = 0; b <= blocks; ++b) {
      labels[i] = b;
      self(self, i + 1, std::max(blocks, b + 1));
    }
  };
  extend(extend, 1, 1);
  return out;
}

// Cross-check against the definition, independent of both evaluators:
// enumerate every set partition of m's 6 states, keep the closed ones, and
// require each evaluator's lower cover of every closed partition to be
// exactly the maximal closed partitions strictly below it. Returns the
// number of closed partitions checked.
std::size_t expect_covers_match_definition(const Dfsm& m) {
  const std::vector<Partition> partitions = all_set_partitions(m.size());
  EXPECT_EQ(partitions.size(), 203u);  // Bell(6)
  std::vector<Partition> closed;
  for (const Partition& p : partitions)
    if (is_closed(m, p)) closed.push_back(p);

  for (const Partition& node : closed) {
    std::vector<Partition> below;
    for (const Partition& other : closed)
      if (Partition::less(other, node)) below.push_back(other);
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

    for (const auto& [name, cover] :
         {std::pair{"lower_cover", lower_cover(m, node)},
          std::pair{"lower_cover_classic", lower_cover_classic(m, node)}}) {
      EXPECT_EQ(cover.size(), maximal.size())
          << name << " of " << node.to_string();
      for (const auto& q : maximal)
        EXPECT_TRUE(contains(cover, q))
            << name << " of " << node.to_string() << " misses "
            << q.to_string();
    }
  }
  return closed.size();
}

class LowerCoverVsLattice : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LowerCoverVsLattice, MatchesLatticeDefinition) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 6;
  spec.num_events = 2;
  spec.seed = GetParam();
  (void)expect_covers_match_definition(
      make_random_connected_dfsm(al, "m", spec));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerCoverVsLattice,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(LowerCoverVsDefinition, StarMachineWithWideCovers) {
  // Random 6-state machines close only 2-5 partitions, with covers of at
  // most 2 elements. Here event e_i takes the hub q0 to q_i and every
  // other state back to q0, so every partition that keeps q0 alone is
  // closed: Bell(5) + 1 (the bottom) = 53 closed partitions, and the
  // identity's cover holds all C(5,2) = 10 merges of two spokes.
  auto al = Alphabet::create();
  DfsmBuilder builder("star", al);
  builder.states(6);
  for (State i = 1; i < 6; ++i) {
    const EventId e = builder.event("e" + std::to_string(i));
    builder.transition(0, e, i);
    for (State s = 1; s < 6; ++s) builder.transition(s, e, 0);
  }
  const Dfsm star = builder.build();
  EXPECT_EQ(expect_covers_match_definition(star), 53u);
  EXPECT_EQ(lower_cover(star, Partition::identity(6)).size(), 10u);
}

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
    fused.obs = &obs;
    if (threads == 0) {
      fused.parallel = false;
    } else {
      pools.push_back(std::make_unique<ThreadPool>(threads));
      fused.pool = pools.back().get();
    }
    fused_configs.emplace_back(threads, fused);
  }
  const auto expect_same = [&](const Partition& p,
                               const std::vector<Partition>& baseline) {
    for (const auto& [threads, fused] : fused_configs)
      EXPECT_EQ(lower_cover(m, p, fused), baseline)
          << "threads=" << threads << " at " << p.to_string();
  };

  Partition current = Partition::identity(m.size());
  while (true) {
    const auto baseline = lower_cover_classic(m, current);
    expect_same(current, baseline);
    if (baseline.empty()) break;
    for (const Partition& sibling : baseline)
      expect_same(sibling, lower_cover_classic(m, sibling));
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
