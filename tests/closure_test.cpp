#include "partition/closure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "fsm/product.hpp"
#include "fsm/random_dfsm.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;
using testing::pt;

TEST(IsClosed, AllTenCanonicalPartitionsAreClosed) {
  const CanonicalExample ex;
  const Partition all[] = {ex.p_top, ex.p_a,  ex.p_b,  ex.p_m1, ex.p_m2,
                           ex.p_m3,  ex.p_m4, ex.p_m5, ex.p_m6, ex.p_bottom};
  for (const auto& p : all)
    EXPECT_TRUE(is_closed(ex.top, p)) << p.to_string();
}

TEST(IsClosed, RejectsNonClosedPartition) {
  const CanonicalExample ex;
  // {t0,t1}{t2}{t3}: on event 0, t0->t1 and t1->t2 leave the block for
  // different blocks — not closed.
  EXPECT_FALSE(is_closed(ex.top, pt({0, 0, 1, 2})));
  // {t0}{t1,t3}{t2}: on event 0, t1->t2 and t3->t1 split.
  EXPECT_FALSE(is_closed(ex.top, pt({0, 1, 2, 1})));
}

TEST(IsClosed, IdentityAndSingleBlockAlwaysClosed) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 9;
  spec.num_events = 2;
  spec.seed = 13;
  const Dfsm m = make_random_connected_dfsm(al, "m", spec);
  EXPECT_TRUE(is_closed(m, Partition::identity(9)));
  EXPECT_TRUE(is_closed(m, Partition::single_block(9)));
}

TEST(MergeClosure, PaperPairMerges) {
  // The six pairwise merges of the canonical top reproduce the basis and
  // M5/M6 exactly.
  const CanonicalExample ex;
  const auto closure_of = [&](State x, State y) {
    const std::pair<State, State> pairs[] = {{x, y}};
    return merge_closure(ex.top, ex.p_top, pairs);
  };
  EXPECT_EQ(closure_of(0, 3), ex.p_a);   // merge(t0,t3) -> A
  EXPECT_EQ(closure_of(2, 3), ex.p_b);   // merge(t2,t3) -> B
  EXPECT_EQ(closure_of(0, 2), ex.p_m1);  // merge(t0,t2) -> M1
  EXPECT_EQ(closure_of(1, 2), ex.p_m2);  // merge(t1,t2) -> M2
  EXPECT_EQ(closure_of(1, 3), ex.p_m5);  // merge(t1,t3) -> M5 (cascades)
  EXPECT_EQ(closure_of(0, 1), ex.p_m6);  // merge(t0,t1) -> M6 (cascades)
}

TEST(MergeClosure, EmptyMergeReturnsBase) {
  const CanonicalExample ex;
  EXPECT_EQ(merge_closure(ex.top, ex.p_a, {}), ex.p_a);
}

TEST(MergeClosure, MergingWithinABlockIsIdentity) {
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{0, 3}};  // same block of A
  EXPECT_EQ(merge_closure(ex.top, ex.p_a, pairs), ex.p_a);
}

TEST(MergeClosure, CascadeToBottom) {
  // Merging t1,t3 inside M1 = {t0,t2}{t1}{t3} cascades to bottom:
  // successors force {t0,t2} in as well.
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{1, 3}};
  EXPECT_EQ(merge_closure(ex.top, ex.p_m1, pairs), ex.p_bottom);
}

TEST(MergeClosure, FromAToM3) {
  // Below A = {t0,t3}{t1}{t2}: merging blocks of t0 and t2 yields
  // M3 = {t0,t2,t3}{t1}.
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{0, 2}};
  EXPECT_EQ(merge_closure(ex.top, ex.p_a, pairs), ex.p_m3);
}

TEST(MergeClosure, FromAToM4) {
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{1, 2}};
  EXPECT_EQ(merge_closure(ex.top, ex.p_a, pairs), ex.p_m4);
}

TEST(MergeClosure, MultiplePairsAtOnce) {
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{0, 2}, {1, 3}};
  // merge(t0,t2) -> M1; then t1~t3 within M1 cascades to bottom.
  EXPECT_EQ(merge_closure(ex.top, ex.p_top, pairs), ex.p_bottom);
}

TEST(MergeClosure, NonClosedBaseIsRepaired) {
  // Seeding with a non-closed base must still produce a closed result that
  // is <= the base.
  const CanonicalExample ex;
  const Partition base = pt({0, 0, 1, 2});  // {t0,t1}{t2}{t3}: not closed
  const Partition result = merge_closure(ex.top, base, {});
  EXPECT_TRUE(is_closed(ex.top, result));
  EXPECT_TRUE(Partition::leq(result, base));
  // t0~t1 forces t1~t2 (event 0), then t2~t3? t1 -1-> t3, t0 -1-> t3: fine;
  // t0,t1,t2 together force nothing about t3 beyond event-1 images (all t3).
  EXPECT_EQ(result, ex.p_m6);
}

TEST(MergeClosure, OutOfRangePairThrows) {
  const CanonicalExample ex;
  const std::pair<State, State> pairs[] = {{0, 9}};
  EXPECT_THROW((void)merge_closure(ex.top, ex.p_top, pairs),
               ContractViolation);
}

// Property sweep over random machines: the closure is closed, coarser than
// the base, contains the requested pair, and is the *finest* such partition
// (checked against every closed partition obtained by brute force on tiny
// machines — here approximated: re-closing is a fixpoint and re-merging is
// idempotent).
class MergeClosureSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeClosureSweep, ClosureProperties) {
  auto al = Alphabet::create();
  RandomDfsmSpec spec;
  spec.states = 8;
  spec.num_events = 2;
  spec.seed = GetParam();
  const Dfsm m = make_random_connected_dfsm(al, "m", spec);
  const Partition top = Partition::identity(m.size());

  Xoshiro256 rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto x = static_cast<State>(rng.below(m.size()));
    const auto y = static_cast<State>(rng.below(m.size()));
    const std::pair<State, State> pairs[] = {{x, y}};
    const Partition q = merge_closure(m, top, pairs);

    EXPECT_TRUE(is_closed(m, q));
    EXPECT_TRUE(Partition::leq(q, top));
    EXPECT_FALSE(q.separates(x, y));
    // Idempotent: closing again with the same pair changes nothing.
    EXPECT_EQ(merge_closure(m, q, pairs), q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeClosureSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Lexicographically smallest pair of `base` blocks (c,d), c < d, that
/// share a block of `q` (which must be coarser or equal); (n, n) with
/// n = base.block_count() when q unites none.
std::pair<std::uint32_t, std::uint32_t> earliest_united_pair(
    const Partition& base, const Partition& q) {
  const std::uint32_t none = base.block_count();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> least(
      q.block_count(), {none, none});
  for (State s = 0; s < base.size(); ++s) {
    auto& [lo, hi] = least[q.block_of(s)];
    const std::uint32_t b = base.block_of(s);
    if (b == lo || b == hi) continue;
    if (b < lo) {
      hi = lo;
      lo = b;
    } else if (b < hi) {
      hi = b;
    }
  }
  std::pair<std::uint32_t, std::uint32_t> best{none, none};
  for (const auto& pair : least)
    if (pair.second != none) best = std::min(best, pair);
  return best;
}

// The batch engine behind the fused lower cover: for every block pair of
// several closed bases it must prune exactly when merge_closure's result
// unites a block pair sorting before the pair being closed (the rule the
// fused lower cover's bit-identity rests on), and otherwise compute
// exactly merge_closure's partition. Pairs are closed through random
// members of their blocks, in both orders, on one reused engine, so
// restores after pruned and completed calls are covered too. The machines
// are products of two random machines: their closures often stop short of
// the bottom, where a lone random machine's mostly collapse.
class MergeClosureEngineSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeClosureEngineSweep, EveryBlockPairMatchesMergeClosure) {
  auto al = Alphabet::create();
  std::vector<Dfsm> machines;
  for (std::uint64_t i = 0; i < 2; ++i) {
    RandomDfsmSpec spec;
    spec.states = 6;
    spec.num_events = 1 + GetParam() % 3;
    spec.seed = GetParam() * 2 + i;
    machines.push_back(make_random_connected_dfsm(
        al, "m" + std::to_string(i), spec));
  }
  const Dfsm m = reachable_cross_product(machines).top;
  Xoshiro256 rng(GetParam() * 17 + 3);

  // The identity plus closed bases a random merge or two below it.
  std::vector<Partition> bases = {Partition::identity(m.size())};
  for (int i = 0; i < 3; ++i) {
    const std::pair<State, State> merge[] = {
        {static_cast<State>(rng.below(m.size())),
         static_cast<State>(rng.below(m.size()))}};
    bases.push_back(merge_closure(m, bases[i % 2], merge));
  }

  std::uint64_t completed = 0;
  std::uint64_t pruned = 0;
  for (const Partition& base : bases) {
    const auto members = base.blocks();
    const auto blocks = static_cast<std::uint32_t>(members.size());
    MergeClosureEngine engine(m, base);
    for (std::uint32_t i = 0; i < blocks; ++i)
      for (std::uint32_t j = i + 1; j < blocks; ++j) {
        State a = members[i][rng.below(members[i].size())];
        State b = members[j][rng.below(members[j].size())];
        if (rng.below(2) == 1) std::swap(a, b);
        const std::pair<State, State> merge[] = {{a, b}};
        const Partition expected = merge_closure(m, base, merge);
        const bool earlier =
            earliest_united_pair(base, expected) < std::pair{i, j};
        const bool done = engine.evaluate(a, b);
        EXPECT_EQ(done, !earlier) << base.to_string() << " pair " << i
                                  << "," << j;
        if (done) {
          const auto labels = engine.labels();
          const Partition got{
              std::vector<std::uint32_t>(labels.begin(), labels.end())};
          EXPECT_EQ(got, expected)
              << base.to_string() << " pair " << i << "," << j;
          ++completed;
        } else {
          ++pruned;
        }
      }
  }
  EXPECT_GT(completed, 0u);
  EXPECT_GT(pruned, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeClosureEngineSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace ffsm
