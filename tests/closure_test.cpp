#include "partition/closure.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

}  // namespace
}  // namespace ffsm
