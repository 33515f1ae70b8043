// Locks in every fact the paper states about its running example
// (Figs. 2, 3 and the prose of sections 2-5) against the reconstruction in
// src/fsm/machine_catalog.cpp. Fault-graph weights live in
// paper_fig4_test.cpp and the algorithms' walk-throughs in generator_test.cpp
// / recovery_test.cpp; this file covers the structural claims.
#include <gtest/gtest.h>

#include <vector>

#include "fsm/isomorphism.hpp"
#include "fsm/product.hpp"
#include "partition/closure.hpp"
#include "partition/lattice.hpp"
#include "partition/lower_cover.hpp"
#include "partition/quotient.hpp"
#include "recovery/set_representation.hpp"
#include "test_support.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;

TEST(Canonical, CrossProductOfABHasFourStates) {
  // Fig. 2(iii): R({A,B}) = {r0, r1, r2, r3}.
  const CanonicalExample ex;
  const std::vector<Dfsm> machines{ex.a, ex.b};
  EXPECT_EQ(reachable_cross_product(machines).top.size(), 4u);
}

TEST(Canonical, CrossProductIsomorphicToPaperTop) {
  const CanonicalExample ex;
  const std::vector<Dfsm> machines{ex.a, ex.b};
  EXPECT_TRUE(isomorphic(reachable_cross_product(machines).top, ex.top));
}

TEST(Canonical, TupleStructureMatchesFig2) {
  // Fig. 2 lists the product states {a0,b0}, {a1,b1}, {a2,b2}, {a0,b2}.
  const CanonicalExample ex;
  const std::vector<Dfsm> machines{ex.a, ex.b};
  const CrossProduct cp = reachable_cross_product(machines);
  std::vector<std::string> labels;
  for (State t = 0; t < 4; ++t) labels.push_back(cp.tuple_label(t, machines));
  EXPECT_NE(std::find(labels.begin(), labels.end(), "{a0,b0}"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "{a1,b1}"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "{a2,b2}"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "{a0,b2}"), labels.end());
}

TEST(Canonical, SetRepresentationsQuotedInSection3) {
  // "The machine A has three states, {t0,t3}, {t1} and {t2}."
  const CanonicalExample ex;
  const SetRepresentation rep_a = set_representation(ex.top, ex.a);
  EXPECT_EQ(rep_a.sets[0], (std::vector<State>{0, 3}));
  EXPECT_EQ(rep_a.sets[1], (std::vector<State>{1}));
  EXPECT_EQ(rep_a.sets[2], (std::vector<State>{2}));
}

TEST(Canonical, MachinesALessThanTopAndBLessThanTop) {
  // Section 2: every machine in A is <= R(A). In partition terms the
  // component partitions are below the identity.
  const CanonicalExample ex;
  EXPECT_TRUE(Partition::less(ex.p_a, ex.p_top));
  EXPECT_TRUE(Partition::less(ex.p_b, ex.p_top));
}

TEST(Canonical, M1QuotedBlocks) {
  // "M1 has 3 states, {r0,r2}, {r1} and {r3}" — in the paper's t-numbering
  // {t0,t2}, {t1}, {t3}.
  const CanonicalExample ex;
  const auto blocks = ex.p_m1.blocks();
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0], (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(blocks[1], (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(blocks[2], (std::vector<std::uint32_t>{3}));
}

TEST(Canonical, WhenTopInR1M1InM1) {
  // "When R({A,B}) is in state r1, M1 is in state m1" — block of t1.
  const CanonicalExample ex;
  const Dfsm m1 = quotient_machine(ex.top, ex.p_m1, "M1");
  // Drive both to t1 (one event-0 step from start).
  const EventId e0 = *ex.alphabet->find("0");
  const State t = ex.top.step(ex.top.initial(), e0);
  EXPECT_EQ(t, 1u);
  EXPECT_EQ(m1.step(m1.initial(), e0), ex.p_m1.block_of(1));
}

TEST(Canonical, LatticeHasTenElementsWithQuotedStructure) {
  const CanonicalExample ex;
  const ClosedPartitionLattice lattice = enumerate_lattice(ex.top);
  EXPECT_EQ(lattice.nodes.size(), 10u);
  // Bottom "is always a single block partition containing all the states".
  EXPECT_EQ(lattice.nodes[lattice.bottom_index()].partition.block_count(),
            1u);
}

TEST(Canonical, BothABInLattice) {
  // "Both A and B are contained in the lattice."
  const CanonicalExample ex;
  const ClosedPartitionLattice lattice = enumerate_lattice(ex.top);
  EXPECT_TRUE(lattice.find(ex.p_a).has_value());
  EXPECT_TRUE(lattice.find(ex.p_b).has_value());
}

TEST(Canonical, EveryQuotientMachineIsWellFormed) {
  const CanonicalExample ex;
  for (const Partition& p :
       {ex.p_a, ex.p_b, ex.p_m1, ex.p_m2, ex.p_m3, ex.p_m4, ex.p_m5,
        ex.p_m6}) {
    const Dfsm q = quotient_machine(ex.top, p, "q");
    EXPECT_EQ(q.size(), p.block_count());
  }
}

TEST(Canonical, QuotientOfPAIsIsomorphicToA) {
  // The abstract machine corresponding to A's partition is A itself.
  const CanonicalExample ex;
  const Dfsm qa = quotient_machine(ex.top, ex.p_a, "qa");
  EXPECT_TRUE(isomorphic(qa, ex.a));
  const Dfsm qb = quotient_machine(ex.top, ex.p_b, "qb");
  EXPECT_TRUE(isomorphic(qb, ex.b));
}

TEST(Canonical, LowerCoverClaimsOfFig3) {
  const CanonicalExample ex;
  // Lower cover of A = {M3, M4}; of M1 = {M3, M6} (section 5.1); basis =
  // {A, B, M1, M2}. Checked here through the lattice object.
  const ClosedPartitionLattice lattice = enumerate_lattice(ex.top);
  const auto at = [&](const Partition& p) {
    const auto idx = lattice.find(p);
    EXPECT_TRUE(idx.has_value()) << p.to_string();
    return *idx;
  };
  const auto& a_cover = lattice.nodes[at(ex.p_a)].lower;
  EXPECT_EQ(a_cover.size(), 2u);
  const auto& m1_cover = lattice.nodes[at(ex.p_m1)].lower;
  EXPECT_EQ(m1_cover.size(), 2u);
  std::vector<Partition> m1_below;
  for (const auto i : m1_cover) m1_below.push_back(lattice.nodes[i].partition);
  EXPECT_NE(std::find(m1_below.begin(), m1_below.end(), ex.p_m3),
            m1_below.end());
  EXPECT_NE(std::find(m1_below.begin(), m1_below.end(), ex.p_m6),
            m1_below.end());
}

TEST(Canonical, M5AndM6CoverOnlyBottom) {
  const CanonicalExample ex;
  for (const Partition& p : {ex.p_m5, ex.p_m6, ex.p_m3, ex.p_m4}) {
    const auto cover = lower_cover(ex.top, p);
    ASSERT_EQ(cover.size(), 1u) << p.to_string();
    EXPECT_EQ(cover[0], ex.p_bottom);
  }
}

}  // namespace
}  // namespace ffsm
