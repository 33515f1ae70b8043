// Regression: every edge weight of the five fault graphs of Fig. 4.
//
// The figure text is partially garbled in the source material, but the
// weights are fully determined by the reconstructed partitions (see
// make_paper_machine_a in src/fsm/machine_catalog.cpp), and every weight
// quoted in the paper's prose is asserted here:
//   * (i)  G({A}):             edge (t0,t3) = 0, all others 1;
//   * (ii) G({A,B}):           dmin = 1 — edges (t0,t3), (t2,t3) weigh 1,
//                              "we can determine if > is in state t0 or t1,
//                              since the weight of that edge is greater
//                              than 1";
//   * (iii) G({A,B,M1,M2}):    "the smallest distance in the graph is 3";
//   * (iv) G({A,B,M1,TOP}):    dmin = 3 (order text: {M1, TOP} is a
//                              (2,2)-fusion);
//   * (v)  G({A,B,M6,TOP}):    dmin = 3 (the f=2 walk-through's result).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "fault/fault_graph.hpp"
#include "test_support.hpp"

namespace ffsm {
namespace {

using testing::CanonicalExample;

struct EdgeWeight {
  std::uint32_t i, j, w;
};

void expect_graph(const FaultGraph& g, const std::vector<EdgeWeight>& edges) {
  for (const auto& e : edges)
    EXPECT_EQ(g.weight(e.i, e.j), e.w)
        << "edge (t" << e.i << ",t" << e.j << ")";
}

TEST(Fig4, I_GraphOfAAlone) {
  const CanonicalExample ex;
  const std::vector<Partition> m{ex.p_a};
  const FaultGraph g = FaultGraph::build(4, m);
  expect_graph(g, {{0, 1, 1},
                   {0, 2, 1},
                   {0, 3, 0},
                   {1, 2, 1},
                   {1, 3, 1},
                   {2, 3, 1}});
  EXPECT_EQ(g.dmin(), 0u);
}

TEST(Fig4, II_GraphOfAB) {
  const CanonicalExample ex;
  const std::vector<Partition> m{ex.p_a, ex.p_b};
  const FaultGraph g = FaultGraph::build(4, m);
  expect_graph(g, {{0, 1, 2},
                   {0, 2, 2},
                   {0, 3, 1},
                   {1, 2, 2},
                   {1, 3, 2},
                   {2, 3, 1}});
  EXPECT_EQ(g.dmin(), 1u);
}

TEST(Fig4, III_GraphOfABM1M2) {
  const CanonicalExample ex;
  const std::vector<Partition> m{ex.p_a, ex.p_b, ex.p_m1, ex.p_m2};
  const FaultGraph g = FaultGraph::build(4, m);
  expect_graph(g, {{0, 1, 4},
                   {0, 2, 3},
                   {0, 3, 3},
                   {1, 2, 3},
                   {1, 3, 4},
                   {2, 3, 3}});
  EXPECT_EQ(g.dmin(), 3u);
}

TEST(Fig4, IV_GraphOfABM1Top) {
  const CanonicalExample ex;
  const std::vector<Partition> m{ex.p_a, ex.p_b, ex.p_m1, ex.p_top};
  const FaultGraph g = FaultGraph::build(4, m);
  expect_graph(g, {{0, 1, 4},
                   {0, 2, 3},
                   {0, 3, 3},
                   {1, 2, 4},
                   {1, 3, 4},
                   {2, 3, 3}});
  EXPECT_EQ(g.dmin(), 3u);
}

TEST(Fig4, V_GraphOfABM6Top) {
  const CanonicalExample ex;
  const std::vector<Partition> m{ex.p_a, ex.p_b, ex.p_m6, ex.p_top};
  const FaultGraph g = FaultGraph::build(4, m);
  expect_graph(g, {{0, 1, 3},
                   {0, 2, 3},
                   {0, 3, 3},
                   {1, 2, 3},
                   {1, 3, 4},
                   {2, 3, 3}});
  EXPECT_EQ(g.dmin(), 3u);
}

TEST(Fig4, ProseQuote_M1M6NotATwoTwoFusion) {
  // "since dmin({A, B, M1, M6}) = 2, {M1, M6} is not a (2,2)-fusion".
  const CanonicalExample ex;
  const std::vector<Partition> m{ex.p_a, ex.p_b, ex.p_m1, ex.p_m6};
  EXPECT_EQ(FaultGraph::build(4, m).dmin(), 2u);
}

TEST(Fig4, ProseQuote_ABM1HasDminTwo) {
  // "Since dmin({A, B, M1}) = 2, these machines can tolerate one fault".
  const CanonicalExample ex;
  const std::vector<Partition> m{ex.p_a, ex.p_b, ex.p_m1};
  EXPECT_EQ(FaultGraph::build(4, m).dmin(), 2u);
}

TEST(Fig4, ProseQuote_M1AloneIsAOneOneFusion) {
  // "{M1} is a (1,1)-fusion of {A,B}": dmin({A,B,M1}) = 2 > 1.
  const CanonicalExample ex;
  const std::vector<Partition> m{ex.p_a, ex.p_b, ex.p_m1};
  EXPECT_GT(FaultGraph::build(4, m).dmin(), 1u);
}

TEST(Fig4, ProseQuote_M6AloneIsAOneOneFusion) {
  const CanonicalExample ex;
  const std::vector<Partition> m{ex.p_a, ex.p_b, ex.p_m6};
  EXPECT_GT(FaultGraph::build(4, m).dmin(), 1u);
}

TEST(Fig4, ProseQuote_M2AloneIsAOneOneFusion) {
  // "Similarly, {M2} is also a (1,1)-fusion of {A,B}".
  const CanonicalExample ex;
  const std::vector<Partition> m{ex.p_a, ex.p_b, ex.p_m2};
  EXPECT_GT(FaultGraph::build(4, m).dmin(), 1u);
}

}  // namespace
}  // namespace ffsm
