// Shared fixtures for the test suite: the paper's canonical running example
// (Figs. 2-5) in the paper's own state numbering, plus small literal-partition
// helpers.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "partition/partition.hpp"
#include "util/contracts.hpp"

namespace ffsm::testing {

/// Partition from a literal block assignment, e.g. pt({0,1,2,0}) is the
/// paper's machine A = {t0,t3}{t1}{t2}.
inline Partition pt(std::initializer_list<std::uint32_t> assignment) {
  return Partition(std::vector<std::uint32_t>(assignment));
}

/// Two catalog mod-k counters crossed into a k*k-state top — the standard
/// "large enough that the parallel paths engage" fixture for engine tests.
inline CrossProduct counter_pair_product(std::uint32_t k = 8) {
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "A", k, "0"));
  machines.push_back(make_mod_counter(alphabet, "B", k, "1"));
  return reachable_cross_product(machines);
}

/// The product's originals as closed partitions of its top.
inline std::vector<Partition> component_partitions(const CrossProduct& cp) {
  std::vector<Partition> out;
  out.reserve(cp.machine_count());
  for (std::uint32_t i = 0; i < cp.machine_count(); ++i)
    out.emplace_back(cp.component_assignment(i));
  return out;
}

/// The reconstructed running example of the paper (see make_paper_machine_a
/// in src/fsm/machine_catalog.cpp).
/// All partitions use the paper's top-state numbering t0..t3, i.e. they
/// partition make_paper_top()'s states.
struct CanonicalExample {
  std::shared_ptr<Alphabet> alphabet = Alphabet::create();
  Dfsm a = make_paper_machine_a(alphabet);
  Dfsm b = make_paper_machine_b(alphabet);
  Dfsm top = make_paper_top(alphabet);

  // The ten closed partitions of Fig. 3.
  Partition p_top = Partition::identity(4);
  Partition p_a = pt({0, 1, 2, 0});        // {t0,t3}{t1}{t2}
  Partition p_b = pt({0, 1, 2, 2});        // {t0}{t1}{t2,t3}
  Partition p_m1 = pt({0, 1, 0, 2});       // {t0,t2}{t1}{t3}
  Partition p_m2 = pt({0, 1, 1, 2});       // {t0}{t1,t2}{t3}
  Partition p_m3 = pt({0, 1, 0, 0});       // {t0,t2,t3}{t1}
  Partition p_m4 = pt({0, 1, 1, 0});       // {t0,t3}{t1,t2}
  Partition p_m5 = pt({0, 1, 1, 1});       // {t0}{t1,t2,t3}
  Partition p_m6 = pt({0, 0, 0, 1});       // {t0,t1,t2}{t3}
  Partition p_bottom = Partition::single_block(4);

  std::vector<Partition> originals() const { return {p_a, p_b}; }
};

}  // namespace ffsm::testing
