// Bounded enumeration of the closed partition lattice (paper Fig. 3).
//
// The lattice of all closed partitions of a machine can be exponentially
// large; the paper stresses that the fusion algorithm never materialises it.
// This module exists for the *small* cases — reproducing Fig. 3, exploring
// examples, and the exhaustive oracles in tests. Enumeration walks
// downward from the identity partition through lower covers with
// deduplication and a hard node cap.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fsm/dfsm.hpp"
#include "partition/lower_cover.hpp"
#include "partition/partition.hpp"

namespace ffsm {

struct LatticeNode {
  Partition partition;
  /// Indices of this node's lower cover within ClosedPartitionLattice::nodes.
  std::vector<std::uint32_t> lower;
};

/// The full closed partition lattice of a machine, nodes in BFS order from
/// the identity partition (so node 0 is the paper's top and the last node
/// found with one block is the bottom).
struct ClosedPartitionLattice {
  std::vector<LatticeNode> nodes;

  [[nodiscard]] std::uint32_t top_index() const noexcept { return 0; }
  [[nodiscard]] std::uint32_t bottom_index() const;

  /// Index of an equal partition, if present.
  [[nodiscard]] std::optional<std::uint32_t> find(const Partition& p) const;

  /// Elements of the basis: the lower cover of the top (paper section 2.1).
  [[nodiscard]] std::vector<std::uint32_t> basis() const;
};

/// Enumerates every closed partition of `machine` through the classic
/// evaluator (lower_cover_classic), so the exhaustive oracles built on the
/// lattice stay independent of lower_cover. Throws ContractViolation when
/// more than `max_nodes` distinct closed partitions exist.
[[nodiscard]] ClosedPartitionLattice enumerate_lattice(
    const Dfsm& machine, std::size_t max_nodes = 4096);

/// Graphviz rendering of the cover relation; node labels show the blocks
/// using the machine's state names.
[[nodiscard]] std::string lattice_to_dot(const ClosedPartitionLattice& lattice,
                                         const Dfsm& machine);

}  // namespace ffsm
