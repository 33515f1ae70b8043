#include "partition/lattice.hpp"

#include <optional>
#include <sstream>
#include <unordered_map>

#include "util/contracts.hpp"

namespace ffsm {

std::uint32_t ClosedPartitionLattice::bottom_index() const {
  for (std::uint32_t i = 0; i < nodes.size(); ++i)
    if (nodes[i].partition.block_count() == 1) return i;
  throw ContractViolation("lattice has no bottom node");
}

std::optional<std::uint32_t> ClosedPartitionLattice::find(
    const Partition& p) const {
  for (std::uint32_t i = 0; i < nodes.size(); ++i)
    if (nodes[i].partition == p) return i;
  return std::nullopt;
}

std::vector<std::uint32_t> ClosedPartitionLattice::basis() const {
  return nodes[top_index()].lower;
}

ClosedPartitionLattice enumerate_lattice(const Dfsm& machine,
                                         std::size_t max_nodes) {
  ClosedPartitionLattice lattice;
  std::unordered_map<Partition, std::uint32_t, PartitionHash> index;

  const auto intern = [&](Partition p) -> std::uint32_t {
    const auto it = index.find(p);
    if (it != index.end()) return it->second;
    if (lattice.nodes.size() >= max_nodes)
      throw ContractViolation(
          "enumerate_lattice: closed partition lattice exceeds max_nodes");
    const auto id = static_cast<std::uint32_t>(lattice.nodes.size());
    lattice.nodes.push_back(LatticeNode{p, {}});
    index.emplace(std::move(p), id);
    return id;
  };

  intern(Partition::identity(machine.size()));
  for (std::uint32_t head = 0; head < lattice.nodes.size(); ++head) {
    // Copy: intern() may grow the node vector while we iterate the cover.
    const Partition current = lattice.nodes[head].partition;
    std::vector<std::uint32_t> lower;
    for (Partition& below : lower_cover_classic(machine, current))
      lower.push_back(intern(std::move(below)));
    lattice.nodes[head].lower = std::move(lower);
  }
  return lattice;
}

std::string lattice_to_dot(const ClosedPartitionLattice& lattice,
                           const Dfsm& machine) {
  std::ostringstream out;
  out << "digraph lattice {\n  rankdir=TB;\n  node [shape=box];\n";
  for (std::uint32_t i = 0; i < lattice.nodes.size(); ++i) {
    const auto& p = lattice.nodes[i].partition;
    out << "  n" << i << " [label=\""
        << p.to_string([&machine](std::uint32_t s) {
             return machine.state_name(s);
           })
        << "\"];\n";
  }
  for (std::uint32_t i = 0; i < lattice.nodes.size(); ++i)
    for (const std::uint32_t j : lattice.nodes[i].lower)
      out << "  n" << i << " -> n" << j << ";\n";
  out << "}\n";
  return out.str();
}

}  // namespace ffsm
