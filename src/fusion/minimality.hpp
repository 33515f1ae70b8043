// Minimality of an (f, m)-fusion (paper Definition 6 / Theorem 5).
//
// F is minimal when no (f, m)-fusion G exists with G < F. A full search over
// all fusions is infeasible, but a local criterion is exact:
//
//   F is minimal  iff  no single component Fi can be replaced by an element
//   of lower_cover(Fi) while preserving the fusion property.
//
// Soundness of the criterion: suppose G < F via a matching with Gj < Fj.
// Every element strictly below Fj in the lattice lies below some element R
// of Fj's lower cover with Gj <= R < Fj. The fusion predicate is monotone in
// each coordinate (finer partitions separate a superset of pairs, so every
// edge weight is >=), and (F \ {Fj}) ∪ {R} dominates G coordinatewise; since
// G is a fusion, so is the replacement. Contrapositive: if every single
// lower-cover replacement breaks the fusion property, no G < F can be a
// fusion.
#pragma once

#include <cstdint>
#include <span>

#include "fsm/dfsm.hpp"
#include "partition/lower_cover.hpp"
#include "partition/partition.hpp"

namespace ffsm {

/// True iff `fusion` is a minimal (f, |fusion|)-fusion of `originals`.
/// Also returns false when `fusion` is not a fusion at all. A checker, so
/// it walks lower covers with the classic evaluator (lower_cover_classic).
[[nodiscard]] bool is_minimal_fusion(const Dfsm& top,
                                     std::span<const Partition> originals,
                                     std::span<const Partition> fusion,
                                     std::uint32_t f);

}  // namespace ffsm
