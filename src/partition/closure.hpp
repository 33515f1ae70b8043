// Closed partitions and the merge closure (paper section 2.1).
//
// A partition P of a machine T's states is *closed* (an SP partition /
// congruence) when every event maps each block into a single block. The
// merge closure of (P, pairs) is the finest closed partition that is coarser
// than or equal to P and unites each given pair — exactly the "new largest
// closed partition which is less than this new (possibly not closed)
// partition" used by the paper's lower-cover construction (Definition 2).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fsm/dfsm.hpp"
#include "partition/partition.hpp"

namespace ffsm {

/// True iff every subscribed event maps each block of `p` into one block.
[[nodiscard]] bool is_closed(const Dfsm& machine, const Partition& p);

/// Finest closed partition Q with Q <= p (coarser or equal) in which every
/// pair (a,b) of `merges` shares a block.
///
/// Union-find congruence closure: seed with p's blocks and the requested
/// pairs; whenever two classes unite, their successor pairs under every
/// event are enqueued. O((N + |merges|) * |Sigma| * alpha(N)).
[[nodiscard]] Partition merge_closure(
    const Dfsm& machine, const Partition& p,
    std::span<const std::pair<State, State>> merges);

/// Batch evaluator for the lower-cover hot loop: the single-pair merge
/// closures closure(base, {a,b}) over one fixed base partition, one per
/// pair of its blocks, enumerated in lexicographic block order.
///
/// Compared to calling merge_closure per pair, the engine seeds the base
/// partition's union-find once and restores it per pair with memcpys
/// instead of re-running the seeding closure, and it stops a closure as
/// soon as it provably repeats or lies below an earlier pair's (see
/// evaluate()). Completed results are bit-identical to
/// merge_closure(machine, base, {{a,b}}).
///
/// Not thread-safe; use one engine per thread over the same base.
class MergeClosureEngine {
 public:
  /// Seeds the engine with the base partition's congruence closure. `base`
  /// must be closed (it is in the lower-cover use; the seeding still
  /// closes it otherwise, matching merge_closure's seeding semantics).
  MergeClosureEngine(const Dfsm& machine, const Partition& base);

  /// Computes closure(base, {(a,b)}) and returns true, or prunes it and
  /// returns false. Let (p,q) be the base blocks of a and b in ascending
  /// order. The closure is abandoned as soon as one of its classes holds
  /// two base blocks (c,d) that sort lexicographically before (p,q): the
  /// result would contain closure(base, {(c,d)}), so it would equal or
  /// lie strictly below the closure of an earlier pair. Equivalently, a
  /// closure completes iff the lexicographically smallest block pair it
  /// unites is (p,q) itself.
  [[nodiscard]] bool evaluate(State a, State b);

  /// Block label of every element after the last evaluate() that
  /// returned true (a union-find root, not yet first-occurrence
  /// numbered); Partition{labels} is the closure. Unspecified after a
  /// pruned call.
  [[nodiscard]] std::span<const std::uint32_t> labels() const noexcept {
    return labels_;
  }

 private:
  /// Closes the union-find over queue_. Returns false, leaving it
  /// mid-closure, once a union's class key (see seed_least_) drops below
  /// `bound`; bound 0 never stops.
  bool run(std::vector<std::uint32_t>& parent,
           std::vector<std::uint32_t>& size,
           std::vector<std::uint64_t>& least, std::uint64_t bound);

  const Dfsm& machine_;
  std::uint32_t n_ = 0;
  std::uint32_t k_ = 0;
  // Base block of every element.
  std::vector<std::uint32_t> block_;
  // Union-find snapshot after seeding with the base partition; evaluate()
  // memcpy-restores it into the scratch arrays per pair.
  std::vector<std::uint32_t> seed_parent_;
  std::vector<std::uint32_t> seed_size_;
  // Per union-find root: the two smallest base-block ids of its class,
  // packed as (smallest << 32) | second smallest, so comparing keys
  // compares block pairs lexicographically. A one-block class keeps
  // 0xffffffff as its second id.
  std::vector<std::uint64_t> seed_least_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint64_t> least_;
  std::vector<std::uint32_t> labels_;
  std::vector<std::pair<State, State>> queue_;
};

}  // namespace ffsm
