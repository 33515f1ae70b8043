#include "partition/closure.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/contracts.hpp"

namespace ffsm {

bool is_closed(const Dfsm& machine, const Partition& p) {
  FFSM_EXPECTS(p.size() == machine.size());
  const auto k = static_cast<std::uint32_t>(machine.events().size());
  constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
  // image[block][event] = block of the successors seen so far.
  std::vector<std::uint32_t> image(
      static_cast<std::size_t>(p.block_count()) * k, kUnset);
  for (State s = 0; s < machine.size(); ++s) {
    const std::uint32_t b = p.block_of(s);
    for (std::uint32_t e = 0; e < k; ++e) {
      const std::uint32_t target = p.block_of(machine.step_local(s, e));
      auto& slot = image[static_cast<std::size_t>(b) * k + e];
      if (slot == kUnset)
        slot = target;
      else if (slot != target)
        return false;
    }
  }
  return true;
}

namespace {

/// Plain union-find with path halving and union by size.
class UnionFind {
 public:
  explicit UnionFind(std::uint32_t n) : parent_(n), size_(n, 1) {
    for (std::uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Returns true when the two classes were distinct and are now united.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

}  // namespace

Partition merge_closure(const Dfsm& machine, const Partition& p,
                        std::span<const std::pair<State, State>> merges) {
  FFSM_EXPECTS(p.size() == machine.size());
  const std::uint32_t n = machine.size();
  const auto k = static_cast<std::uint32_t>(machine.events().size());

  UnionFind uf(n);
  std::vector<std::pair<State, State>> queue;
  queue.reserve(merges.size() + n);

  // Seed with the base partition: link every element to its block's first
  // element. The successor pairs are enqueued too, so the algorithm is
  // correct even when the base partition is not closed.
  {
    constexpr State kUnset = kInvalidState;
    std::vector<State> first(p.block_count(), kUnset);
    for (State s = 0; s < n; ++s) {
      State& f = first[p.block_of(s)];
      if (f == kUnset)
        f = s;
      else
        queue.emplace_back(f, s);
    }
  }
  queue.insert(queue.end(), merges.begin(), merges.end());

  // Congruence closure: uniting x and y forces delta(x,e) ~ delta(y,e).
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [x, y] = queue[head];
    FFSM_EXPECTS(x < n && y < n);
    if (!uf.unite(x, y)) continue;
    for (std::uint32_t e = 0; e < k; ++e)
      queue.emplace_back(machine.step_local(x, e), machine.step_local(y, e));
  }

  std::vector<std::uint32_t> assignment(n);
  for (State s = 0; s < n; ++s) assignment[s] = uf.find(s);
  Partition result{std::move(assignment)};
  FFSM_ENSURES(is_closed(machine, result));
  return result;
}

namespace {

constexpr std::uint32_t kNoBlock = static_cast<std::uint32_t>(-1);

/// Class key of a base-block pair: compares (p,q) lexicographically.
std::uint64_t pair_key(std::uint32_t p, std::uint32_t q) {
  return (static_cast<std::uint64_t>(p) << 32) | q;
}

/// Key of the union of two classes: its two smallest distinct blocks.
/// The classes may share a block only while the base is being seeded.
std::uint64_t merged_key(std::uint64_t x, std::uint64_t y) {
  const auto x1 = static_cast<std::uint32_t>(x >> 32);
  const auto x2 = static_cast<std::uint32_t>(x);
  const auto y1 = static_cast<std::uint32_t>(y >> 32);
  const auto y2 = static_cast<std::uint32_t>(y);
  if (x1 == y1) return pair_key(x1, std::min(x2, y2));
  return x1 < y1 ? pair_key(x1, std::min(x2, y1))
                 : pair_key(y1, std::min(y2, x1));
}

}  // namespace

MergeClosureEngine::MergeClosureEngine(const Dfsm& machine,
                                       const Partition& base)
    : machine_(machine) {
  FFSM_EXPECTS(base.size() == machine.size());
  n_ = machine.size();
  k_ = static_cast<std::uint32_t>(machine.events().size());
  block_.assign(base.assignment().begin(), base.assignment().end());
  seed_parent_.resize(n_);
  seed_size_.assign(n_, 1);
  seed_least_.resize(n_);
  for (std::uint32_t i = 0; i < n_; ++i) {
    seed_parent_[i] = i;
    seed_least_[i] = pair_key(block_[i], kNoBlock);
  }

  // Seed with the base partition: link every element to its block's first
  // element, then run the congruence closure once. The snapshot taken here
  // is what evaluate() restores per pair.
  std::vector<State> first(base.block_count(), kInvalidState);
  queue_.clear();
  for (State s = 0; s < n_; ++s) {
    State& f = first[base.block_of(s)];
    if (f == kInvalidState)
      f = s;
    else
      queue_.emplace_back(f, s);
  }
  run(seed_parent_, seed_size_, seed_least_, 0);

  parent_.resize(n_);
  size_.resize(n_);
  least_.resize(n_);
  labels_.resize(n_);
}

bool MergeClosureEngine::run(std::vector<std::uint32_t>& parent,
                             std::vector<std::uint32_t>& size,
                             std::vector<std::uint64_t>& least,
                             std::uint64_t bound) {
  // Congruence closure over the pending queue. Invariant: the seeded base
  // is already closed, so within every class all members' successors are
  // co-classed; pushing the *root representatives'* successors (instead of
  // the original pair's, as merge_closure does) therefore reaches the same
  // fixpoint — one pair per union instead of one per queue entry.
  auto find = [&parent](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const auto [a, b] = queue_[head];
    std::uint32_t x = find(a);
    std::uint32_t y = find(b);
    if (x == y) continue;
    if (size[x] < size[y]) std::swap(x, y);
    parent[y] = x;
    size[x] += size[y];
    least[x] = merged_key(least[x], least[y]);
    // Pruning (see evaluate()). Pairs are enumerated in lexicographic
    // block order, and this class now unites blocks (c,d) with
    // (c,d) <lex the pair (p,q) being closed. Every closure only
    // coarsens, so the finished result would contain closure(c,d): it
    // would be a duplicate of an earlier candidate or strictly coarser
    // than one, never the first occurrence of a maximal element. Skipping
    // it leaves the lower cover unchanged: each maximal element keeps its
    // first occurrence, and every dropped or surviving non-maximal
    // candidate stays dominated by one. The decision reads only block
    // indices, never another pair's result, so the cover and its
    // first-occurrence order (which kFirstFound depends on) are the same
    // at any thread count and chunk split.
    if (least[x] < bound) return false;
    for (std::uint32_t e = 0; e < k_; ++e)
      queue_.emplace_back(machine_.step_local(x, e),
                          machine_.step_local(y, e));
  }
  return true;
}

bool MergeClosureEngine::evaluate(State a, State b) {
  FFSM_EXPECTS(a < n_ && b < n_);
  std::memcpy(parent_.data(), seed_parent_.data(),
              static_cast<std::size_t>(n_) * sizeof(std::uint32_t));
  std::memcpy(size_.data(), seed_size_.data(),
              static_cast<std::size_t>(n_) * sizeof(std::uint32_t));
  std::memcpy(least_.data(), seed_least_.data(),
              static_cast<std::size_t>(n_) * sizeof(std::uint64_t));
  queue_.clear();
  queue_.emplace_back(a, b);
  const std::uint64_t bound = pair_key(std::min(block_[a], block_[b]),
                                       std::max(block_[a], block_[b]));
  if (!run(parent_, size_, least_, bound)) return false;

  for (std::uint32_t i = 0; i < n_; ++i) {
    std::uint32_t x = i;
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    labels_[i] = x;
  }
  return true;
}

}  // namespace ffsm
