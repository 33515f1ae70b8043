#include "fusion/minimality.hpp"

#include <vector>

#include "fusion/fusion.hpp"
#include "util/contracts.hpp"

namespace ffsm {

bool is_minimal_fusion(const Dfsm& top, std::span<const Partition> originals,
                       std::span<const Partition> fusion, std::uint32_t f) {
  if (!is_fusion(top.size(), originals, fusion, f)) return false;

  std::vector<Partition> candidate(fusion.begin(), fusion.end());
  for (std::size_t i = 0; i < candidate.size(); ++i) {
    const Partition saved = candidate[i];
    for (Partition& replacement : lower_cover_classic(top, saved)) {
      candidate[i] = std::move(replacement);
      if (is_fusion(top.size(), originals, candidate, f)) return false;
    }
    candidate[i] = saved;
  }
  return true;
}

}  // namespace ffsm
