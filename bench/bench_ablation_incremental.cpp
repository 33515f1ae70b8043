// Ablation E17: incremental fault-graph maintenance versus full rebuild.
//
// Algorithm 2's outer loop adds one machine per iteration; maintaining the
// graph incrementally costs one O(N^2) update instead of an O(machines *
// N^2) rebuild. This bench quantifies the gap across top sizes and machine
// counts.
#include "bench_support.hpp"

#include "fault/fault_graph.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace ffsm;

std::vector<Partition> random_partitions(std::uint32_t n,
                                         std::size_t machines,
                                         std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Partition> out;
  for (std::size_t k = 0; k < machines; ++k) {
    std::vector<std::uint32_t> assignment(n);
    const std::uint64_t blocks = 2 + rng.below(n - 1);
    for (auto& a : assignment)
      a = static_cast<std::uint32_t>(rng.below(blocks));
    out.emplace_back(std::move(assignment));
  }
  return out;
}

void report() {
  bench::JsonReporter json("ablation_incremental");

  // Engine-level ablation: the full Algorithm 2 run with the incremental
  // engine (delta-maintained fault graph + closure memo) against the
  // recompute-everything baseline. Same results, strictly less work. The
  // baseline runs the non-speculative skeleton, whose covers come from the
  // serial classic evaluator (the oracle), so its time also carries the
  // evaluator gap; its closure and edge counts do not.
  std::printf("== Ablation: incremental engine vs full recomputation ==\n");
  {
    const CrossProduct cp = bench::counter_pair_product(12);
    const auto originals = bench::original_partitions(cp);

    GenerateOptions incremental;
    incremental.f = 2;
    incremental.incremental = true;
    GenerateOptions full = incremental;
    full.incremental = false;

    FusionResult inc_result;
    FusionResult full_result;
    const double inc_ms = json.measure_ms(
        "engine_incremental",
        [&] { inc_result = generate_fusion(cp.top, originals, incremental); },
        3, 1);
    const double full_ms = json.measure_ms(
        "engine_full_recompute",
        [&] { full_result = generate_fusion(cp.top, originals, full); }, 3,
        1);

    TextTable engine({"mode", "ms", "closures evaluated",
                      "graph edges examined", "cover cache hits"});
    engine.add_row({"incremental", std::to_string(inc_ms),
                    std::to_string(inc_result.stats.closures_evaluated),
                    std::to_string(inc_result.stats.graph_edges_examined),
                    std::to_string(inc_result.stats.cover_cache_hits)});
    engine.add_row({"full recompute (classic serial oracle)",
                    std::to_string(full_ms),
                    std::to_string(full_result.stats.closures_evaluated),
                    std::to_string(full_result.stats.graph_edges_examined),
                    std::to_string(full_result.stats.cover_cache_hits)});
    std::printf("%s", engine.to_string().c_str());
    const bool identical = inc_result.partitions == full_result.partitions;
    const bool fewer =
        inc_result.stats.closures_evaluated <
            full_result.stats.closures_evaluated &&
        inc_result.stats.graph_edges_examined <
            full_result.stats.graph_edges_examined;
    std::printf("bit-identical=%s strictly-fewer-candidates=%s\n\n",
                identical ? "yes" : "NO (BUG)", fewer ? "yes" : "NO (BUG)");
    bench::require(identical,
                   "incremental engine partitions bit-identical to full "
                   "recomputation");
    bench::require(fewer,
                   "incremental engine examines strictly fewer candidates");
    json.add_metric("engine", "bit_identical", identical ? 1.0 : 0.0);
    json.add_metric("engine", "incremental_closures",
                    static_cast<double>(inc_result.stats.closures_evaluated));
    json.add_metric(
        "engine", "full_closures",
        static_cast<double>(full_result.stats.closures_evaluated));
    json.add_metric(
        "engine", "incremental_graph_edges",
        static_cast<double>(inc_result.stats.graph_edges_examined));
    json.add_metric(
        "engine", "full_graph_edges",
        static_cast<double>(full_result.stats.graph_edges_examined));
  }

  std::printf("== Ablation: incremental vs rebuild fault graph ==\n");
  TextTable table({"N", "machines", "rebuild ms", "incremental ms",
                   "speedup"});
  for (const std::uint32_t n : {128u, 512u}) {
    for (const std::size_t machines : {8u, 32u}) {
      const auto parts = random_partitions(n, machines + 1, 3);
      constexpr int kReps = 20;

      WallTimer rebuild_timer;
      for (int r = 0; r < kReps; ++r) {
        // "Add one more machine" implemented as a full rebuild.
        benchmark::DoNotOptimize(FaultGraph::build(
            n, std::span<const Partition>(parts.data(), machines + 1)));
      }
      const double rebuild_ms = rebuild_timer.elapsed_ms() / kReps;

      FaultGraph g = FaultGraph::build(
          n, std::span<const Partition>(parts.data(), machines));
      WallTimer inc_timer;
      for (int r = 0; r < kReps; ++r) {
        g.add_machine(parts[machines]);
        g.remove_machine(parts[machines]);
      }
      const double inc_ms = inc_timer.elapsed_ms() / (2.0 * kReps);

      table.add_row({std::to_string(n), std::to_string(machines),
                     std::to_string(rebuild_ms), std::to_string(inc_ms),
                     std::to_string(rebuild_ms / inc_ms) + "x"});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
}

void rebuild(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto machines = static_cast<std::size_t>(state.range(1));
  const auto parts = random_partitions(n, machines, 5);
  for (auto _ : state)
    benchmark::DoNotOptimize(FaultGraph::build(n, parts));
}
BENCHMARK(rebuild)
    ->ArgsProduct({{64, 256, 1024}, {4, 16, 64}})
    ->Unit(benchmark::kMicrosecond);

void incremental_add_remove(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto machines = static_cast<std::size_t>(state.range(1));
  const auto parts = random_partitions(n, machines + 1, 5);
  FaultGraph g = FaultGraph::build(
      n, std::span<const Partition>(parts.data(), machines));
  for (auto _ : state) {
    g.add_machine(parts[machines]);
    g.remove_machine(parts[machines]);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(incremental_add_remove)
    ->ArgsProduct({{64, 256, 1024}, {4, 16, 64}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

FFSM_BENCH_MAIN(report)
