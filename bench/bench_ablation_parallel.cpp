// Ablation E18: thread-pool fan-out of the two parallel hot paths —
// fault-graph construction (rows of the triangular weight matrix) and
// lower-cover evaluation (lower_cover, the pruned fused evaluator: fixed
// chunks of block-pair closures, then the maximality filter's rows). The
// lower_cover_t* rows time that evaluator. Sweeps explicit pool sizes so
// the speedup curve is visible on one machine.
#include "bench_support.hpp"

#include "fault/fault_graph.hpp"
#include "partition/lower_cover.hpp"
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

Dfsm big_counter_top() {
  return bench::counter_pair_product(16).top;  // 256 states
}

void report() {
  bench::JsonReporter json("ablation_parallel");
  std::printf("== Ablation: parallel speedup ==\n");
  const Dfsm top = big_counter_top();
  const Partition identity = Partition::identity(top.size());
  const auto parts = random_partitions(2048, 16, 9);

  std::vector<Partition> serial_cover;
  TextTable table({"threads", "lower_cover(256-top) ms",
                   "fault graph(2048,16) ms"});
  for (const std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
    ThreadPool pool(threads);
    LowerCoverOptions cover_options;
    cover_options.pool = &pool;

    std::vector<Partition> cover;
    const double cover_ms = json.measure_ms(
        "lower_cover_t" + std::to_string(threads),
        [&] { cover = lower_cover(top, identity, cover_options); }, 3, 1);
    if (threads == 1)
      serial_cover = cover;
    else
      bench::require(cover == serial_cover,
                     "lower cover independent of thread count");

    FaultGraphOptions graph_options;
    graph_options.pool = &pool;
    const double graph_ms = json.measure_ms(
        "fault_graph_t" + std::to_string(threads),
        [&] {
          benchmark::DoNotOptimize(
              FaultGraph::build(2048, parts, graph_options));
        },
        3, 1);

    table.add_row({std::to_string(threads), std::to_string(cover_ms),
                   std::to_string(graph_ms)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Batched multi-client fan-out: many fusion requests sharing one top,
  // served by generate_fusion_batch with a shared closure cache, against
  // the same requests served one by one without sharing.
  std::printf("== Ablation: batched requests vs one-by-one ==\n");
  {
    const CrossProduct cp = bench::counter_pair_product(12);
    const auto originals = bench::original_partitions(cp);

    std::vector<FusionRequest> requests;
    for (std::uint32_t c = 0; c < 8; ++c) {
      FusionRequest r;
      r.originals = originals;
      r.f = 1 + c % 3;
      requests.push_back(std::move(r));
    }

    ThreadPool pool(8);
    const double one_by_one_ms = json.measure_ms(
        "requests8_one_by_one",
        [&] {
          for (const FusionRequest& r : requests) {
            GenerateOptions options;
            options.f = r.f;
            options.policy = r.policy;
            options.pool = &pool;
            benchmark::DoNotOptimize(
                generate_fusion(cp.top, r.originals, options));
          }
        },
        3, 1);
    const double batched_ms = json.measure_ms(
        "requests8_batched",
        [&] {
          BatchOptions options;
          options.pool = &pool;
          benchmark::DoNotOptimize(
              generate_fusion_batch(cp.top, requests, options));
        },
        3, 1);
    std::printf("8 requests: one-by-one %.2f ms, batched %.2f ms "
                "(%.2fx)\n\n",
                one_by_one_ms, batched_ms,
                batched_ms > 0 ? one_by_one_ms / batched_ms : 0.0);
    json.add_metric("requests8", "batch_speedup",
                    batched_ms > 0 ? one_by_one_ms / batched_ms : 0.0);
  }
}

void lower_cover_threads(benchmark::State& state) {
  const Dfsm top = big_counter_top();
  const Partition identity = Partition::identity(top.size());
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  LowerCoverOptions options;
  options.pool = &pool;
  for (auto _ : state)
    benchmark::DoNotOptimize(lower_cover(top, identity, options));
}
BENCHMARK(lower_cover_threads)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void fault_graph_threads(benchmark::State& state) {
  const auto parts = random_partitions(2048, 16, 9);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  FaultGraphOptions options;
  options.pool = &pool;
  for (auto _ : state)
    benchmark::DoNotOptimize(FaultGraph::build(2048, parts, options));
}
BENCHMARK(fault_graph_threads)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void serial_vs_parallel_generation(benchmark::State& state) {
  // End-to-end Algorithm 2: the serial skeleton (the classic-evaluator
  // oracle) against the speculative engine.
  const CrossProduct cp = bench::counter_pair_product(12);
  const auto originals = bench::original_partitions(cp);
  GenerateOptions options;
  options.f = 1;
  options.parallel = state.range(0) != 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_fusion(cp.top, originals, options));
  state.SetLabel(options.parallel ? "parallel" : "serial");
}
BENCHMARK(serial_vs_parallel_generation)
    ->DenseRange(0, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

FFSM_BENCH_MAIN(report)
