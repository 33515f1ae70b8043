// Experiment E13: Algorithm 2's cost and its complexity shape.
//
// The paper proves O(N^3 * |Sigma| * f) for a top with N states and reports
// a 13.2-minute worst case on 2009 hardware for its table; here we sweep N
// (via random machine pairs and counter grids), |Sigma| and f and report
// wall-clock plus the generator's own work counters so the scaling curve is
// visible directly in the benchmark output.
#include "bench_support.hpp"

#include <algorithm>
#include <thread>

#include "fsm/random_dfsm.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace ffsm;

std::string fmt2(double value, const char* suffix = "") {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%s", value, suffix);
  return buf;
}

CrossProduct random_pair_product(std::uint32_t states_each,
                                 std::uint32_t events, std::uint64_t seed) {
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  for (std::uint32_t i = 0; i < 2; ++i) {
    RandomDfsmSpec spec;
    spec.states = states_each;
    spec.num_events = events;
    spec.seed = seed + i;
    machines.push_back(make_random_connected_dfsm(
        alphabet, "m" + std::to_string(i), spec));
  }
  return reachable_cross_product(machines);
}

void report() {
  bench::JsonReporter json("alg2_generate");

  std::printf("== Algorithm 2 generation cost (random machine pairs) ==\n");
  // closures is where the time goes: a top whose descent is short still
  // pays C(N,2) pair closures for the identity partition's lower cover.
  TextTable table({"|top|", "|Sigma|", "f", "machines", "descents",
                   "candidates", "closures", "ms"});
  for (const std::uint32_t states : {6u, 10u, 14u, 18u}) {
    for (const std::uint32_t f : {1u, 2u}) {
      const CrossProduct cp = random_pair_product(states, 2, 77);
      GenerateOptions options;
      options.f = f;
      WallTimer timer;
      const FusionResult result =
          generate_fusion(cp.top, bench::original_partitions(cp), options);
      table.add_row({std::to_string(cp.top.size()), "2", std::to_string(f),
                     std::to_string(result.partitions.size()),
                     std::to_string(result.stats.descent_steps),
                     std::to_string(result.stats.candidates_examined),
                     std::to_string(result.stats.closures_evaluated),
                     std::to_string(timer.elapsed_ms())});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf(
      "== Catalog machines, f=2: classic oracle vs speculative thread "
      "sweep ==\n");
  std::printf("hardware_concurrency=%u\n",
              std::thread::hardware_concurrency());
  // Two 16-state catalog counters, 256-state top: big enough that the
  // identity partition's lower cover (C(256,2) closures) dominates.
  const CrossProduct cp = bench::counter_pair_product(16);
  const auto originals = bench::original_partitions(cp);

  // The serial run is the oracle, not a baseline: it evaluates every pair
  // closure with the classic evaluator, while the speculative runs use the
  // pruned fused one. "vs classic" therefore mixes the evaluator's gain
  // with the threads'; "vs 1 thread" is the thread gain alone.
  GenerateOptions serial;
  serial.f = 2;
  serial.parallel = false;
  FusionResult serial_result;
  const double serial_ms = json.measure_ms(
      "catalog_f2_serial",
      [&] { serial_result = generate_fusion(cp.top, originals, serial); },
      3, 1);

  TextTable sweep({"threads", "ms", "vs classic", "vs 1 thread", "closures",
                   "spec launched", "spec hits", "spec wasted"});
  sweep.add_row({"classic oracle (serial)", fmt2(serial_ms), "1.00x", "-",
                 std::to_string(serial_result.stats.closures_evaluated), "-",
                 "-", "-"});
  // Clamp the sweep to the machine: sweeping 8 speculation threads on a
  // 1- or 2-core runner measures scheduler contention, not the descent —
  // and its timings pollute the perf history with noise.
  const std::uint32_t max_threads =
      std::max(1u, std::thread::hardware_concurrency());
  double one_thread_ms = 0.0;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    if (threads > max_threads) continue;
    ThreadPool pool(threads);
    GenerateOptions parallel;
    parallel.f = 2;
    parallel.parallel = true;
    parallel.pool = &pool;
    FusionResult parallel_result;
    const std::string label =
        "catalog_f2_parallel" + std::to_string(threads);
    const double parallel_ms = json.measure_ms(
        label,
        [&] {
          parallel_result = generate_fusion(cp.top, originals, parallel);
        },
        3, 1);
    if (threads == 1) one_thread_ms = parallel_ms;
    const bool identical =
        serial_result.partitions == parallel_result.partitions;
    const double speedup = parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
    const double thread_gain =
        parallel_ms > 0 ? one_thread_ms / parallel_ms : 0.0;
    json.add_metric("catalog_f2",
                    "speedup_" + std::to_string(threads) + "threads",
                    speedup);
    json.add_metric("catalog_f2",
                    "thread_gain_" + std::to_string(threads) + "threads",
                    thread_gain);
    const GenerateStats& s = parallel_result.stats;
    sweep.add_row({std::to_string(threads), fmt2(parallel_ms),
                   fmt2(speedup, "x"), fmt2(thread_gain, "x"),
                   std::to_string(s.closures_evaluated),
                   std::to_string(s.speculative_covers_launched),
                   std::to_string(s.speculation_hits),
                   std::to_string(s.speculation_wasted_closures)});
    bench::require(
        identical,
        ("catalog f=2 speculative partitions bit-identical to serial at " +
         std::to_string(threads) + " threads")
            .c_str());
  }
  json.add_metric("catalog_f2", "bit_identical", 1.0);
  json.add_metric("catalog_f2", "machines_added",
                  static_cast<double>(serial_result.stats.machines_added));
  std::printf("top=%u\n%s\n", cp.top.size(), sweep.to_string().c_str());
}

void generate_random_pairs(benchmark::State& state) {
  const auto states = static_cast<std::uint32_t>(state.range(0));
  const auto f = static_cast<std::uint32_t>(state.range(1));
  const CrossProduct cp = random_pair_product(states, 2, 123);
  const auto originals = bench::original_partitions(cp);
  GenerateOptions options;
  options.f = f;
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_fusion(cp.top, originals, options));
  state.counters["top_states"] = cp.top.size();
}
BENCHMARK(generate_random_pairs)
    ->ArgsProduct({{6, 10, 14, 18}, {1, 2}})
    ->Unit(benchmark::kMillisecond);

void generate_counter_grid(benchmark::State& state) {
  // Structured tops (k x k counter grids) descend far faster than the worst
  // case: block counts collapse geometrically along the lattice path.
  const auto k = static_cast<std::uint32_t>(state.range(0));
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "A", k, "0"));
  machines.push_back(make_mod_counter(alphabet, "B", k, "1"));
  const CrossProduct cp = reachable_cross_product(machines);
  const auto originals = bench::original_partitions(cp);
  GenerateOptions options;
  options.f = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_fusion(cp.top, originals, options));
  state.counters["top_states"] = cp.top.size();
}
BENCHMARK(generate_counter_grid)
    ->DenseRange(4, 16, 4)
    ->Unit(benchmark::kMillisecond);

void generate_event_sweep(benchmark::State& state) {
  // |Sigma| dependence at fixed top size.
  const auto events = static_cast<std::uint32_t>(state.range(0));
  const CrossProduct cp = random_pair_product(10, events, 31);
  const auto originals = bench::original_partitions(cp);
  GenerateOptions options;
  options.f = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(generate_fusion(cp.top, originals, options));
  state.counters["top_states"] = cp.top.size();
}
BENCHMARK(generate_event_sweep)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

FFSM_BENCH_MAIN(report)
