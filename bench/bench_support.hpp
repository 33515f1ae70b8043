// Shared helpers for the benchmark harnesses: every bench binary first
// prints the paper artifact it regenerates (table rows / figure series) and
// then runs its google-benchmark timings, so `./bench_x` alone reproduces
// the experiment and `./bench_x --benchmark_filter=...` digs into cost.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "fusion/generator.hpp"
#include "partition/partition.hpp"
#include "util/timer.hpp"

namespace ffsm::bench {

/// Two catalog mod-k counters crossed into a k*k-state top — the shared
/// workload of the engine benches (one definition so they all measure the
/// same machines).
inline CrossProduct counter_pair_product(std::uint32_t k) {
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "A", k, "0"));
  machines.push_back(make_mod_counter(alphabet, "B", k, "1"));
  return reachable_cross_product(machines);
}

/// Originals of a cross product as partitions.
inline std::vector<Partition> original_partitions(const CrossProduct& cp) {
  std::vector<Partition> out;
  out.reserve(cp.machine_count());
  for (std::uint32_t i = 0; i < cp.machine_count(); ++i)
    out.emplace_back(cp.component_assignment(i));
  return out;
}

/// What require() throws; FFSM_BENCH_MAIN turns it into exit status 1.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Load-bearing correctness check inside a bench report: benches double as
/// large-workload regression tests (bit-identical parallel results, ablation
/// equivalence), so a failed check must fail the CI job, not just print.
/// It throws rather than exiting so the report unwinds: RAII resources are
/// released on the way out, and above all shard worker processes are
/// reaped instead of outliving the bench with its stdout still open (which
/// would hang `bench_x | grep ...`). Call it on the report thread only.
inline void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "BENCH CHECK FAILED: %s\n", what);
    throw CheckFailed(what);
  }
}

/// "39 39" style size list.
inline std::string size_list(const std::vector<Dfsm>& machines) {
  std::string out;
  for (const Dfsm& m : machines) {
    if (!out.empty()) out += ' ';
    out += std::to_string(m.size());
  }
  return out.empty() ? "-" : out;
}

// ------------------------------------------------------ JSON perf records
//
// Machine-readable perf trajectory: each bench binary can record named
// measurements (median of N repetitions, warmup discarded) into
// BENCH_<name>.json in the working directory. CI uploads these as
// artifacts so the PR-over-PR perf history is diffable without parsing
// human-oriented tables.

/// Collects measurements and writes BENCH_<name>.json on destruction (or an
/// explicit write()). Not thread-safe; record from the report thread only.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  /// Writes on scope exit, except while a failed check unwinds: a failed
  /// run leaves no partial perf record behind.
  ~JsonReporter() {
    if (std::uncaught_exceptions() == 0) write();
  }

  /// Tags every subsequently recorded entry with a serving backend
  /// ("inprocess", "subprocess", ...), emitted as a "backend" field so
  /// per-backend timings are separable in the perf history. Empty (the
  /// default) omits the field.
  void set_backend(std::string backend) { backend_ = std::move(backend); }

  /// Runs fn() `warmup + reps` times and records the median wall-clock of
  /// the post-warmup repetitions. Returns that median in milliseconds.
  template <typename Fn>
  double measure_ms(const std::string& label, Fn&& fn, int reps = 5,
                    int warmup = 1) {
    for (int i = 0; i < warmup; ++i) fn();
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
      WallTimer timer;
      fn();
      samples.push_back(timer.elapsed_ms());
    }
    const double median = median_of(std::move(samples));
    entries_.push_back({label, "median_ms", median, backend_, reps, warmup});
    return median;
  }

  /// Records a dimensionless metric (counters, speedups, cache hits...).
  void add_metric(const std::string& label, const std::string& key,
                  double value) {
    entries_.push_back({label, key, value, backend_, 0, 0});
  }

  /// Writes BENCH_<name>.json; harmless to call more than once.
  void write() {
    if (written_) return;
    written_ = true;
    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"entries\": [\n",
                 bench_name_.c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"key\": \"%s\", \"value\": %.6f",
                   e.label.c_str(), e.key.c_str(), e.value);
      if (!e.backend.empty())
        std::fprintf(out, ", \"backend\": \"%s\"", e.backend.c_str());
      if (e.reps > 0)
        std::fprintf(out, ", \"reps\": %d, \"warmup\": %d", e.reps,
                     e.warmup);
      std::fprintf(out, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("[bench-json] wrote %s (%zu entries)\n", path.c_str(),
                entries_.size());
  }

 private:
  struct Entry {
    std::string label;
    std::string key;
    double value;
    std::string backend;  // "" = backend-independent metric
    int reps;
    int warmup;
  };

  static double median_of(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    const std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
    const double upper = samples[mid];
    if (samples.size() % 2 == 1) return upper;
    const double lower =
        *std::max_element(samples.begin(), samples.begin() + mid);
    return (lower + upper) / 2.0;
  }

  std::string bench_name_;
  std::string backend_;
  std::vector<Entry> entries_;
  bool written_ = false;
};

/// Standard entry point: print the report, then run benchmarks. A failed
/// require() in the report exits 1 once the report has unwound.
#define FFSM_BENCH_MAIN(report_fn)                                   \
  int main(int argc, char** argv) {                                  \
    try {                                                            \
      report_fn();                                                   \
    } catch (const ::ffsm::bench::CheckFailed&) {                    \
      return 1;                                                      \
    }                                                                \
    ::benchmark::Initialize(&argc, argv);                            \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                           \
    ::benchmark::Shutdown();                                         \
    return 0;                                                        \
  }

}  // namespace ffsm::bench
