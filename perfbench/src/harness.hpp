// Shared plumbing of the benchmark driver: command-line options, the
// metric tables every workload reports against, sample statistics, process
// resource readings and the trace post-processing of the traced run.
//
// The benchmark measures the ffsm library from outside: it times its own
// calls into each layer's public functions and reads the library's
// existing obs series. Nothing here reaches into src/ internals.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed window, in seconds of measured work.
  double seconds = 10.0;
  /// false: end-to-end metrics, library defaults, no benchmark spans.
  /// true: per-layer metrics from a traced pass (alternating with an
  /// untraced one for the overhead ratio) and a Chrome trace.
  bool trace = false;
  /// Directory for trace files and the run report (created if missing).
  std::string out_dir = ".bench_out";
  /// Provenance stamped into the report (filled by run.py).
  std::string commit = "unknown";
  std::string source_sha = "unknown";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports without tracing. The
/// names and units must match BENCHMARK.json (run.py checks).
inline constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"latency_ms", "ms"},
    {"setup_s", "s"},
    {"rss_peak_mb", "MB"},
};

/// The per-layer metrics the traced run reports. A workload that does not
/// exercise a layer reports 0 for it (see README.md).
inline constexpr MetricSpec kPerLayer[] = {
    {"sim.cluster.drain_ms_p50", "ms"},
    {"sim.cluster.submit_us_p50", "us"},
    {"sim.cluster.queue_wait_us_p50", "us"},
    {"sim.cluster.merge_us_per_drain", "us"},
    {"sim.cluster.add_top_ms_p50", "ms"},
    {"sim.cluster.requeued", "count"},
    {"sim.wire.roundtrip_us_p50", "us"},
    {"sim.wire.roundtrip_us_per_req", "us"},
    {"sim.wire.encode_us_per_req", "us"},
    {"sim.wire.decode_us_per_req", "us"},
    {"sim.wire.restarts", "count"},
    {"sim.wire.failovers", "count"},
    {"sim.wire.health_probes_failed", "count"},
    {"sim.backend.connect_ms", "ms"},
    {"fusion.gen_request_ms_per_req", "ms"},
    {"fusion.descent_steps_per_req", "count"},
    {"fusion.speculation.hit_ratio", "ratio"},
    {"fusion.speculation.wasted_closures_per_req", "count"},
    {"fusion.speculation_join_us_per_req", "us"},
    {"fusion.alg2_setup_ms", "ms"},
    {"partition.closures_per_req", "count"},
    {"partition.candidates_per_req", "count"},
    {"partition.lower_cover_us_per_req", "us"},
    {"partition.closure_eval_us_per_req", "us"},
    {"partition.cache.hit_ratio", "ratio"},
    {"partition.cache.eviction_misses_per_req", "count"},
    {"partition.cache.evictions_per_req", "count"},
    {"partition.cache.admission_rejects_per_req", "count"},
    {"partition.cache.get_us_per_req", "us"},
    {"partition.cache.insert_us_per_req", "us"},
    {"partition.cache.bytes", "bytes"},
    {"util.parallel.effective_concurrency", "ratio"},
    {"util.parallel.cpu_busy_share", "ratio"},
    {"fsm.cross_product_ms", "ms"},
    {"sim.system.run_ns_per_event", "ns"},
    {"sim.system.reports_us_p50", "us"},
    {"sim.system.reinstall_us_p50", "us"},
    {"sim.system.dropped_events", "count"},
    {"recovery.decode_us_p50", "us"},
    {"recovery.detect_us_p50", "us"},
    {"recovery.liars_identified_ratio", "ratio"},
    {"recovery.unique_ratio", "ratio"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.attributed_share", "ratio"},
    {"obs.repeatable_count_share", "ratio"},
};

/// Span ring capacity of the benchmark-owned Obs of a traced run: about
/// twice what serve-warm-wire records in 12.5 s of traced serving; the
/// dataplane wraps it. report_trace_coverage says how much a run kept.
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;

/// What one workload run produced: the operation tally behind the result
/// line, every metric it measured, and any failed run-level check.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Run-level checks that failed (a healthy-run counter that moved, a
  /// missing response, ...). Any entry makes the run incorrect.
  std::vector<std::string> violations;
  /// Metric values by name; see kEndToEnd / kPerLayer for units.
  std::map<std::string, double> metrics;
  /// Values reported under the names the workload's own domain uses
  /// (req_per_s, recover_p99_us, fail_ratio, ...), printed for humans and
  /// written to the run report, never part of the result line.
  std::vector<std::pair<std::string, std::string>> details;

  void check(bool ok, std::string_view what) {
    if (!ok) violations.emplace_back(what);
  }
  void detail(std::string name, double value, std::string_view unit = {});
  void detail(std::string name, std::string text) {
    details.emplace_back(std::move(name), std::move(text));
  }
};

/// An untraced run measures its set-up in this many slices, one before each
/// tenth of its timed work, and reports the mean of the slices' medians as
/// setup_s. A set-up is short, and the host switches between a fast and a
/// slow state (about 1.6x apart, every phase alike) from one slice to the
/// next: a median over every set-up lands in whichever state held for most
/// of the run and flips between them from run to run, while the mean over
/// slices weighs each state by its share of the run, as throughput does.
inline constexpr int kSetupSlices = 10;

/// Runs `set_up_once` (which returns the seconds it measured) until it has
/// run at least `min_reps` times and measured at least `budget_s` seconds.
/// Appends every measurement to `all` and returns the median of this
/// call's.
double repeat_set_up(double budget_s, int min_reps,
                     const std::function<double()>& set_up_once,
                     std::vector<double>& all);

/// Arithmetic mean of `values`; 0 when empty.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Independent seed for one purpose (tops, request mix, faults, ...) of a
/// run, so adding a draw to one stream never shifts another.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t purpose);

// ------------------------------------------------------------- statistics

/// A uniform sample of at most `capacity` observations (reservoir sampling
/// with a fixed seed), exact while fewer were added. The storage is
/// allocated and touched up front, so resident memory does not grow with
/// the number of observations — and rss_peak_mb does not grow with
/// throughput.
class Samples {
 public:
  explicit Samples(std::size_t capacity = std::size_t{1} << 16);

  void add(double value);
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] std::uint64_t count() const noexcept { return seen_; }
  /// Sum over every observation, sampled or not.
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::vector<double> kept_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  double sum_ = 0.0;
  std::uint64_t rng_state_ = 0x9E3779B97F4A7C15ull;
};

/// Linear-interpolated percentile (0 <= p <= 100) of `samples`; 0 when
/// empty. Takes a copy because it sorts.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Percentile estimated from a log-bucketed obs histogram, interpolating
/// linearly inside the selected power-of-two bucket (the histogram keeps
/// no finer detail).
[[nodiscard]] double histogram_percentile(const ffsm::obs::HistogramSnapshot& h,
                                          double p);

/// Sum of histogram `name` in `snapshot`, 0 when absent.
[[nodiscard]] double histogram_sum(const ffsm::obs::ObsSnapshot& snapshot,
                                   const std::string& name);

// -------------------------------------------------------- process readings

/// Peak resident set of process `pid` (0 = this process) so far, in MB; 0
/// when unreadable. Read a child's before it is killed.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// Returns freed heap to the system and restarts this process's peak
/// resident set from its current size, so the benchmark's own reference
/// computations do not count in rss_peak_mb.
void reset_peak_rss();

/// CPU seconds (user + system) consumed so far by this process.
[[nodiscard]] double process_cpu_seconds();

/// CPU seconds consumed so far by the live process `pid` (0 if unreadable).
[[nodiscard]] double pid_cpu_seconds(int pid);

/// Number of online processors.
[[nodiscard]] unsigned online_cpus();

/// CPU seconds the hypervisor has so far taken from this machine's
/// processors for other guests (steal time, summed over processors); 0
/// when unreadable.
[[nodiscard]] double host_steal_seconds();

// ------------------------------------------------------------------ traces

/// Per-span-name totals over a trace: count, total duration and self time
/// (duration minus the part of it covered by same-source child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// The spans of `spans` that start after the oldest retained span of their
/// source ended. A ring recorder keeps the newest spans and records each
/// span when it ends, after its children; once a ring has wrapped, this is
/// the window in which no retained span has lost a child. When no ring
/// wrapped it drops at most the spans overlapping the first one to end.
[[nodiscard]] std::vector<ffsm::obs::TraceSpan> complete_window(
    const std::vector<ffsm::obs::TraceSpan>& spans);

/// Reports how much of a traced run the trace window covers: per source
/// ("parent" for the recording process) its span count and time span, and
/// how many of the `rounds` the benchmark traced have their `round_name`
/// span in the window. `recorder` is the benchmark-owned Obs, whose ring
/// reports how many spans it dropped.
void report_trace_coverage(const std::vector<ffsm::obs::TraceSpan>& window,
                           ffsm::obs::Obs& recorder,
                           std::string_view round_name, std::uint64_t rounds,
                           Outcome& out);

/// Self time of every span name in `spans`. Root spans of the recording
/// process (parent 0) that lie inside a benchmark span named
/// `adopting_parent` are treated as its children, so the program's drain
/// spans nest under the benchmark's drain calls.
[[nodiscard]] std::map<std::string, SpanTotals> self_times(
    const std::vector<ffsm::obs::TraceSpan>& spans,
    std::string_view adopting_parent);

/// Share of the wall time of spans named `parent_name` covered by their
/// same-source children (union of child intervals / parent durations).
[[nodiscard]] double child_coverage(
    const std::vector<ffsm::obs::TraceSpan>& spans,
    std::string_view parent_name);

/// Writes `spans` as a Chrome trace to `path`; returns false on I/O error.
bool write_trace_file(const std::string& path,
                      const std::vector<ffsm::obs::TraceSpan>& spans);

/// Records a finished benchmark span into `obs` (no-op when null).
/// `start_us` is on obs->now_us(); `ticket` tags every span of one request.
void record_span(ffsm::obs::Obs* obs, std::string_view name,
                 std::uint64_t id, std::uint64_t start_us,
                 std::uint64_t parent, std::uint64_t ticket = 0);

/// Compares two runs' integer counters and returns the share that repeat
/// exactly; lists the repeating and differing names in `out`.
double repeatable_share(const std::map<std::string, std::uint64_t>& first,
                        const std::map<std::string, std::uint64_t>& second,
                        Outcome& out);

// --------------------------------------------------------------- workloads

Outcome run_serve_cold(const Options& options);
Outcome run_serve_warm_wire(const Options& options);
Outcome run_serve_evict(const Options& options);
Outcome run_dataplane(const Options& options);

}  // namespace perfbench
