// The fault-tolerance workload: a FusedSystem over the paper's section 6
// machines (MESI, TCP, A and B: a 176-state top, 2 backups at f = 2) runs
// a seeded event stream. After every kEventsPerRound events the benchmark
// injects a fault — two crashes or one Byzantine corruption, the strategy
// cycling through random, stale and colluding — and calls recover().
// Every recovery must be unique, equal the ghost state, pass verify(), and
// name exactly the corrupted servers as contradicting.
//
// This is the only workload on the fault-tolerance path (sim/system, fsm
// stepping, recovery decode and detect); it bypasses the cluster, the
// wire, partition and the pool entirely.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "harness.hpp"
#include "recovery/detect.hpp"
#include "recovery/recovery.hpp"
#include "sim/event_source.hpp"
#include "sim/system.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace ffsm;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kF = 2;  // 2 crashes or 1 Byzantine fault
constexpr std::size_t kEventsPerRound = 500;
/// Seconds of builds an untraced run measures, over kSetupSlices slices of
/// at least one build each (see kSetupSlices). One build takes about 0.2 s,
/// so that is one build a slice.
constexpr double kSetupBudgetS = 2.0;
/// Rounds of the fixed-length segment the traced run repeats to find the
/// counts that repeat exactly.
constexpr std::uint64_t kRepeatRounds = 2000;
/// Alternating untraced/traced chunks of a traced run.
constexpr std::uint64_t kTraceChunks = 10;

constexpr ByzantineStrategy kStrategies[] = {ByzantineStrategy::kRandomState,
                                             ByzantineStrategy::kStaleInitial,
                                             ByzantineStrategy::kColluding};

std::vector<Dfsm> section6_machines() {
  auto alphabet = Alphabet::create();
  return {make_mesi(alphabet), make_tcp(alphabet),
          make_paper_machine_a(alphabet), make_paper_machine_b(alphabet)};
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Tally {
  std::uint64_t rounds = 0;
  std::uint64_t events = 0;
  std::uint64_t byzantine = 0;
  std::uint64_t liars_identified = 0;
  std::uint64_t unique = 0;
  std::uint64_t dropped_events = 0;
  double run_s = 0.0;  // time inside FusedSystem::run
  Samples recover_us;
  // Per-layer timings, taken only when asked for.
  Samples reports_us;
  Samples decode_us;
  Samples reinstall_us;  // recover() minus decode, per fault
  Samples detect_us;
};

/// Servers whose report would change under `strategy`, so the injected
/// corruption is a real, detectable fault.
std::vector<std::size_t> corruptible(const FusedSystem& system,
                                     ByzantineStrategy strategy,
                                     State colluding_target) {
  const std::vector<MachineReport> now = system.reports();
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < now.size(); ++i) {
    const Partition& p = system.partitions()[i];
    switch (strategy) {
      case ByzantineStrategy::kRandomState:
        out.push_back(i);
        break;
      case ByzantineStrategy::kStaleInitial:
        if (p.block_of(system.top().initial()) != now[i].block)
          out.push_back(i);
        break;
      case ByzantineStrategy::kColluding:
        if (p.block_of(colluding_target) != now[i].block) out.push_back(i);
        break;
    }
  }
  return out;
}

/// Event rounds on one system until `seconds` of loop time or
/// `max_rounds` rounds.
void run_rounds(FusedSystem& system, std::uint64_t seed, double seconds,
                std::uint64_t max_rounds, bool per_layer, obs::Obs* traced,
                Tally& t, Outcome& out) {
  const std::vector<EventId> support(system.top().events().begin(),
                                     system.top().events().end());
  const std::uint32_t top_size = system.top().size();
  const std::size_t servers = system.servers().size();
  Xoshiro256 faults(derive_seed(seed, 4));
  const std::uint64_t event_seed = derive_seed(seed, 5);
  const WallTimer wall;
  while (t.rounds < max_rounds && wall.elapsed_seconds() < seconds) {
    const std::uint64_t round_span = traced ? traced->trace().next_id() : 0;
    const std::uint64_t round_us = traced ? traced->now_us() : 0;
    RandomEventSource events(support, kEventsPerRound, event_seed + t.rounds);
    const auto run_start = Clock::now();
    t.events += system.run(events);
    t.run_s += std::chrono::duration<double>(Clock::now() - run_start).count();
    if (traced)
      record_span(traced, "bench.run", traced->trace().next_id(), round_us,
                  round_span);

    const std::uint64_t inject_us = traced ? traced->now_us() : 0;
    std::vector<std::size_t> victims;
    const bool byzantine = faults.below(2) == 0;
    if (byzantine) {
      ByzantineStrategy strategy = kStrategies[t.byzantine % 3];
      const State target = system.most_confusable_state();
      std::vector<std::size_t> candidates =
          corruptible(system, strategy, target);
      if (candidates.empty()) {
        strategy = ByzantineStrategy::kRandomState;
        candidates = corruptible(system, strategy, target);
      }
      victims.push_back(candidates[faults.below(candidates.size())]);
      system.corrupt(victims[0], strategy, faults, target);
      ++t.byzantine;
    } else {
      victims.push_back(faults.below(servers));
      const std::size_t second = faults.below(servers - 1);
      victims.push_back(second >= victims[0] ? second + 1 : second);
      for (const std::size_t v : victims) system.crash(v);
      std::sort(victims.begin(), victims.end());
    }
    if (traced)
      record_span(traced, "bench.inject", traced->trace().next_id(),
                  inject_us, round_span);

    std::vector<MachineReport> reports;
    if (per_layer) {
      const auto a = Clock::now();
      reports = system.reports();
      t.reports_us.add(us_between(a, Clock::now()));
    }

    const std::uint64_t recover_us = traced ? traced->now_us() : 0;
    const auto recover_start = Clock::now();
    const RecoveryResult result = system.recover();
    const double recovered_us = us_between(recover_start, Clock::now());
    t.recover_us.add(recovered_us);
    if (traced) {
      record_span(traced, "bench.recover", traced->trace().next_id(),
                  recover_us, round_span);
      record_span(traced, "bench.round", round_span, round_us, 0);
    }

    if (per_layer) {
      // The layers recover() is made of, rerun on the reports it decoded.
      auto a = Clock::now();
      const RecoveryResult decoded =
          ffsm::recover(top_size, system.partitions(), reports);
      const double decode_us = us_between(a, Clock::now());
      t.decode_us.add(decode_us);
      t.reinstall_us.add(recovered_us - decode_us);
      out.check(decoded.top_state == result.top_state,
                "decode alone agrees with recover()");
      if (byzantine) {
        a = Clock::now();
        const DetectionResult detected =
            detect_byzantine_fault(top_size, system.partitions(), reports);
        t.detect_us.add(us_between(a, Clock::now()));
        out.check(!detected.consistent, "a Byzantine fault is detected");
      }
    }

    ++out.attempted;
    t.unique += result.unique ? 1 : 0;
    const bool named_liars =
        byzantine ? result.contradicting_machines == victims
                  : result.contradicting_machines.empty();
    t.liars_identified += byzantine && named_liars ? 1 : 0;
    const bool ok = result.unique &&
                    result.top_state == system.ghost_top_state() &&
                    system.verify() && named_liars;
    if (!ok) ++out.failed;
    ++t.rounds;
  }
  t.dropped_events = system.dropped_events();
  out.check(t.dropped_events == 0, "no events dropped");
}

/// Builds the system into `system`; returns the seconds FusedSystem
/// construction (cross product + Algorithm 2) took, and appends the time of
/// a separate reachable_cross_product call to `cross_product_ms`.
double build(const std::vector<Dfsm>& machines,
             std::unique_ptr<FusedSystem>& system,
             std::vector<double>& cross_product_ms) {
  {
    const WallTimer timer;
    const CrossProduct cross = reachable_cross_product(machines);
    cross_product_ms.push_back(timer.elapsed_ms());
  }
  system.reset();
  const WallTimer timer;
  FusedSystemOptions options;
  options.f = kF;
  system = std::make_unique<FusedSystem>(machines, options);
  return timer.elapsed_seconds();
}

void report_recovery(const Tally& t, Outcome& out) {
  out.detail("recoveries", static_cast<double>(t.rounds));
  out.detail("events_per_s", static_cast<double>(t.events) / t.run_s, "1/s");
  out.detail("recover_p50_us", t.recover_us.percentile(50), "us");
  out.detail("recover_p90_us", t.recover_us.percentile(90), "us");
  out.detail("recover_p99_us", t.recover_us.percentile(99), "us");
}

std::map<std::string, std::uint64_t> segment_counts(
    const FusedSystem& prototype, std::uint64_t seed, Outcome& out) {
  FusedSystem system = prototype;
  Tally t;
  run_rounds(system, seed, 1e9, kRepeatRounds, false, nullptr, t, out);
  return {{"rounds", t.rounds},
          {"events", t.events},
          {"byzantine", t.byzantine},
          {"liars_identified", t.liars_identified},
          {"unique", t.unique},
          {"dropped_events", t.dropped_events}};
}

}  // namespace

Outcome run_dataplane(const Options& options) {
  Outcome out;
  const std::vector<Dfsm> machines = section6_machines();
  std::vector<double> build_s;
  std::vector<double> cross_product_ms;
  std::unique_ptr<FusedSystem> system;
  build(machines, system, cross_product_ms);  // the system served
  out.check(system->backup_count() == 2 && system->top().size() == 176,
            "section 6 system has a 176-state top and 2 backups");
  auto& m = out.metrics;
  // Builds spare systems for `budget_s`; returns their median time.
  const auto build_spares = [&](double budget_s) {
    std::unique_ptr<FusedSystem> spare;
    return repeat_set_up(
        budget_s, 1, [&] { return build(machines, spare, cross_product_ms); },
        build_s);
  };

  if (!options.trace) {
    Tally t;
    std::vector<double> slice_medians;
    for (int slice = 1; slice <= kSetupSlices; ++slice) {
      slice_medians.push_back(build_spares(kSetupBudgetS / kSetupSlices));
      run_rounds(*system, derive_seed(options.seed, 20 + slice),
                 options.seconds / kSetupSlices, UINT64_MAX, false, nullptr, t,
                 out);
    }
    m["ops_per_s"] = static_cast<double>(t.events) / t.run_s;
    // The 90th percentile, not the median: half the faults are crashes and
    // half Byzantine, so the median falls between the two kinds' times.
    m["latency_ms"] = t.recover_us.percentile(90) / 1000.0;
    m["setup_s"] = mean(slice_medians);
    m["rss_peak_mb"] = peak_rss_mb();
    report_recovery(t, out);
    out.detail("setup_s", m["setup_s"], "s");
    out.detail("setup_reps", static_cast<double>(build_s.size()));
    out.detail("rss_peak_mb", m["rss_peak_mb"], "MB");
    return out;
  }

  build_spares(kSetupBudgetS);
  // Untraced and traced chunks alternate, so load drifting on the host
  // hits both alike and the overhead ratio compares like with like.
  const FusedSystem prototype = *system;
  obs::Obs traced({.enabled = true, .trace_capacity = kTraceCapacity});
  Tally plain;
  Tally t;
  const double chunk = options.seconds / 2.0 / kTraceChunks;
  for (std::uint64_t i = 0; i < kTraceChunks; ++i) {
    run_rounds(*system, derive_seed(options.seed, 10 + 2 * i), chunk,
               UINT64_MAX, false, nullptr, plain, out);
    run_rounds(*system, derive_seed(options.seed, 11 + 2 * i), chunk,
               UINT64_MAX, true, &traced, t, out);
  }
  const double rate = static_cast<double>(t.events) / t.run_s;
  m["fusion.alg2_setup_ms"] = percentile(build_s, 50) * 1000.0;
  m["fsm.cross_product_ms"] = percentile(cross_product_ms, 50);
  m["sim.system.run_ns_per_event"] = 1e9 / rate;
  m["sim.system.reports_us_p50"] = t.reports_us.percentile(50);
  m["sim.system.reinstall_us_p50"] = t.reinstall_us.percentile(50);
  m["sim.system.dropped_events"] = static_cast<double>(t.dropped_events);
  m["recovery.decode_us_p50"] = t.decode_us.percentile(50);
  m["recovery.detect_us_p50"] = t.detect_us.percentile(50);
  m["recovery.liars_identified_ratio"] =
      t.byzantine > 0 ? static_cast<double>(t.liars_identified) /
                            static_cast<double>(t.byzantine)
                      : 0.0;
  m["recovery.unique_ratio"] =
      static_cast<double>(t.unique) / static_cast<double>(t.rounds);
  m["obs.trace_overhead_ratio"] =
      rate / (static_cast<double>(plain.events) / plain.run_s);
  report_recovery(t, out);

  const std::vector<obs::TraceSpan> spans =
      complete_window(traced.trace().snapshot());
  report_trace_coverage(spans, traced, "bench.round", t.rounds, out);
  for (const auto& [name, totals] : self_times(spans, {}))
    out.detail("self_ms." + name,
               std::to_string(totals.count) + " spans, total " +
                   std::to_string(totals.total_us / 1000.0) + " ms, self " +
                   std::to_string(totals.self_us / 1000.0) + " ms");
  std::filesystem::create_directories(options.out_dir);
  const std::string trace_path = options.out_dir + "/trace-dataplane-seed" +
                                 std::to_string(options.seed) + ".json";
  out.check(write_trace_file(trace_path, spans), "trace file written");
  out.detail("chrome_trace", trace_path);

  const auto first = segment_counts(prototype, options.seed, out);
  const auto second = segment_counts(prototype, options.seed, out);
  m["obs.repeatable_count_share"] = repeatable_share(first, second, out);
  return out;
}

}  // namespace perfbench
