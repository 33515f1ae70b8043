#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace perfbench {

using ffsm::obs::HistogramSnapshot;
using ffsm::obs::ObsSnapshot;
using ffsm::obs::TraceSpan;

void Outcome::detail(std::string name, double value, std::string_view unit) {
  char text[64];
  std::snprintf(text, sizeof text, "%.6g", value);
  std::string shown = text;
  if (!unit.empty()) {
    shown += ' ';
    shown += unit;
  }
  details.emplace_back(std::move(name), std::move(shown));
}

double repeat_set_up(double budget_s, int min_reps,
                     const std::function<double()>& set_up_once,
                     std::vector<double>& all) {
  std::vector<double> measured;
  double total = 0.0;
  while (static_cast<int>(measured.size()) < min_reps || total < budget_s) {
    measured.push_back(set_up_once());
    total += measured.back();
  }
  all.insert(all.end(), measured.begin(), measured.end());
  return percentile(measured, 50);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  ffsm::SplitMix64 mix(seed ^ (purpose * 0xD1B54A32D192ED03ull));
  return mix.next();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Samples::Samples(std::size_t capacity) : kept_(capacity, 0.0) {}

void Samples::add(double value) {
  ++seen_;
  sum_ += value;
  if (size_ < kept_.size()) {
    kept_[size_++] = value;
    return;
  }
  const std::uint64_t slot = ffsm::SplitMix64(rng_state_++).next() % seen_;
  if (slot < kept_.size()) kept_[slot] = value;
}

double Samples::percentile(double p) const {
  return perfbench::percentile(
      {kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(size_)}, p);
}

double histogram_percentile(const HistogramSnapshot& h, double p) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(n);
  double below = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const auto in_bucket = static_cast<double>(h.buckets[i]);
    if (in_bucket == 0.0 || below + in_bucket < rank) {
      below += in_bucket;
      continue;
    }
    if (i == 0) return 0.0;  // bucket 0 holds exact zeros
    const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
    const double frac = std::clamp((rank - below) / in_bucket, 0.0, 1.0);
    return lo + frac * lo;  // bucket i spans [2^(i-1), 2^i)
  }
  return 0.0;
}

double histogram_sum(const ObsSnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.histograms.find(name);
  return it == snapshot.histograms.end()
             ? 0.0
             : static_cast<double>(it->second.sum);
}

double peak_rss_mb(int pid) {
  // VmHWM belongs to the address space, so unlike getrusage's ru_maxrss it
  // does not carry the launching process's peak across exec.
  std::ifstream in(pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                           : std::string("/proc/self/status"));
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // 5: reset VmHWM
}

double process_cpu_seconds() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(self.ru_utime) + secs(self.ru_stime);
}

double pid_cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (pid <= 0 || !std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name: state is field 3,
  // utime/stime are fields 14/15.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && fields >> field; ++index)
    if (index >= 14) ticks += std::stod(field);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

unsigned online_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double host_steal_seconds() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  in >> cpu;
  for (double& t : ticks) in >> t;
  return cpu == "cpu" && in
             ? ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK))
             : 0.0;
}

namespace {

struct SpanIndex {
  std::vector<std::vector<std::size_t>> children;
};

/// Builds the same-source parent -> children relation, adopting program
/// root spans into the enclosing `adopting_parent` benchmark span.
SpanIndex index_spans(const std::vector<TraceSpan>& spans,
                      std::string_view adopting_parent) {
  SpanIndex index;
  index.children.resize(spans.size());
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> by_id;
  std::vector<std::size_t> adopters;  // sorted by start below
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id[{spans[i].source, spans[i].id}] = i;
    if (spans[i].source.empty() && spans[i].name == adopting_parent)
      adopters.push_back(i);
  }
  std::sort(adopters.begin(), adopters.end(), [&](auto a, auto b) {
    return spans[a].start_us < spans[b].start_us;
  });
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    if (s.instant) continue;
    if (s.parent != 0) {
      const auto it = by_id.find({s.source, s.parent});
      if (it != by_id.end()) index.children[it->second].push_back(i);
      continue;
    }
    if (!s.source.empty() || s.name == adopting_parent ||
        s.name.rfind("bench.", 0) == 0)
      continue;
    // Latest adopter starting at or before s; adopt if it encloses s.
    const auto after = std::upper_bound(
        adopters.begin(), adopters.end(), s.start_us,
        [&](std::uint64_t t, std::size_t a) { return t < spans[a].start_us; });
    if (after == adopters.begin()) continue;
    const TraceSpan& parent = spans[*std::prev(after)];
    if (s.start_us + s.duration_us <= parent.start_us + parent.duration_us)
      index.children[*std::prev(after)].push_back(i);
  }
  return index;
}

/// Microseconds of [start, start + duration) covered by the union of the
/// children's intervals.
double covered_us(const TraceSpan& parent, const std::vector<TraceSpan>& spans,
                  const std::vector<std::size_t>& children) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  const std::uint64_t begin = parent.start_us;
  const std::uint64_t end = parent.start_us + parent.duration_us;
  for (const std::size_t c : children) {
    const std::uint64_t lo = std::max(spans[c].start_us, begin);
    const std::uint64_t hi =
        std::min(spans[c].start_us + spans[c].duration_us, end);
    if (lo < hi) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  std::uint64_t reach = begin;
  for (const auto& [lo, hi] : intervals) {
    const std::uint64_t from = std::max(lo, reach);
    if (hi > from) covered += static_cast<double>(hi - from);
    reach = std::max(reach, hi);
  }
  return covered;
}

}  // namespace

std::vector<TraceSpan> complete_window(const std::vector<TraceSpan>& spans) {
  std::map<std::string, std::uint64_t> first_end;
  for (const TraceSpan& s : spans) {
    const std::uint64_t end = s.start_us + (s.instant ? 0 : s.duration_us);
    const auto [it, fresh] = first_end.try_emplace(s.source, end);
    if (!fresh) it->second = std::min(it->second, end);
  }
  std::vector<TraceSpan> window;
  for (const TraceSpan& s : spans)
    if (s.start_us >= first_end[s.source]) window.push_back(s);
  return window;
}

void report_trace_coverage(const std::vector<TraceSpan>& window,
                           ffsm::obs::Obs& recorder,
                           std::string_view round_name, std::uint64_t rounds,
                           Outcome& out) {
  struct Extent {
    std::uint64_t count = 0;
    std::uint64_t begin = UINT64_MAX;
    std::uint64_t end = 0;
  };
  std::map<std::string, Extent> sources;
  std::uint64_t covered_rounds = 0;
  for (const TraceSpan& s : window) {
    Extent& e = sources[s.source.empty() ? "parent" : s.source];
    ++e.count;
    e.begin = std::min(e.begin, s.start_us);
    e.end = std::max(e.end, s.start_us + s.duration_us);
    if (s.source.empty() && s.name == round_name) ++covered_rounds;
  }
  for (const auto& [source, e] : sources)
    out.detail("trace_window." + source,
               std::to_string(e.count) + " spans over " +
                   std::to_string(static_cast<double>(e.end - e.begin) / 1e6) +
                   " s");
  const auto* ring = dynamic_cast<const ffsm::obs::RingTraceRecorder*>(
      &recorder.trace());
  if (ring != nullptr)
    out.detail("trace_spans_dropped",
               static_cast<double>(ring->recorded() -
                                   std::min<std::uint64_t>(ring->recorded(),
                                                           ring->capacity())));
  out.detail("trace_rounds_covered",
             std::to_string(covered_rounds) + " of " + std::to_string(rounds));
}

std::map<std::string, SpanTotals> self_times(
    const std::vector<TraceSpan>& spans, std::string_view adopting_parent) {
  const SpanIndex index = index_spans(spans, adopting_parent);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].instant) continue;
    SpanTotals& t = totals[spans[i].name];
    const auto duration = static_cast<double>(spans[i].duration_us);
    ++t.count;
    t.total_us += duration;
    t.self_us += duration - covered_us(spans[i], spans, index.children[i]);
  }
  return totals;
}

double child_coverage(const std::vector<TraceSpan>& spans,
                      std::string_view parent_name) {
  const SpanIndex index = index_spans(spans, {});
  double covered = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].instant || spans[i].name != parent_name) continue;
    total += static_cast<double>(spans[i].duration_us);
    covered += covered_us(spans[i], spans, index.children[i]);
  }
  return total > 0.0 ? covered / total : 0.0;
}

bool write_trace_file(const std::string& path,
                      const std::vector<TraceSpan>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  ffsm::obs::write_chrome_trace(out, spans);
  return static_cast<bool>(out.flush());
}

void record_span(ffsm::obs::Obs* obs, std::string_view name, std::uint64_t id,
                 std::uint64_t start_us, std::uint64_t parent,
                 std::uint64_t ticket) {
  if (obs == nullptr) return;
  TraceSpan span;
  span.name = std::string(name);
  span.start_us = start_us;
  span.duration_us = obs->now_us() - start_us;
  span.id = id;
  span.parent = parent;
  span.exchange = ticket;
  obs->trace().record(std::move(span));
}

double repeatable_share(const std::map<std::string, std::uint64_t>& first,
                        const std::map<std::string, std::uint64_t>& second,
                        Outcome& out) {
  std::string same;
  std::string differ;
  std::size_t repeats = 0;
  for (const auto& [name, value] : first) {
    const auto it = second.find(name);
    const bool equal = it != second.end() && it->second == value;
    std::string& list = equal ? same : differ;
    list += (list.empty() ? "" : " ") + name;
    repeats += equal ? 1 : 0;
  }
  out.detail("counts_repeating_exactly", same.empty() ? "-" : same);
  out.detail("counts_varying", differ.empty() ? "-" : differ);
  return first.empty() ? 0.0
                       : static_cast<double>(repeats) /
                             static_cast<double>(first.size());
}

}  // namespace perfbench
