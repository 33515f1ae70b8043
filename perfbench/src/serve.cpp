// The serving workloads: a closed loop of kClients clients asking a
// FusionCluster for fusion backups of a seeded pool of top machines.
//
// Every client sends its next request only after its previous one was
// answered, and the driver drains whenever requests are pending, so each
// round is: every client submits one request, one drain answers them all.
// About two thirds of the requests go to one hot top. Every response is
// compared with a serial Algorithm 2 reference, and every reference is
// checked to satisfy dmin(originals ∪ backups) > f.
//
//   serve-cold       in-process; each round registers its tops under fresh
//                    keys, so no cover is ever cached: generation work.
//   serve-warm-wire  one loopback ffsm_shard_worker over the binary wire,
//                    3 shards on 3 connections, tops registered once and
//                    warmed: queue, merge and wire work.
//   serve-evict      in-process, tops registered once, the per-top closure
//                    cache capacity set below the descent working set: cache
//                    churn.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_graph.hpp"
#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "fsm/random_dfsm.hpp"
#include "fusion/generator.hpp"
#include "harness.hpp"
#include "partition/lower_cover.hpp"
#include "sim/backend_config.hpp"
#include "sim/cluster.hpp"
#include "sim/tcp_backend.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace ffsm;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClients = 24;
/// Seconds of set-up an untraced run measures, over kSetupSlices slices of
/// at least kMinSliceReps set-ups each (see kSetupSlices). An in-process
/// set-up takes about 0.5 ms, so that is about a thousand.
constexpr double kSetupBudgetS = 0.5;
constexpr int kMinSliceReps = 2;
/// serve-evict's per-top closure cache capacity: below the working set of
/// the descents the request mix runs, so every drain inserts and evicts.
constexpr std::size_t kEvictCapacity = 4;
/// serve-cold rounds served by one cluster before a fresh one replaces it.
constexpr std::uint64_t kEpochRounds = 16;
/// Rounds of the fixed-length segment the traced run repeats to find the
/// counts that repeat exactly.
constexpr std::uint64_t kRepeatRounds = 6;
/// Alternating untraced/traced chunks of a traced run.
constexpr int kTraceChunks = 10;

enum class Kind { kCold, kWarmWire, kEvict };

constexpr DescentPolicy kPolicies[] = {DescentPolicy::kFirstFound,
                                       DescentPolicy::kFewestBlocks,
                                       DescentPolicy::kMostBlocks};

/// One slot of the top pool. The slots are fixed so every seed serves
/// tops of the same sizes and lattice shape; the seed draws the random
/// machines, the mix and the order.
struct TopSlot {
  const char* name;
  bool counter;         // counter pair (k x k states) or random pair
  std::uint32_t k;      // counter modulus, or random target state count
  std::uint32_t a, b;   // random pair component sizes
  /// Random pairs: size of the identity partition's lower cover, the
  /// first descent step's fan-out. About 93% of draws have 2; the rest
  /// spread over 3-16.
  std::size_t cover;
};

constexpr TopSlot kSlots[] = {
    {"hot-random100", false, 100, 10, 12, 2},  // ~2/3 of requests
    {"counter64", true, 8, 0, 0, 0},
    {"wide-random80", false, 80, 9, 10, 9},  // ~1.4% of 80-state draws
    {"counter121", true, 11, 0, 0, 0},
    {"random144", false, 144, 13, 13, 2},
    {"counter81", true, 9, 0, 0, 0},
};
constexpr std::uint32_t kRandomEvents = 3;
constexpr std::uint32_t kTops = std::size(kSlots);

struct TopInput {
  std::string name;
  std::vector<Dfsm> components;
};

/// The component machines of every top. Random pairs are redrawn until
/// their reachable product has exactly the slot's state count and its
/// identity partition the slot's lower cover size, so the seed changes the
/// machines but every seed serves the same mix of sizes and cover widths.
std::vector<TopInput> make_top_inputs(std::uint64_t seed) {
  Xoshiro256 rng(derive_seed(seed, 1));
  std::vector<TopInput> inputs;
  for (const TopSlot& slot : kSlots) {
    TopInput input{slot.name, {}};
    for (int attempt = 0; input.components.empty(); ++attempt) {
      if (attempt > 1000000)
        throw std::runtime_error("no random pair of the slot's shape");
      auto alphabet = Alphabet::create();
      std::vector<Dfsm> pair;
      if (slot.counter) {
        pair.push_back(make_mod_counter(alphabet, "A", slot.k, "0"));
        pair.push_back(make_mod_counter(alphabet, "B", slot.k, "1"));
      } else {
        pair.push_back(make_random_connected_dfsm(
            alphabet, "R1", {slot.a, kRandomEvents, rng()}));
        pair.push_back(make_random_connected_dfsm(
            alphabet, "R2", {slot.b, kRandomEvents, rng()}));
        const CrossProduct product = reachable_cross_product(pair);
        if (product.top.size() != slot.k ||
            lower_cover(product.top, Partition::identity(slot.k)).size() !=
                slot.cover)
          continue;
      }
      input.components = std::move(pair);
    }
    inputs.push_back(std::move(input));
  }
  return inputs;
}

struct Top {
  std::string name;
  CrossProduct product;
  std::vector<Partition> originals;
};

Top build_top(const TopInput& input) {
  Top top{input.name, reachable_cross_product(input.components), {}};
  for (std::uint32_t i = 0; i < top.product.machine_count(); ++i)
    top.originals.emplace_back(top.product.component_assignment(i));
  return top;
}

struct Req {
  std::uint32_t top = 0;
  std::uint32_t f = 1;
  std::uint32_t policy = 0;  // index into kPolicies

  [[nodiscard]] std::size_t distinct() const {
    return (top * 3 + (f - 1)) * 3 + policy;
  }
};

/// The seeded request stream: hot top with probability 2/3, else a uniform
/// other top; f and the descent policy uniform.
class RequestMix {
 public:
  explicit RequestMix(std::uint64_t seed) : rng_(seed) {}

  Req next() {
    Req r;
    r.top = rng_.below(3) < 2
                ? 0
                : 1 + static_cast<std::uint32_t>(rng_.below(kTops - 1));
    r.f = 1 + static_cast<std::uint32_t>(rng_.below(3));
    r.policy = static_cast<std::uint32_t>(rng_.below(3));
    return r;
  }

 private:
  Xoshiro256 rng_;
};

FusionRequest payload(const Top& top, std::uint32_t f, std::uint32_t policy) {
  return {top.originals, f, kPolicies[policy]};
}

/// Serial Algorithm 2 answers (parallel off, one oracle-owned cache per
/// top, separate from everything served) for every distinct request, each
/// checked to satisfy dmin(originals ∪ backups) > f. A served response
/// equal to its reference therefore passes that check too.
class Oracle {
 public:
  Oracle(const std::vector<Top>& tops, Outcome& out) {
    for (const Top& top : tops) {
      LowerCoverCache cache({CacheEvictionPolicy::kUnbounded, 0});

      for (std::uint32_t f = 1; f <= 3; ++f)
        for (std::uint32_t p = 0; p < 3; ++p) {
          GenerateOptions options;
          options.f = f;
          options.policy = kPolicies[p];
          options.parallel = false;
          options.cache = &cache;
          FusionResult result =
              generate_fusion(top.product.top, top.originals, options);
          std::vector<Partition> all = top.originals;
          all.insert(all.end(), result.partitions.begin(),
                     result.partitions.end());
          out.check(
              FaultGraph::build(top.product.top.size(), all).dmin() > f,
              "reference backups reach dmin > f");
          answers_.push_back(std::move(result.partitions));
        }
    }
  }

  [[nodiscard]] bool matches(const Req& r, const FusionResult& got) const {
    return got.partitions == answers_[r.distinct()];
  }

 private:
  std::vector<std::vector<Partition>> answers_;
};

/// A 4-state top registered once per shard of a wire tier, whose first
/// drain opens every connection: its wall time is the connect cost.
struct ConnectProbe {
  Top top;
  std::vector<Partition> answer;

  ConnectProbe() {
    auto alphabet = Alphabet::create();
    const std::vector<Dfsm> pair = {make_mod_counter(alphabet, "A", 2, "0"),
                                    make_mod_counter(alphabet, "B", 2, "1")};
    top = build_top({"probe", pair});
    GenerateOptions options;
    options.parallel = false;
    answer = generate_fusion(top.product.top, top.originals, options)
                 .partitions;
  }

  /// Registers the probe under one key per shard and drains one request
  /// each; returns the drain's wall time in ms.
  double connect(FusionCluster& cluster, Outcome& out) const {
    std::vector<bool> covered(cluster.shard_count(), false);
    std::size_t submitted = 0;
    for (int i = 0; submitted < cluster.shard_count(); ++i) {
      const std::string key = "probe-" + std::to_string(i);
      if (covered[cluster.shard_of(key)]) continue;
      covered[cluster.shard_of(key)] = true;
      cluster.add_top(key, top.product.top);
      cluster.submit(key, "probe", {top.originals, 1, kPolicies[1]});
      ++submitted;
    }
    const WallTimer timer;
    const auto report = cluster.drain();
    const double ms = timer.elapsed_ms();
    out.attempted += submitted;
    std::size_t good = 0;
    for (const auto& response : report.responses)
      good += response.result.partitions == answer ? 1 : 0;
    out.failed += submitted - std::min(good, submitted);
    return ms;
  }
};

/// `base`, suffixed if need be so that top t lands on a fixed shard
/// whatever its name hashes to: the hot top alone on shard 0, the others
/// in turn on the rest. Every shard (and connection) serves, and the tops
/// share shards the same way in every round.
std::string placed_key(const FusionCluster& cluster, const std::string& base,
                       std::uint32_t t) {
  const std::size_t shards = cluster.shard_count();
  const std::size_t shard =
      t == 0 || shards == 1 ? 0 : 1 + (t - 1) % (shards - 1);
  std::string key = base;
  for (int n = 0; cluster.shard_of(key) != shard; ++n)
    key = base + '~' + std::to_string(n);
  return key;
}

/// A live serving tier. The cluster is declared after the worker so it is
/// destroyed (and disconnects) first.
struct Tier {
  std::unique_ptr<ListenerWorkerProcess> worker;
  FusionClusterOptions options;
  std::unique_ptr<FusionCluster> cluster;
  std::vector<Top> tops;
  /// The key each top is registered under (serve-cold: per round).
  std::vector<std::string> keys;
  double setup_s = 0.0;
  double cross_product_ms = 0.0;
  double connect_ms = 0.0;
  std::vector<double> add_top_ms;

  /// Stops the tier; returns the worker's peak resident set in MB (0
  /// in-process), read before the worker is killed.
  double tear_down() {
    const double worker_peak = worker ? peak_rss_mb(worker->pid()) : 0.0;
    cluster.reset();
    worker.reset();
    return worker_peak;
  }
};

/// Everything setup_s covers: cross products, worker spawn, cluster build,
/// top registration and (over the wire) connect.
Tier set_up(Kind kind, const std::vector<TopInput>& inputs, obs::Obs* traced,
            const ConnectProbe& probe, Outcome& out) {
  Tier tier;
  const WallTimer total;
  const WallTimer cross;
  for (const TopInput& input : inputs) tier.tops.push_back(build_top(input));
  tier.cross_product_ms = cross.elapsed_ms();

  tier.options.obs = traced;
  if (kind == Kind::kEvict)
    tier.options.cache_config.capacity = kEvictCapacity;
  if (kind == Kind::kWarmWire) {
    tier.worker = std::make_unique<ListenerWorkerProcess>();
    BackendConfig config;
    config.kind = BackendConfig::Kind::kTcp;
    config.endpoints = {{"127.0.0.1", tier.worker->port()}};
    config.wire = WireMode::kBinary;
    config.obs = traced;
    tier.options.shards = 3;
    tier.options.backend_factory = make_backend_factory(std::move(config));
  }
  tier.cluster = std::make_unique<FusionCluster>(tier.options);
  if (kind != Kind::kCold) {
    for (std::uint32_t t = 0; t < kTops; ++t) {
      tier.keys.push_back(placed_key(*tier.cluster, tier.tops[t].name, t));
      const WallTimer timer;
      tier.cluster->add_top(tier.keys[t], tier.tops[t].product.top);
      tier.add_top_ms.push_back(timer.elapsed_ms());
    }
  }
  if (kind == Kind::kWarmWire)
    tier.connect_ms = probe.connect(*tier.cluster, out);
  tier.setup_s = total.elapsed_seconds();
  return tier;
}

/// Serves every distinct request once, so the timed window starts warm.
void warm_up(Tier& tier, const Oracle& oracle, Outcome& out) {
  std::vector<std::pair<std::uint64_t, Req>> sent;
  for (std::uint32_t t = 0; t < kTops; ++t)
    for (std::uint32_t f = 1; f <= 3; ++f)
      for (std::uint32_t p = 0; p < 3; ++p)
        sent.emplace_back(tier.cluster->submit(tier.keys[t], "warmup",
                                               payload(tier.tops[t], f, p)),
                          Req{t, f, p});
  const auto report = tier.cluster->drain();
  out.attempted += sent.size();
  std::size_t good = 0;
  for (const auto& response : report.responses)
    for (const auto& [ticket, req] : sent)
      if (ticket == response.ticket && oracle.matches(req, response.result))
        ++good;
  out.failed += sent.size() - std::min(good, sent.size());
}

using Counters = std::map<std::string, std::uint64_t>;

/// The cluster's lifetime counters that the per-layer metrics difference.
Counters counters_of(const FusionCluster::Stats& s) {
  return {{"cache_hits", s.cache_hits},
          {"cache_cold_misses", s.cache_cold_misses},
          {"cache_eviction_misses", s.cache_eviction_misses},
          {"cache_evictions", s.cache_evictions},
          {"cache_admission_rejects", s.cache_admission_rejects},
          {"speculative_covers_launched", s.speculative_covers_launched},
          {"speculation_hits", s.speculation_hits},
          {"speculation_wasted_closures", s.speculation_wasted_closures},
          {"restarts", s.restarts},
          {"failovers", s.failovers},
          {"health_probes_failed", s.health_probes_failed}};
}

/// into += now - base, counter by counter.
void accumulate(Counters& into, const Counters& now, const Counters& base) {
  for (const auto& [name, value] : now) into[name] += value - base.at(name);
}

struct Window {
  std::uint64_t requests = 0;
  std::uint64_t drains = 0;
  std::uint64_t requeued = 0;
  double serving_s = 0.0;  // submit-to-drain-return time of every round
  double wall_s = 0.0;     // the whole loop, checks included
  Samples latency_ms;
  Samples drain_ms;
  Samples submit_us;
  Samples add_top_ms;
  std::uint64_t descent_steps = 0;
  std::uint64_t closures = 0;
  std::uint64_t candidates = 0;
  /// Cluster counter movement over the window (summed across clusters).
  Counters counters;
};

/// Runs closed-loop rounds, adding to `w`, until `w` holds `seconds` of
/// serving time or this call ran `max_rounds` rounds. serve-cold swaps in a
/// fresh cluster every kEpochRounds rounds, between rounds and outside the
/// serving time, so the registered tops do not pile up and resident memory
/// does not grow with throughput. With `traced`, every round records
/// benchmark spans (round, add_top, submit, drain, request — a request's
/// spans carry its ticket).
void serve_window(Kind kind, Tier& tier, RequestMix& mix, const Oracle& oracle,
                  double seconds, std::uint64_t max_rounds,
                  std::uint64_t& round_no, obs::Obs* traced, Window& w,
                  Outcome& out) {
  static const std::vector<std::string> client_names = [] {
    std::vector<std::string> names;
    for (std::size_t c = 0; c < kClients; ++c)
      names.push_back("client" + std::to_string(c));
    return names;
  }();
  const WallTimer wall;
  const double wall_limit = 3.0 * seconds + 30.0;
  std::vector<std::string> keys = tier.keys;
  keys.resize(kTops);
  Counters base = counters_of(tier.cluster->stats());

  for (std::uint64_t rounds = 0;
       w.serving_s < seconds && rounds < max_rounds &&
       wall.elapsed_seconds() < wall_limit;
       ++rounds, ++round_no) {
    if (kind == Kind::kCold && round_no > 0 && round_no % kEpochRounds == 0) {
      accumulate(w.counters, counters_of(tier.cluster->stats()), base);
      tier.cluster = std::make_unique<FusionCluster>(tier.options);
      base = counters_of(tier.cluster->stats());
    }
    FusionCluster& cluster = *tier.cluster;
    Req reqs[kClients];
    std::vector<FusionRequest> payloads;
    for (Req& r : reqs) {
      r = mix.next();
      payloads.push_back(payload(tier.tops[r.top], r.f, r.policy));
    }
    const std::uint64_t round_span = traced ? traced->trace().next_id() : 0;
    const std::uint64_t round_us = traced ? traced->now_us() : 0;
    const auto round_start = Clock::now();

    if (kind == Kind::kCold) {
      std::vector<bool> registered(kTops, false);
      for (const Req& r : reqs) {
        if (registered[r.top]) continue;
        registered[r.top] = true;
        keys[r.top] = placed_key(cluster,
                                 std::string("r") + std::to_string(round_no) +
                                     '/' + tier.tops[r.top].name,
                                 r.top);
        const std::uint64_t span_us = traced ? traced->now_us() : 0;
        const WallTimer timer;
        cluster.add_top(keys[r.top], tier.tops[r.top].product.top);
        w.add_top_ms.add(timer.elapsed_ms());
        if (traced)
          record_span(traced, "bench.add_top", traced->trace().next_id(),
                      span_us, round_span);
      }
    }

    std::uint64_t tickets[kClients];
    Clock::time_point submitted_at[kClients];
    std::uint64_t submitted_us[kClients];
    for (std::size_t c = 0; c < kClients; ++c) {
      submitted_us[c] = traced ? traced->now_us() : 0;
      submitted_at[c] = Clock::now();
      tickets[c] = cluster.submit(keys[reqs[c].top], client_names[c],
                                  std::move(payloads[c]));
      w.submit_us.add(std::chrono::duration<double, std::micro>(
                          Clock::now() - submitted_at[c])
                          .count());
      if (traced)
        record_span(traced, "bench.submit", traced->trace().next_id(),
                    submitted_us[c], round_span, tickets[c]);
    }

    const std::uint64_t drain_us = traced ? traced->now_us() : 0;
    const auto drain_start = Clock::now();
    const FusionCluster::DrainReport report = cluster.drain();
    const auto drain_end = Clock::now();
    if (traced) {
      record_span(traced, "bench.drain", traced->trace().next_id(), drain_us,
                  round_span);
      for (std::size_t c = 0; c < kClients; ++c)
        record_span(traced, "bench.request", traced->trace().next_id(),
                    submitted_us[c], round_span, tickets[c]);
      record_span(traced, "bench.round", round_span, round_us, 0);
    }
    w.serving_s +=
        std::chrono::duration<double>(drain_end - round_start).count();
    w.drain_ms.add(
        std::chrono::duration<double, std::milli>(drain_end - drain_start)
            .count());
    ++w.drains;
    w.requests += kClients;
    w.requeued += report.requeued;
    out.check(report.failed_tops.empty(), "no top failed a drain");

    // Output checks, outside the serving time.
    bool answered[kClients] = {};
    for (const auto& response : report.responses) {
      const auto at = std::find(std::begin(tickets), std::end(tickets),
                                response.ticket);
      if (at == std::end(tickets)) continue;
      const auto c = static_cast<std::size_t>(at - std::begin(tickets));
      if (answered[c]) continue;
      answered[c] = true;
      w.latency_ms.add(std::chrono::duration<double, std::milli>(
                           drain_end - submitted_at[c])
                           .count());
      if (!oracle.matches(reqs[c], response.result)) ++out.failed;
      w.descent_steps += response.result.stats.descent_steps;
      w.closures += response.result.stats.closures_evaluated;
      w.candidates += response.result.stats.candidates_examined;
    }
    out.attempted += kClients;
    for (std::size_t c = 0; c < kClients; ++c) {
      if (answered[c]) continue;
      ++out.failed;  // unanswered, requeued or on a failed top
      cluster.discard_pending(keys[reqs[c].top]);
    }
  }
  accumulate(w.counters, counters_of(tier.cluster->stats()), base);
  w.wall_s += wall.elapsed_seconds();
  out.check(w.requeued == 0, "no requests requeued");
  out.check(w.counters["restarts"] == 0, "no worker restarts");
  out.check(w.counters["failovers"] == 0, "no replica failovers");
  out.check(w.counters["health_probes_failed"] == 0,
            "no failed health probes");
}

const char* workload_name(Kind kind) {
  switch (kind) {
    case Kind::kCold: return "serve-cold";
    case Kind::kWarmWire: return "serve-warm-wire";
    case Kind::kEvict: return "serve-evict";
  }
  return "?";
}

/// Counts of a fixed-length untraced segment from a fresh tier, for the
/// repeatability check.
Counters segment_counts(Kind kind, const std::vector<TopInput>& inputs,
                        const Oracle& oracle, const ConnectProbe& probe,
                        std::uint64_t seed, Outcome& out) {
  Tier tier = set_up(kind, inputs, nullptr, probe, out);
  if (kind != Kind::kCold) warm_up(tier, oracle, out);
  RequestMix mix(derive_seed(seed, 3));
  std::uint64_t round_no = 0;
  Window w;
  serve_window(kind, tier, mix, oracle, 1e9, kRepeatRounds, round_no, nullptr,
               w, out);
  w.counters["requests"] = w.requests;
  w.counters["requeued"] = w.requeued;
  w.counters["descent_steps"] = w.descent_steps;
  w.counters["closures"] = w.closures;
  w.counters["candidates"] = w.candidates;
  return w.counters;
}

void report_latency(const Window& w, Outcome& out) {
  out.detail("requests", static_cast<double>(w.requests));
  out.detail("drains", static_cast<double>(w.drains));
  out.detail("req_per_s", static_cast<double>(w.requests) / w.serving_s,
             "1/s");
  out.detail("latency_p50_ms", w.latency_ms.percentile(50), "ms");
  out.detail("latency_p90_ms", w.latency_ms.percentile(90), "ms");
  // All requests of a drain finish together: p90 leaves a tenth of the
  // drains beyond it.
  out.detail("drains_beyond_p90", static_cast<double>(w.drains) / 10.0);
}

Outcome run_untraced(Kind kind, const Options& options,
                     const std::vector<TopInput>& inputs, const Oracle& oracle,
                     const ConnectProbe& probe, Outcome out) {
  // The serving tier; each slice measures spare set-ups, torn down before
  // the tier serves the next tenth of the run.
  Tier tier = set_up(kind, inputs, nullptr, probe, out);
  if (kind != Kind::kCold) warm_up(tier, oracle, out);
  RequestMix mix(derive_seed(options.seed, 2));
  std::uint64_t round_no = 0;
  Window w;
  std::vector<double> setups;
  std::vector<double> slice_medians;
  double worker_peak_mb = 0.0;
  for (int slice = 1; slice <= kSetupSlices; ++slice) {
    slice_medians.push_back(repeat_set_up(
        kSetupBudgetS / kSetupSlices, kMinSliceReps,
        [&] {
          Tier spare = set_up(kind, inputs, nullptr, probe, out);
          worker_peak_mb = std::max(worker_peak_mb, spare.tear_down());
          return spare.setup_s;
        },
        setups));
    serve_window(kind, tier, mix, oracle, options.seconds * slice / kSetupSlices,
                 UINT64_MAX, round_no, nullptr, w, out);
  }
  worker_peak_mb = std::max(worker_peak_mb, tier.tear_down());

  out.metrics["ops_per_s"] = static_cast<double>(w.requests) / w.serving_s;
  // The median, not the 90th percentile: the tail of a drain is where the
  // host's stalls of thread wake-ups land (see README.md).
  out.metrics["latency_ms"] = w.latency_ms.percentile(50);
  out.metrics["setup_s"] = mean(slice_medians);
  out.metrics["rss_peak_mb"] = peak_rss_mb() + worker_peak_mb;
  report_latency(w, out);
  out.detail("setup_s", out.metrics["setup_s"], "s");
  out.detail("setup_reps", static_cast<double>(setups.size()));
  out.detail("rss_peak_mb", out.metrics["rss_peak_mb"], "MB");
  return out;
}

Outcome run_traced(Kind kind, const Options& options,
                   const std::vector<TopInput>& inputs, const Oracle& oracle,
                   const ConnectProbe& probe, Outcome out) {
  // An untraced and a traced tier serve the same request stream in
  // alternating chunks, so load drifting on the host hits both alike and
  // the overhead ratio compares like with like.
  Tier plain = set_up(kind, inputs, nullptr, probe, out);
  obs::Obs traced({.enabled = true, .trace_capacity = kTraceCapacity});
  Tier tier = set_up(kind, inputs, &traced, probe, out);
  if (kind != Kind::kCold) {
    warm_up(plain, oracle, out);
    warm_up(tier, oracle, out);
  }
  const obs::ObsSnapshot o0 = tier.cluster->obs_snapshot();
  const int worker_pid = tier.worker ? tier.worker->pid() : 0;
  RequestMix plain_mix(derive_seed(options.seed, 2));
  RequestMix mix(derive_seed(options.seed, 2));
  std::uint64_t plain_round = 0;
  std::uint64_t round_no = 0;
  Window untraced;
  Window w;
  double cpu_s = 0.0;  // CPU time of the traced chunks
  const double chunk = options.seconds / 2.0 / kTraceChunks;
  for (int i = 1; i <= kTraceChunks; ++i) {
    serve_window(kind, plain, plain_mix, oracle, i * chunk, UINT64_MAX,
                 plain_round, nullptr, untraced, out);
    const double cpu0 = process_cpu_seconds() + pid_cpu_seconds(worker_pid);
    serve_window(kind, tier, mix, oracle, i * chunk, UINT64_MAX, round_no,
                 &traced, w, out);
    cpu_s += process_cpu_seconds() + pid_cpu_seconds(worker_pid) - cpu0;
  }
  plain.tear_down();
  const FusionCluster::Stats last = tier.cluster->stats();
  const obs::ObsSnapshot o1 = tier.cluster->obs_snapshot();
  const obs::ObsSnapshot d = obs::ObsSnapshot::diff(o1, o0);

  const double reqs = static_cast<double>(w.requests);
  const auto per_req = [&](double v) { return v / reqs; };
  const auto counter = [&](const char* name) {
    return static_cast<double>(w.counters[name]);
  };
  const auto hist = [&](const char* name) {
    const auto it = d.histograms.find(name);
    return it == d.histograms.end() ? obs::HistogramSnapshot{} : it->second;
  };
  auto& m = out.metrics;
  m["sim.cluster.drain_ms_p50"] = w.drain_ms.percentile(50);
  m["sim.cluster.submit_us_p50"] = w.submit_us.percentile(50);
  m["sim.cluster.queue_wait_us_p50"] =
      histogram_percentile(hist("cluster.queue_wait"), 50);
  m["sim.cluster.merge_us_per_drain"] =
      histogram_sum(d, "cluster.merge") / static_cast<double>(w.drains);
  m["sim.cluster.add_top_ms_p50"] = kind == Kind::kCold
                                        ? w.add_top_ms.percentile(50)
                                        : percentile(tier.add_top_ms, 50);
  m["sim.cluster.requeued"] = static_cast<double>(w.requeued);
  m["sim.wire.roundtrip_us_p50"] =
      histogram_percentile(hist("wire.roundtrip"), 50);
  m["sim.wire.roundtrip_us_per_req"] =
      per_req(histogram_sum(d, "wire.roundtrip"));
  m["sim.wire.encode_us_per_req"] = per_req(histogram_sum(d, "wire.encode"));
  m["sim.wire.decode_us_per_req"] = per_req(histogram_sum(d, "wire.decode"));
  m["sim.wire.restarts"] = counter("restarts");
  m["sim.wire.failovers"] = counter("failovers");
  m["sim.wire.health_probes_failed"] = counter("health_probes_failed");
  m["sim.backend.connect_ms"] = tier.connect_ms;
  m["fusion.gen_request_ms_per_req"] =
      per_req(histogram_sum(d, "gen.request")) / 1000.0;
  m["fusion.descent_steps_per_req"] =
      per_req(static_cast<double>(w.descent_steps));
  const double launched = counter("speculative_covers_launched");
  m["fusion.speculation.hit_ratio"] =
      launched > 0 ? counter("speculation_hits") / launched : 0.0;
  m["fusion.speculation.wasted_closures_per_req"] =
      per_req(counter("speculation_wasted_closures"));
  m["fusion.speculation_join_us_per_req"] =
      per_req(histogram_sum(d, "gen.speculation_join"));
  m["partition.closures_per_req"] = per_req(static_cast<double>(w.closures));
  m["partition.candidates_per_req"] =
      per_req(static_cast<double>(w.candidates));
  m["partition.lower_cover_us_per_req"] =
      per_req(histogram_sum(d, "gen.lower_cover"));
  m["partition.closure_eval_us_per_req"] =
      per_req(histogram_sum(d, "gen.closure_eval"));
  const double lookups = counter("cache_hits") +
                         counter("cache_cold_misses") +
                         counter("cache_eviction_misses");
  m["partition.cache.hit_ratio"] =
      lookups > 0 ? counter("cache_hits") / lookups : 0.0;
  m["partition.cache.eviction_misses_per_req"] =
      per_req(counter("cache_eviction_misses"));
  m["partition.cache.evictions_per_req"] = per_req(counter("cache_evictions"));
  m["partition.cache.admission_rejects_per_req"] =
      per_req(counter("cache_admission_rejects"));
  m["partition.cache.get_us_per_req"] = per_req(histogram_sum(d, "cache.get"));
  m["partition.cache.insert_us_per_req"] =
      per_req(histogram_sum(d, "cache.insert"));
  m["partition.cache.bytes"] = static_cast<double>(last.cache_bytes);
  const double drain_wall_us = w.drain_ms.sum() * 1000.0;
  m["util.parallel.effective_concurrency"] =
      drain_wall_us > 0 ? histogram_sum(d, "gen.request") / drain_wall_us
                        : 0.0;
  m["util.parallel.cpu_busy_share"] =
      cpu_s / (w.wall_s * static_cast<double>(online_cpus()));
  m["fsm.cross_product_ms"] = tier.cross_product_ms;
  m["obs.trace_overhead_ratio"] =
      (reqs / w.serving_s) /
      (static_cast<double>(untraced.requests) / untraced.serving_s);
  const std::vector<obs::TraceSpan> window = complete_window(o1.spans);
  m["obs.attributed_share"] = child_coverage(window, "cluster.drain");
  report_trace_coverage(window, traced, "bench.round", w.drains, out);

  for (const auto& [name, t] : self_times(window, "bench.drain"))
    out.detail("self_ms." + name,
               std::to_string(t.count) + " spans, total " +
                   std::to_string(t.total_us / 1000.0) + " ms, self " +
                   std::to_string(t.self_us / 1000.0) + " ms");
  std::filesystem::create_directories(options.out_dir);
  const std::string trace_path = options.out_dir + "/trace-" +
                                 workload_name(kind) + "-seed" +
                                 std::to_string(options.seed) + ".json";
  out.check(write_trace_file(trace_path, window), "trace file written");
  out.detail("chrome_trace", trace_path);
  report_latency(w, out);
  tier.tear_down();

  const Counters first =
      segment_counts(kind, inputs, oracle, probe, options.seed, out);
  const Counters second =
      segment_counts(kind, inputs, oracle, probe, options.seed, out);
  m["obs.repeatable_count_share"] = repeatable_share(first, second, out);
  return out;
}

Outcome run_serve(Kind kind, const Options& options) {
  Outcome out;
  const std::vector<TopInput> inputs = make_top_inputs(options.seed);
  std::vector<Top> tops;
  for (const TopInput& input : inputs) tops.push_back(build_top(input));
  const Oracle oracle(tops, out);
  const ConnectProbe probe;
  reset_peak_rss();
  return options.trace
             ? run_traced(kind, options, inputs, oracle, probe, std::move(out))
             : run_untraced(kind, options, inputs, oracle, probe,
                            std::move(out));
}

}  // namespace

Outcome run_serve_cold(const Options& options) {
  return run_serve(Kind::kCold, options);
}
Outcome run_serve_warm_wire(const Options& options) {
  return run_serve(Kind::kWarmWire, options);
}
Outcome run_serve_evict(const Options& options) {
  return run_serve(Kind::kEvict, options);
}

}  // namespace perfbench
