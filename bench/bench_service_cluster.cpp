// Multi-tenant cluster workload: many clients x several top machines x
// bounded per-shard closure caches x pluggable shard backends, served by
// a FusionCluster fanning shard drains across one pool. Doubles as a
// large-workload regression test: bounded-cache runs must serve
// bit-identical results to the unbounded run, every shard cache must
// respect its capacity, and the out-of-process backends — subprocess
// workers over socketpairs, a loopback-TCP worker behind a listener
// (tcp-bin), and a two-replica seed list per shard (replica-tcp) with a
// live HealthMonitor probing both replicas — must serve bit-identical
// responses to the in-process one for the same request stream — all
// hard-asserted here, so a violation fails CI at once. The wall-clock
// gates (TCP wire's cold drain within 15% of in-process, among others)
// fail the run too, but only after every section has run and the JSON
// has been written, so a timing miss cannot skip a determinism check.
// The JSON entries carry a "backend" field so in-process vs subprocess vs
// tcp-bin vs replica-tcp overhead is tracked in the perf history.
#include "bench_support.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/exposition_server.hpp"
#include "net/health.hpp"
#include "obs/exposition.hpp"
#include "obs/obs.hpp"
#include "sim/backend_config.hpp"
#include "sim/cluster.hpp"
#include "sim/tcp_backend.hpp"
#include "util/table.hpp"

namespace {

using namespace ffsm;

struct Workload {
  std::vector<std::string> keys;
  std::vector<CrossProduct> products;
  std::vector<std::vector<Partition>> originals;
};

/// Several distinct tops: counter pair products of increasing size (64,
/// 100, 144 states).
Workload make_workload() {
  Workload w;
  for (const std::uint32_t k : {8u, 10u, 12u}) {
    w.keys.push_back("top" + std::to_string(k));
    w.products.push_back(bench::counter_pair_product(k));
    w.originals.push_back(bench::original_partitions(w.products.back()));
  }
  return w;
}

/// The bench's wall-clock gates. Their bounds divide noisy timings, so a
/// miss is recorded rather than thrown at once: the bit-identity and
/// counter checks of the later sections still run (they throw at once via
/// bench::require). raise() fails the run after every section has run.
class TimingGates {
 public:
  /// Prints a miss as bench::require() does and remembers it.
  void check(bool ok, const char* what) {
    if (ok) return;
    std::fprintf(stderr, "BENCH CHECK FAILED: %s\n", what);
    missed_.emplace_back(what);
  }

  /// Throws the first miss, if any.
  void raise() const {
    if (!missed_.empty()) throw bench::CheckFailed(missed_.front());
  }

 private:
  std::vector<std::string> missed_;
};

std::unique_ptr<FusionCluster> make_cluster(const Workload& w,
                                            ThreadPool* pool,
                                            LowerCoverCacheConfig config) {
  FusionClusterOptions options;
  options.shards = 3;
  options.pool = pool;
  options.cache_config = config;
  auto cluster = std::make_unique<FusionCluster>(options);
  for (std::size_t t = 0; t < w.keys.size(); ++t)
    cluster->add_top(w.keys[t], w.products[t].top);
  return cluster;
}

/// 8 clients per top, f cycling 1..3, both descent policies.
void submit_clients(FusionCluster& cluster, const Workload& w) {
  for (std::size_t t = 0; t < w.keys.size(); ++t)
    for (std::uint32_t c = 0; c < 8; ++c) {
      FusionRequest request;
      request.originals = w.originals[t];
      request.f = 1 + c % 3;
      request.policy = c % 2 == 0 ? DescentPolicy::kFewestBlocks
                                  : DescentPolicy::kMostBlocks;
      cluster.submit(w.keys[t], "client" + std::to_string(c),
                     std::move(request));
    }
}

void report_caches(bench::JsonReporter& json, const Workload& w,
                   ThreadPool& pool, TimingGates& timing) {
  std::printf("== Service cluster: clients x tops x bounded caches ==\n");
  json.set_backend("inprocess");  // this whole section serves in-process
  const std::size_t clients = 8 * w.keys.size();

  struct Config {
    const char* name;
    LowerCoverCacheConfig cache;
  };
  const Config configs[] = {
      {"unbounded", {CacheEvictionPolicy::kUnbounded, 0}},
      {"lru_cap16", {CacheEvictionPolicy::kLru, 16}},
      {"lru_cap4", {CacheEvictionPolicy::kLru, 4}},
      {"epoch_cap16", {CacheEvictionPolicy::kEpoch, 16}},
      {"lfu_admit_cap4", {CacheEvictionPolicy::kLfuAdmit, 4}},
  };

  std::vector<std::vector<Partition>> baseline;  // unbounded responses
  // The admission tentpole's measured target: at the same capacity 4 that
  // thrashes plain LRU, the TinyLFU gate must keep the hot descent
  // prefixes resident — hard-asserted below as a >= 2x warm-drain win.
  double lru_cap4_warm_ms = 0.0;
  double lfu_cap4_warm_ms = 0.0;
  // The same bar on work instead of time: pair closures considered per
  // warm drain. Scheduling still moves the count (which request misses
  // first), but host speed does not.
  double lru_cap4_warm_closures = 0.0;
  double lfu_cap4_warm_closures = 0.0;
  TextTable table({"cache", "cold drain ms", "warm drain ms",
                   "cache entries", "evictions", "admit rejects",
                   "hit rate %"});
  for (const Config& config : configs) {
    // Cold: fresh cluster, first drain computes everything. Warm: same
    // clients resubmitted, descents served from whatever survived the
    // bound.
    auto cluster = make_cluster(w, &pool, config.cache);
    submit_clients(*cluster, w);
    double cold_ms = 0.0;
    std::vector<FusionCluster::Response> responses;
    {
      WallTimer timer;
      responses = cluster->drain().responses;
      cold_ms = timer.elapsed_ms();
    }
    bench::require(responses.size() == clients,
                   "every client answered in the cold drain");

    std::uint64_t warm_closures = 0;
    int warm_drains = 0;
    const double warm_ms = json.measure_ms(
        "warm_drain_" + std::string(config.name),
        [&] {
          submit_clients(*cluster, w);
          const auto report = cluster->drain();
          bench::require(report.responses.size() == clients,
                         "every client answered in a warm drain");
          for (const auto& r : report.responses)
            warm_closures += r.result.stats.closures_evaluated;
          ++warm_drains;
          benchmark::DoNotOptimize(report);
        },
        3, 1);
    const double closures_per_warm_drain =
        static_cast<double>(warm_closures) / warm_drains;
    json.add_metric(config.name, "cold_drain_ms", cold_ms);
    json.add_metric(config.name, "warm_drain_closures",
                    closures_per_warm_drain);

    // Hard acceptance checks: identical results to the unbounded run and
    // per-service cache occupancy within the configured cap.
    if (baseline.empty()) {
      baseline.reserve(responses.size());
      for (const auto& r : responses) baseline.push_back(r.result.partitions);
    } else {
      bench::require(responses.size() == baseline.size(),
                     "bounded run answers every client");
      for (std::size_t i = 0; i < responses.size(); ++i)
        bench::require(responses[i].result.partitions == baseline[i],
                       "bounded cache serves bit-identical fusions");
    }
    if (config.cache.policy != CacheEvictionPolicy::kUnbounded)
      for (const std::string& key : w.keys)
        bench::require(
            cluster->service(key).cache().size() <= config.cache.capacity,
            "shard cache stays within its configured capacity");

    const auto stats = cluster->stats();
    const double lookups =
        static_cast<double>(stats.cache_hits + stats.cache_cold_misses +
                            stats.cache_eviction_misses);
    const double hit_rate =
        lookups > 0 ? 100.0 * static_cast<double>(stats.cache_hits) / lookups
                    : 0.0;
    table.add_row({config.name, std::to_string(cold_ms),
                   std::to_string(warm_ms),
                   std::to_string(stats.cache_entries),
                   std::to_string(stats.cache_evictions),
                   std::to_string(stats.cache_admission_rejects),
                   std::to_string(hit_rate)});
    json.add_metric(config.name, "warm_drain_ms", warm_ms);
    json.add_metric(config.name, "cache_entries",
                    static_cast<double>(stats.cache_entries));
    json.add_metric(config.name, "cache_evictions",
                    static_cast<double>(stats.cache_evictions));
    json.add_metric(config.name, "cache_hit_rate", hit_rate);
    json.add_metric(config.name, "cache_bytes",
                    static_cast<double>(stats.cache_bytes));
    json.add_metric(config.name, "cache_admission_rejects",
                    static_cast<double>(stats.cache_admission_rejects));
    json.add_metric(config.name, "cache_sketch_bytes",
                    static_cast<double>(stats.cache_sketch_bytes));
    if (std::string(config.name) == "lru_cap4") {
      lru_cap4_warm_ms = warm_ms;
      lru_cap4_warm_closures = closures_per_warm_drain;
    }
    if (std::string(config.name) == "lfu_admit_cap4") {
      lfu_cap4_warm_ms = warm_ms;
      lfu_cap4_warm_closures = closures_per_warm_drain;
    }
  }
  std::printf("%zu clients x %zu tops on %zu shards\n%s\n", std::size_t{8},
              w.keys.size(), std::size_t{3}, table.to_string().c_str());
  // The admission tentpole's acceptance bar: frequency-gated admission at
  // capacity 4 must cut the scan-thrashed LRU warm drain at least in half
  // (in practice it restores most of the unbounded hit rate). The
  // bit-identity of its responses was already asserted against the
  // unbounded baseline above.
  std::printf(
      "warm drain at capacity 4: lru %.1f ms vs lfu_admit %.1f ms; "
      "closures per drain lru %.0f vs lfu_admit %.0f\n\n",
      lru_cap4_warm_ms, lfu_cap4_warm_ms, lru_cap4_warm_closures,
      lfu_cap4_warm_closures);
  json.add_metric("lfu_admit_cap4", "warm_drain_vs_lru_cap4",
                  lfu_cap4_warm_ms / lru_cap4_warm_ms);
  json.add_metric("lfu_admit_cap4", "warm_closures_vs_lru_cap4",
                  lfu_cap4_warm_closures / lru_cap4_warm_closures);
  timing.check(lfu_cap4_warm_ms <= 0.5 * lru_cap4_warm_ms,
               "lfu_admit warm drain at most half of lru at capacity 4");
  bench::require(
      lfu_cap4_warm_closures <= 0.5 * lru_cap4_warm_closures,
      "lfu_admit warm-drain closures at most half of lru at capacity 4");
}

/// The tentpole acceptance check as a benchmark: the same request stream
/// through the in-process, subprocess, loopback-TCP and replica-tcp
/// backends, timed per backend, with bit-identical responses
/// hard-asserted in-bench — and the TCP wire's cold drain required to
/// land within 15% of the in-process baseline.
void report_backends(bench::JsonReporter& json, const Workload& w,
                     ThreadPool& pool, TimingGates& timing) {
  std::printf(
      "== Serving backends: in-process vs subprocess vs tcp-bin vs "
      "replica-tcp shards ==\n");
  const std::size_t clients = 8 * w.keys.size();
  const LowerCoverCacheConfig cache = {CacheEvictionPolicy::kLru, 64};

  // One listener worker for every TCP shard: loopback stand-in for a
  // remote host, each shard on its own connection. The replica entry adds
  // a second worker so every shard serves through a two-replica seed
  // list, with one health monitor probing both in the background.
  ListenerWorkerProcess tcp_worker;
  ListenerWorkerProcess replica_worker;
  auto health = std::make_shared<net::HealthMonitor>([] {
    net::HealthMonitorOptions monitor;
    monitor.probe_interval = std::chrono::milliseconds(250);
    monitor.probe_timeout = std::chrono::milliseconds(2000);
    return monitor;
  }());

  // Every serving tier as one declarative BackendConfig, all raced
  // against the same oracle.
  struct Entry {
    const char* label;  // table row + JSON backend tag
    BackendConfig config;
  };
  std::vector<Entry> entries;
  {
    BackendConfig base;
    base.service.parallel = true;
    // threads=0 sizes every worker-process pool to the machine. The old
    // fixed 4 oversubscribed small runners — three workers x 4 threads on
    // one or two cores — and that scheduling noise, not the encoding, was
    // most of the out-of-process cold-drain gap.
    base.service.threads = 0;
    base.service.cache_config = cache;
    entries.push_back({"inprocess", base});
    Entry subprocess{"subprocess", base};
    subprocess.config.kind = BackendConfig::Kind::kSubprocess;
    entries.push_back(subprocess);
    Entry tcp_bin{"tcp-bin", base};
    tcp_bin.config.kind = BackendConfig::Kind::kTcp;
    tcp_bin.config.endpoints = {{"127.0.0.1", tcp_worker.port()}};
    entries.push_back(tcp_bin);
    Entry replica{"replica-tcp", base};
    replica.config.kind = BackendConfig::Kind::kReplica;
    replica.config.endpoints = {{"127.0.0.1", tcp_worker.port()},
                                {"127.0.0.1", replica_worker.port()}};
    replica.config.monitor = health;
    entries.push_back(replica);
  }

  std::vector<std::vector<Partition>> baseline;  // in-process responses
  double inprocess_cold_ms = 0.0;
  double tcp_bin_cold_ms = 0.0;
  TextTable table({"backend", "cold drain ms", "warm drain ms",
                   "shard batches", "cache hits", "restarts", "failovers"});
  for (const Entry& entry : entries) {
    const char* const name = entry.label;
    json.set_backend(name);

    // Each backend gets its own enabled Obs so the per-backend drain
    // percentiles below come from exactly this backend's drains.
    obs::Obs backend_obs;
    BackendConfig config = entry.config;
    config.obs = &backend_obs;
    FusionClusterOptions options;
    options.shards = 3;
    options.pool = &pool;
    options.cache_config = cache;
    options.obs = &backend_obs;
    options.backend_factory = make_backend_factory(std::move(config));
    auto cluster = std::make_unique<FusionCluster>(options);
    for (std::size_t t = 0; t < w.keys.size(); ++t)
      cluster->add_top(w.keys[t], w.products[t].top);

    submit_clients(*cluster, w);
    double cold_ms = 0.0;
    std::vector<FusionCluster::Response> responses;
    {
      WallTimer timer;
      const auto report = cluster->drain();
      cold_ms = timer.elapsed_ms();
      bench::require(report.failed_tops.empty(),
                     "no shard failed the cold drain");
      responses = report.responses;
    }
    bench::require(responses.size() == clients,
                   "every client answered in the cold drain");

    const double warm_ms = json.measure_ms(
        "cluster_drain",
        [&] {
          submit_clients(*cluster, w);
          const auto report = cluster->drain();
          bench::require(report.responses.size() == clients,
                         "every client answered in a warm drain");
          benchmark::DoNotOptimize(report);
        },
        3, 1);
    json.add_metric(name, "cold_drain_ms", cold_ms);

    // The acceptance criterion: every backend serves bit-identical
    // responses for the same request stream — loopback TCP included.
    if (baseline.empty()) {
      baseline.reserve(responses.size());
      for (const auto& r : responses) baseline.push_back(r.result.partitions);
    } else {
      bench::require(responses.size() == baseline.size(),
                     "out-of-process backend answers every client");
      for (std::size_t i = 0; i < responses.size(); ++i)
        bench::require(responses[i].result.partitions == baseline[i],
                       "out-of-process backend serves bit-identical fusions");
    }

    const auto stats = cluster->stats();
    for (const std::string& key : w.keys)
      bench::require(cluster->top_stats(key).cache_entries <= cache.capacity,
                     "per-top cache stays within its configured capacity");
    // A healthy bench run never restarts a worker, never fails over to a
    // backup replica and never fails a health probe; a nonzero count here
    // means the backend was quietly crash-looping (or flapping) through
    // the drains.
    bench::require(stats.restarts == 0,
                   "no worker restarts during a healthy bench run");
    bench::require(stats.failovers == 0,
                   "no replica failovers during a healthy bench run");
    bench::require(stats.health_probes_failed == 0,
                   "no failed health probes during a healthy bench run");
    if (std::string(name) == "inprocess") inprocess_cold_ms = cold_ms;
    if (std::string(name) == "tcp-bin") tcp_bin_cold_ms = cold_ms;
    table.add_row({name, std::to_string(cold_ms), std::to_string(warm_ms),
                   std::to_string(stats.shard_batches_served),
                   std::to_string(stats.cache_hits),
                   std::to_string(stats.restarts),
                   std::to_string(stats.failovers)});
    json.add_metric(name, "shard_batches_served",
                    static_cast<double>(stats.shard_batches_served));
    json.add_metric(name, "cache_hits",
                    static_cast<double>(stats.cache_hits));
    json.add_metric(name, "restarts", static_cast<double>(stats.restarts));
    json.add_metric(name, "failovers",
                    static_cast<double>(stats.failovers));
    json.add_metric(name, "health_probes_failed",
                    static_cast<double>(stats.health_probes_failed));
    // Per-backend drain-latency percentiles from the merged histogram —
    // what the CI step summary tabulates across backends.
    const obs::ObsSnapshot obs_snap = cluster->obs_snapshot();
    const auto drain_hist = obs_snap.histograms.find("cluster.drain");
    bench::require(drain_hist != obs_snap.histograms.end() &&
                       drain_hist->second.count() > 0,
                   "instrumented cluster recorded its drains");
    json.add_metric(name, "drain_p50_us",
                    static_cast<double>(drain_hist->second.percentile(50)));
    json.add_metric(name, "drain_p95_us",
                    static_cast<double>(drain_hist->second.percentile(95)));
    json.add_metric(name, "drain_p99_us",
                    static_cast<double>(drain_hist->second.percentile(99)));
    cluster->shutdown();
  }
  json.set_backend("");
  std::printf("%zu clients x %zu tops on %zu shards, per backend\n%s\n",
              clients, w.keys.size(), std::size_t{3},
              table.to_string().c_str());
  // The measured target of the wire redesign, surfaced for the perf
  // history and hard-asserted: the binary framing must close the
  // loopback-TCP cold-drain gap to within 15% of serving in-process.
  std::printf("cold drain: tcp-bin %.1f ms (in-process baseline %.1f ms)\n\n",
              tcp_bin_cold_ms, inprocess_cold_ms);
  json.add_metric("tcp-bin", "cold_drain_vs_inprocess",
                  tcp_bin_cold_ms / inprocess_cold_ms);
  timing.check(tcp_bin_cold_ms <= 1.15 * inprocess_cold_ms,
               "binary-wire cold drain within 15% of in-process");
}

/// One sample value out of an exposition body: the number after the first
/// line starting with `metric` + ' '. 0 when the metric is absent.
std::uint64_t scraped_value(const std::string& body,
                            const std::string& metric) {
  const std::string needle = metric + ' ';
  std::size_t at = body.rfind(needle, 0) == 0 ? 0 : body.find('\n' + needle);
  if (at == std::string::npos) return 0;
  if (body[at] == '\n') ++at;
  return std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
}

/// The observability tentpole's acceptance checks, hard-asserted:
///   1. overhead — warm drains through a fully instrumented in-process
///      cluster must land within 5% of the identical drains against a
///      compiled-in no-op recorder (a disabled Obs: no clock reads, no
///      ring writes), best-of-N on both sides to shed scheduler noise —
///      and the bound holds again with the live-telemetry plane on top
///      (a TelemetryPoller thread diffing snapshots into the windowed
///      view throughout the drains);
///   2. determinism — all variants serve bit-identical fusions;
///   3. content — a full instrumented run over the binary wire yields a
///      merged snapshot with nonzero p50/p95/p99 for the drain, the wire
///      round-trips and worker-side generation, plus worker spans merged
///      from an out-of-process backend; the percentiles land in the JSON
///      history;
///   4. exposition — a /metrics endpoint scraped live while the drains
///      run returns a well-formed body whose cluster.drain and
///      wire.roundtrip series are nonzero;
///   5. stitching — worker-side gen.request spans parent-link under
///      parent-side cluster.serve_top span ids, so the Chrome export of
///      this snapshot renders the cross-process serve as one tree.
void report_obs(bench::JsonReporter& json, const Workload& w,
                ThreadPool& pool, TimingGates& timing) {
  std::printf("== Observability: no-op recorder vs instrumented drains ==\n");
  json.set_backend("inprocess");
  const std::size_t clients = 8 * w.keys.size();
  const LowerCoverCacheConfig cache = {CacheEvictionPolicy::kLru, 64};
  // Warm drains are ~3 ms, so a handful of samples leaves any statistic
  // hostage to scheduler noise; 33 interleaved rounds cost well under a
  // second and let every variant's median converge.
  constexpr int kRounds = 33;
  // A single-core or shared runner can still land a burst of neighbor
  // activity across one whole measurement. Real overhead repeats across
  // independent measurements; transient contention does not — so the
  // comparison gets up to three attempts and any one inside the bound
  // settles it.
  constexpr int kAttempts = 3;

  // One cold drain per variant to fill the caches, then kRounds warm
  // drains with the variants interleaved and the order rotated every
  // round: on a shared machine the load drifts over the measurement, and
  // interleaving makes that drift hit every variant equally instead of
  // whichever happened to run last. The instrumented hot path is the
  // warm one (every cache.get, span and queue-wait sample still fires),
  // and the median of per-round paired ratios is the stable statistic
  // for a 5% bound: a round's three drains run back-to-back inside a
  // ~10 ms window, so machine drift cancels out of each ratio, and the
  // median discards the rounds a neighbor preempted — min-of-N instead
  // chases a floor that preemption keeps two variants from ever sharing.
  // poll_us != 0 additionally runs the TelemetryPoller thread through
  // every round and requires the windowed view to have caught the
  // drains.
  struct Variant {
    obs::Obs* obs;
    std::uint64_t poll_us;
    std::unique_ptr<FusionCluster> cluster;
    std::vector<std::vector<Partition>> fingerprint;
    std::vector<double> times_ms;
  };
  const auto make_cluster = [&](obs::Obs& obs, std::uint64_t poll_us) {
    FusionClusterOptions options;
    options.shards = 3;
    options.pool = &pool;
    options.cache_config = cache;
    options.obs = &obs;
    options.telemetry_poll_us = poll_us;
    // Default 6 x 10 s windows: the whole run fits the horizon, so the
    // every-drain count below is exact (rotation itself is unit-tested).
    auto cluster = std::make_unique<FusionCluster>(options);
    for (std::size_t t = 0; t < w.keys.size(); ++t)
      cluster->add_top(w.keys[t], w.products[t].top);
    submit_clients(*cluster, w);
    bench::require(cluster->drain().responses.size() == clients,
                   "every client answered in the cold drain");
    return cluster;
  };

  obs::ObsConfig disabled;
  disabled.enabled = false;
  obs::Obs noop_obs(disabled);
  obs::Obs live_obs;
  obs::Obs polled_obs;
  // The third variant layers the live-telemetry plane on top: a poller
  // thread snapshotting and diffing into windows every 20 ms while the
  // drains run.
  Variant variants[] = {{&noop_obs, 0, nullptr, {}, {}},
                        {&live_obs, 0, nullptr, {}, {}},
                        {&polled_obs, 20'000, nullptr, {}, {}}};
  constexpr std::size_t kVariants = std::size(variants);
  for (Variant& v : variants) v.cluster = make_cluster(*v.obs, v.poll_us);
  const auto median = [](std::vector<double> values) {
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    return values[values.size() / 2];
  };
  const auto ratio_vs_noop = [&](const std::vector<double>& times) {
    std::vector<double> ratios(times.size());
    for (std::size_t i = 0; i < times.size(); ++i)
      ratios[i] = times[i] / variants[0].times_ms[i];
    return median(ratios);
  };
  int warm_rounds = 0;
  double noop_ms = 0.0, live_ms = 0.0, polled_ms = 0.0;
  double live_ratio = 0.0, polled_ratio = 0.0;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    for (Variant& v : variants) v.times_ms.clear();
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < kVariants; ++i) {
        Variant& v = variants[(round + i) % kVariants];
        submit_clients(*v.cluster, w);
        WallTimer timer;
        const auto report = v.cluster->drain();
        v.times_ms.push_back(timer.elapsed_ms());
        bench::require(report.responses.size() == clients,
                       "every client answered in a warm drain");
        if (v.fingerprint.empty())
          for (const auto& r : report.responses)
            v.fingerprint.push_back(r.result.partitions);
      }
    }
    warm_rounds += kRounds;
    noop_ms = median(variants[0].times_ms);
    live_ms = median(variants[1].times_ms);
    polled_ms = median(variants[2].times_ms);
    live_ratio = ratio_vs_noop(variants[1].times_ms);
    polled_ratio = ratio_vs_noop(variants[2].times_ms);
    if (live_ratio <= 1.05 && polled_ratio <= 1.05) break;
  }
  for (Variant& v : variants) {
    if (v.poll_us == 0) continue;
    v.cluster->poll_telemetry();  // flush the tail into the current window
    const obs::ObsSnapshot merged = v.cluster->obs_windows().merged();
    bench::require(
        merged.histograms.count("cluster.drain") != 0 &&
            merged.histograms.at("cluster.drain").count() ==
                static_cast<std::uint64_t>(warm_rounds) + 1u,
        "the windowed view caught every drain");
  }
  const auto& noop_results = variants[0].fingerprint;
  const auto& live_results = variants[1].fingerprint;
  const auto& polled_results = variants[2].fingerprint;
  bench::require(noop_obs.snapshot().histograms.empty(),
                 "the no-op recorder recorded nothing");
  bench::require(live_results == noop_results,
                 "instrumented drains serve bit-identical fusions");
  bench::require(polled_results == noop_results,
                 "polled drains serve bit-identical fusions");
  std::printf("warm drain, median of %d paired rounds (%d total): no-op "
              "recorder %.2f ms vs instrumented %.2f ms (%.1f%%) vs "
              "instrumented+poller %.2f ms (%.1f%%)\n",
              kRounds, warm_rounds, noop_ms, live_ms, 100.0 * live_ratio,
              polled_ms, 100.0 * polled_ratio);
  json.add_metric("obs", "noop_warm_drain_ms", noop_ms);
  json.add_metric("obs", "instrumented_warm_drain_ms", live_ms);
  json.add_metric("obs", "instrumented_vs_noop", live_ratio);
  json.add_metric("obs", "polled_warm_drain_ms", polled_ms);
  json.add_metric("obs", "polled_vs_noop", polled_ratio);
  timing.check(live_ratio <= 1.05,
               "instrumented drain within 5% of the no-op recorder");
  timing.check(polled_ratio <= 1.05,
               "windowed telemetry collection within 5% of the no-op "
               "recorder");

  // Content: instrumented serving over the binary wire to a real worker
  // process. The merged snapshot must show where the milliseconds went at
  // every layer — parent drains, wire round-trips, worker generation.
  ListenerWorkerProcess worker;
  obs::Obs wire_obs;
  BackendConfig config;
  config.kind = BackendConfig::Kind::kTcp;
  config.endpoints = {{"127.0.0.1", worker.port()}};
  config.service.parallel = true;
  config.service.threads = 0;
  config.service.cache_config = cache;
  config.obs = &wire_obs;
  FusionClusterOptions options;
  options.shards = 3;
  options.pool = &pool;
  options.cache_config = cache;
  options.obs = &wire_obs;
  // The full telemetry plane, against real worker processes: the poller's
  // kObs exchanges interleave with the drains on the same connections.
  options.telemetry_poll_us = 5000;
  options.backend_factory = make_backend_factory(std::move(config));
  FusionCluster cluster(options);
  for (std::size_t t = 0; t < w.keys.size(); ++t)
    cluster.add_top(w.keys[t], w.products[t].top);

  // A /metrics endpoint over the live cluster, scraped from a second
  // thread while the drains run — the in-bench version of the CI
  // mid-drain curl. Every scrape takes a full cluster-wide snapshot.
  net::ExpositionServer metrics(0, [&cluster](std::string_view path) {
    return path == "/metrics"
               ? obs::render_exposition(cluster.obs_snapshot())
               : std::string();
  });
  std::atomic<bool> draining{true};
  std::atomic<std::size_t> live_scrapes{0};
  std::thread scraper([&] {
    while (draining.load()) {
      if (!net::scrape_exposition("127.0.0.1", metrics.port(), "/metrics")
               .empty())
        live_scrapes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Checked after the join: a failed check unwinds, and unwinding past a
  // joinable std::thread would terminate the bench.
  bool all_answered = true;
  for (int round = 0; round < 2; ++round) {
    submit_clients(cluster, w);
    all_answered = all_answered &&
                   cluster.drain().responses.size() == clients;
  }
  draining.store(false);
  scraper.join();
  bench::require(all_answered,
                 "every client answered over the instrumented wire");
  bench::require(live_scrapes.load() > 0,
                 "the exposition endpoint answered mid-drain scrapes");

  // The settled scrape: well-formed, legal names throughout, and the
  // advertised drain / wire series nonzero.
  const std::string body =
      net::scrape_exposition("127.0.0.1", metrics.port(), "/metrics");
  metrics.stop();
  bench::require(scraped_value(body, "cluster_drain_count") > 0,
                 "scrape carries a nonzero cluster.drain histogram");
  bench::require(scraped_value(body, "wire_roundtrip_count") > 0,
                 "scrape carries a nonzero wire.roundtrip histogram");
  std::size_t line_start = 0;
  while (line_start < body.size()) {
    std::size_t line_end = body.find('\n', line_start);
    if (line_end == std::string::npos) line_end = body.size();
    const std::string line = body.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    bench::require(name_end != std::string::npos &&
                       obs::legal_exposition_name(line.substr(0, name_end)),
                   "every scraped sample line carries a legal metric name");
  }
  json.add_metric("obs", "live_scrapes",
                  static_cast<double>(live_scrapes.load()));

  const obs::ObsSnapshot snap = cluster.obs_snapshot();
  for (const char* series : {"cluster.drain", "wire.roundtrip",
                             "gen.request"}) {
    const auto it = snap.histograms.find(series);
    bench::require(it != snap.histograms.end() && it->second.count() > 0,
                   "merged snapshot carries the advertised series");
    const std::uint64_t p50 = it->second.percentile(50);
    const std::uint64_t p95 = it->second.percentile(95);
    const std::uint64_t p99 = it->second.percentile(99);
    bench::require(p50 > 0 && p95 > 0 && p99 > 0,
                   "drain / wire / generation percentiles are nonzero");
    json.add_metric("obs", std::string(series) + "_p50_us",
                    static_cast<double>(p50));
    json.add_metric("obs", std::string(series) + "_p95_us",
                    static_cast<double>(p95));
    json.add_metric("obs", std::string(series) + "_p99_us",
                    static_cast<double>(p99));
  }
  const bool worker_spans =
      std::any_of(snap.spans.begin(), snap.spans.end(),
                  [](const obs::TraceSpan& span) {
                    return !span.source.empty() &&
                           span.name.rfind("gen.", 0) == 0;
                  });
  bench::require(worker_spans,
                 "snapshot merges generation spans from a worker process");
  // Cross-process stitching: every worker-side gen.request span must
  // parent-link under a parent-side cluster.serve_top span id — the
  // property that makes the Chrome export of this snapshot render the
  // whole serve as one tree instead of orphaned per-process islands.
  std::set<std::uint64_t> serve_top_ids;
  for (const obs::TraceSpan& span : snap.spans)
    if (span.name == "cluster.serve_top" && span.source.empty())
      serve_top_ids.insert(span.id);
  bench::require(!serve_top_ids.empty(),
                 "parent recorded cluster.serve_top spans");
  std::size_t stitched = 0;
  for (const obs::TraceSpan& span : snap.spans) {
    if (span.source.empty() || span.name != "gen.request") continue;
    bench::require(serve_top_ids.count(span.parent) != 0,
                   "worker gen.request spans parent under cluster.serve_top");
    ++stitched;
  }
  bench::require(stitched > 0, "workers shipped stitched gen.request spans");
  json.add_metric("obs", "stitched_worker_spans",
                  static_cast<double>(stitched));
  cluster.shutdown();
  json.set_backend("");
  std::printf("\n");
}

void report() {
  bench::JsonReporter json("service_cluster");
  const Workload w = make_workload();
  ThreadPool pool(8);
  TimingGates timing;
  report_caches(json, w, pool, timing);
  report_backends(json, w, pool, timing);
  report_obs(json, w, pool, timing);
  // Every check held except possibly a timing gate: keep the perf record
  // of the run, then fail it if a gate was missed.
  json.write();
  timing.raise();
}

void cluster_drain(benchmark::State& state) {
  // End-to-end drain cost vs shard count (pool fixed at 8 threads).
  const Workload w = make_workload();
  ThreadPool pool(8);
  FusionClusterOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  options.pool = &pool;
  options.cache_config = {CacheEvictionPolicy::kLru, 64};
  FusionCluster cluster(options);
  for (std::size_t t = 0; t < w.keys.size(); ++t)
    cluster.add_top(w.keys[t], w.products[t].top);
  for (auto _ : state) {
    submit_clients(cluster, w);
    benchmark::DoNotOptimize(cluster.drain());
  }
}
BENCHMARK(cluster_drain)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

FFSM_BENCH_MAIN(report)
