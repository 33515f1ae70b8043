// Multi-tenant fusion cluster: many clients, several shared top machines,
// pluggable shard backends.
//
// A FusionCluster owns N shards, each served by a ShardBackend hosting
// one FusionService per registered top machine (the expensive reachable
// cross product), with tops consistently hashed onto shards. Clients
// submit requests against any registered top; drain() fans the shard
// backlogs out across the thread pool. Every top bounds its closure cache
// (LRU here), so a long-lived cluster serves an unbounded request stream
// in bounded memory — an evicted cover is simply recomputed on the next
// miss.
//
// The backend is selectable: --backend=inprocess serves in this address
// space (default); --backend=subprocess forks one ffsm_shard_worker per
// shard and speaks the wire protocol over pipes; --backend=tcp speaks the
// same frames over sockets to a remote worker; --backend=replica-tcp
// serves every shard through an ordered seed list of worker replicas with
// background health probing — same requests, same bit-identical
// responses, four failure domains. The whole serving tier is described by
// one BackendConfig (sim/backend_config.hpp); this file only parses flags
// into it. Every worker connection speaks the binary wire behind a
// versioned hello.
//
// Build & run:  cmake --build build &&
//               ./build/fusion_service [--backend=subprocess] [--shards=N]
//
// TCP walkthrough (two terminals, or two machines):
//   host A$ ./build/ffsm_shard_worker --listen 7001
//   listening 7001
//   host B$ ./build/fusion_service --backend=tcp --connect hostA:7001
// Every shard opens its own connection to that worker; kill the worker
// mid-run and the cluster re-queues, reconnects and re-serves once a
// listener is back.
//
// Replica-set walkthrough (any worker may die at any point):
//   host A$ ./build/ffsm_shard_worker --listen 7001
//   host B$ ./build/ffsm_shard_worker --listen 7001
//   host C$ ./build/fusion_service --backend=replica-tcp \
//                --connect hostA:7001,hostB:7001
// Seed-list order is priority order: every shard serves through hostA
// while it answers, fails over to hostB mid-drain (losslessly — the batch
// re-submits to the survivor) when hostA dies, and fails back once the
// health probes see hostA again.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fsm/machine_catalog.hpp"
#include "fsm/product.hpp"
#include "fusion/generator.hpp"
#include "net/exposition_server.hpp"
#include "net/health.hpp"
#include "obs/exposition.hpp"
#include "obs/obs.hpp"
#include "obs/window.hpp"
#include "sim/backend_config.hpp"
#include "sim/cluster.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

ffsm::CrossProduct counter_top(std::uint32_t k) {
  using namespace ffsm;
  auto alphabet = Alphabet::create();
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "A", k, "0"));
  machines.push_back(make_mod_counter(alphabet, "B", k, "1"));
  return reachable_cross_product(machines);
}

std::vector<ffsm::Partition> originals_of(const ffsm::CrossProduct& cp) {
  std::vector<ffsm::Partition> out;
  for (std::uint32_t i = 0; i < cp.machine_count(); ++i)
    out.emplace_back(cp.component_assignment(i));
  return out;
}

struct CliOptions {
  /// The whole serving tier as one declarative config — no per-backend
  /// special cases here; make_backend_factory() validates the shape.
  ffsm::BackendConfig backend;
  std::size_t shards = 3;
  /// Write the cluster-wide trace (parent drains + worker generation,
  /// merged over the wire) as Chrome trace-event JSON here; empty = off.
  std::string trace_out;
  /// Serve Prometheus-style exposition (/metrics) and a one-line health
  /// verdict (/health) on this port while running (0 = ephemeral, the
  /// actual port is printed); also starts the cluster's telemetry poller
  /// so scrapes interleave with live drains.
  bool metrics = false;
  std::uint16_t metrics_port = 0;
  /// Keep serving /metrics this long after the demo batches finish —
  /// gives an external scraper (the CI check, a curl-wielding operator) a
  /// deterministic window against an otherwise short-lived process.
  long metrics_linger_ms = 0;
};

bool parse_cli(int argc, char** argv, CliOptions& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--backend=", 0) == 0) {
      if (!ffsm::parse_backend_kind(arg.substr(std::strlen("--backend=")),
                                    cli.backend.kind))
        return false;
    } else if (arg.rfind("--connect=", 0) == 0) {
      // Strict parse (net::parse_host_port_list): "hostA:70o1" must be
      // rejected, not read as port 70, and "a:1,a:1" or a trailing comma
      // is a typo, not a replica set.
      if (!ffsm::net::parse_host_port_list(
              arg.substr(std::strlen("--connect=")), cli.backend.endpoints))
        return false;
    } else if (arg == "--connect" && i + 1 < argc) {
      if (!ffsm::net::parse_host_port_list(argv[++i], cli.backend.endpoints))
        return false;
    } else if (arg.rfind("--shards=", 0) == 0) {
      const long n = std::atol(arg.c_str() + std::strlen("--shards="));
      if (n < 1) return false;
      cli.shards = static_cast<std::size_t>(n);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      cli.trace_out = arg.substr(std::strlen("--trace-out="));
      if (cli.trace_out.empty()) return false;
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      if (!ffsm::net::parse_port(
              arg.c_str() + std::strlen("--metrics-port="),
              cli.metrics_port))
        return false;
      cli.metrics = true;
    } else if (arg.rfind("--metrics-linger-ms=", 0) == 0) {
      const long n =
          std::atol(arg.c_str() + std::strlen("--metrics-linger-ms="));
      if (n < 0) return false;
      cli.metrics_linger_ms = n;
    } else {
      return false;
    }
  }
  return true;
}

[[noreturn]] void usage(const char* argv0, const char* detail) {
  if (detail != nullptr) std::fprintf(stderr, "%s: %s\n", argv0, detail);
  std::fprintf(
      stderr,
      "usage: %s [--backend={inprocess,subprocess,tcp,replica-tcp}] "
      "[--connect host:port[,host:port...]] "
      "[--shards=N] [--trace-out=trace.json] [--metrics-port=N] "
      "[--metrics-linger-ms=N]\n"
      "  --backend=tcp requires --connect with one worker (a running "
      "`ffsm_shard_worker --listen <port>`)\n"
      "  --backend=replica-tcp requires --connect with the worker replica "
      "seed list, priority order\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ffsm;

  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) usage(argv[0], nullptr);
  const char* const backend_name = backend_kind_name(cli.backend.kind);

  // Three tenants: counter products of 100, 144 and 196 states.
  ThreadPool pool(8);
  // One observability timeline for the whole run: the cluster's drain
  // spans, every backend's wire timing, and (merged over kObs) each
  // worker's generation spans.
  obs::Obs obs;
  const LowerCoverCacheConfig cache_config = {CacheEvictionPolicy::kLru, 64};
  cli.backend.service.parallel = true;
  cli.backend.service.threads = 4;
  cli.backend.service.cache_config = cache_config;
  cli.backend.obs = &obs;
  if (cli.backend.kind == BackendConfig::Kind::kReplica) {
    // One monitor probes the whole seed list for every shard; shared into
    // the factory so it outlives this scope.
    net::HealthMonitorOptions monitor_options;
    monitor_options.obs = &obs;
    cli.backend.monitor =
        std::make_shared<net::HealthMonitor>(std::move(monitor_options));
  }
  FusionClusterOptions options;
  options.shards = cli.shards;
  options.pool = &pool;
  options.cache_config = cache_config;
  options.obs = &obs;
  // With a metrics endpoint, run the telemetry poller too: kObs snapshots
  // pulled every 100 ms feed the windowed view while drains are live.
  if (cli.metrics) options.telemetry_poll_us = 100'000;
  try {
    options.backend_factory = make_backend_factory(cli.backend);
  } catch (const ContractViolation& error) {
    // Shape violations (endpoint counts per backend) are diagnosed by the
    // factory, uniformly for every embedder — not re-implemented per flag.
    usage(argv[0], error.what());
  }
  FusionCluster cluster(options);
  std::printf("serving backend: %s (%zu shards)\n", backend_name,
              cluster.shard_count());
  std::optional<net::ExpositionServer> metrics_server;
  if (cli.metrics) {
    metrics_server.emplace(
        cli.metrics_port,
        [&cluster](std::string_view path) -> std::string {
          if (path == "/metrics")
            // The cumulative cluster-wide snapshot (this process + every
            // worker over kObs) — what Prometheus expects to rate() over.
            return obs::render_exposition(cluster.obs_snapshot());
          if (path == "/health") {
            const FusionCluster::Stats s = cluster.stats();
            const bool ok =
                s.drain_failures == 0 && s.health_probes_failed == 0;
            return std::string(ok ? "ok" : "degraded") + " fusion_service " +
                   std::to_string(s.requests_served) + "/" +
                   std::to_string(s.requests_submitted) + " served, " +
                   std::to_string(s.drain_failures) + " drain failure(s), " +
                   std::to_string(s.health_probes_failed) +
                   " failed probe(s)\n";
          }
          return {};  // 404
        });
    std::printf("metrics: http://127.0.0.1:%u/metrics (verdict: /health)\n",
                static_cast<unsigned>(metrics_server->port()));
  }
  if (cli.backend.kind == BackendConfig::Kind::kTcp)
    std::printf("remote worker: %s (every shard on its own connection)\n",
                net::to_string(cli.backend.endpoints[0]).c_str());
  if (cli.backend.kind == BackendConfig::Kind::kReplica) {
    std::printf("replica seed list (priority order, health-probed):");
    for (const net::Endpoint& endpoint : cli.backend.endpoints)
      std::printf(" %s", net::to_string(endpoint).c_str());
    std::printf("\n");
  }

  std::vector<std::string> keys;
  std::vector<std::vector<Partition>> originals;
  for (const std::uint32_t k : {10u, 12u, 14u}) {
    const CrossProduct cp = counter_top(k);
    const std::string key = "counters-" + std::to_string(k);
    cluster.add_top(key, cp.top);
    std::printf("registered %-11s (%3u states) on shard %zu\n", key.c_str(),
                cp.top.size(), cluster.shard_of(key));
    keys.push_back(key);
    originals.push_back(originals_of(cp));
  }

  // Batch 1: nine clients spread over the three tops.
  for (std::size_t t = 0; t < keys.size(); ++t)
    for (const std::uint32_t f : {1u, 2u, 3u})
      cluster.submit(keys[t], "tenant" + std::to_string(t) + "-f" +
                                  std::to_string(f),
                     {originals[t], f});

  WallTimer cold;
  const auto first = cluster.drain();
  std::printf("\nbatch 1 (cold caches): %zu responses in %.1f ms\n",
              first.responses.size(), cold.elapsed_ms());
  for (const auto& r : first.responses)
    std::printf("  #%llu %-11s %-11s -> %u backup(s), dmin %u -> %u\n",
                static_cast<unsigned long long>(r.ticket), r.top.c_str(),
                r.client.c_str(), r.result.stats.machines_added,
                r.result.stats.dmin_before, r.result.stats.dmin_after);

  // Batch 2: late tenants asking overlapping questions — warm caches make
  // their descents mostly lookups, within each top's memory bound (the
  // cache lives wherever the backend does: here or in a worker process).
  for (std::size_t t = 0; t < keys.size(); ++t)
    cluster.submit(keys[t], "late" + std::to_string(t),
                   {originals[t], 2, DescentPolicy::kMostBlocks});

  WallTimer warm;
  const auto second = cluster.drain();
  std::printf("\nbatch 2 (warm caches): %zu responses in %.1f ms\n",
              second.responses.size(), warm.elapsed_ms());
  for (const auto& r : second.responses)
    std::printf("  #%llu %-11s %-7s -> %u backup(s), %llu cover-cache "
                "hits\n",
                static_cast<unsigned long long>(r.ticket), r.top.c_str(),
                r.client.c_str(), r.result.stats.machines_added,
                static_cast<unsigned long long>(
                    r.result.stats.cover_cache_hits));

  const auto stats = cluster.stats();
  std::printf("\ncluster [%s]: %zu tops on %zu shards; served %llu of %llu "
              "requests in %llu shard batches (%llu worker restarts, "
              "%llu replica failovers, %llu failed health probes)\n",
              backend_name, stats.tops, stats.shards,
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.requests_submitted),
              static_cast<unsigned long long>(stats.shard_batches_served),
              static_cast<unsigned long long>(stats.restarts),
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.health_probes_failed));
  std::printf("caches:  %zu covers resident (~%zu KiB, cap %zu/top), "
              "%llu hits / %llu cold + %llu eviction misses, "
              "%llu evictions\n",
              stats.cache_entries, stats.cache_bytes / 1024,
              cache_config.capacity,
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_cold_misses),
              static_cast<unsigned long long>(stats.cache_eviction_misses),
              static_cast<unsigned long long>(stats.cache_evictions));

  // Per-tenant view through the backend-agnostic stats surface — the same
  // table whether the counters come from this process or a worker.
  TextTable table({"top", "shard", "served", "batches", "cache entries",
                   "cache hits", "evictions"});
  for (const std::string& key : keys) {
    const ServiceStats s = cluster.top_stats(key);
    table.add_row({key, std::to_string(cluster.shard_of(key)),
                   std::to_string(s.requests_served),
                   std::to_string(s.batches_served),
                   std::to_string(s.cache_entries),
                   std::to_string(s.cache_hits),
                   std::to_string(s.cache_evictions)});
  }
  std::printf("\n%s", table.to_string().c_str());

  // Where the milliseconds went: latency percentiles over every histogram
  // in the merged cluster snapshot — parent-side drain/queue/merge timing
  // plus worker-side generation and cache phases pulled over kObs. Taken
  // before shutdown() so out-of-process workers are still answering.
  // Bucket midpoints, not upper bounds: percentile() reports the log2
  // bucket's upper bound (up to 2x above the true value); percentile_mid
  // splits the difference for human-facing tables.
  const obs::ObsSnapshot snap = cluster.obs_snapshot();
  TextTable latencies(
      {"histogram (us, bucket mid)", "count", "p50", "p95", "p99"});
  for (const auto& [name, hist] : snap.histograms)
    latencies.add_row({name, std::to_string(hist.count()),
                       std::to_string(hist.percentile_mid(50)),
                       std::to_string(hist.percentile_mid(95)),
                       std::to_string(hist.percentile_mid(99))});
  std::printf("\n%s", latencies.to_string().c_str());

  if (cli.metrics) {
    // One deterministic final poll, then the windowed view: lifetime
    // totals above, what-happened-recently here (the feed a placement
    // loop would consume via obs_windows()).
    cluster.poll_telemetry();
    const obs::WindowedObs windows = cluster.obs_windows();
    const obs::ObsSnapshot recent = windows.merged();
    const auto drains_it = recent.histograms.find("cluster.drain");
    std::printf("\nwindowed telemetry: %zu window(s) x %llu ms retained, "
                "%llu drain(s) in the horizon\n",
                windows.windows().size(),
                static_cast<unsigned long long>(
                    windows.config().window_us / 1000),
                static_cast<unsigned long long>(
                    drains_it != recent.histograms.end()
                        ? drains_it->second.count()
                        : 0));
  }

  if (!cli.trace_out.empty()) {
    std::ofstream trace(cli.trace_out, std::ios::trunc);
    if (!trace) {
      std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0],
                   cli.trace_out.c_str());
      return 1;
    }
    obs::write_chrome_trace(trace, snap.spans);
    std::printf("\ntrace: %zu spans -> %s (load via chrome://tracing or "
                "ui.perfetto.dev)\n",
                snap.spans.size(), cli.trace_out.c_str());
  }

  if (metrics_server) {
    if (cli.metrics_linger_ms > 0) {
      std::printf("\nlingering %ld ms for scrapers on port %u...\n",
                  cli.metrics_linger_ms,
                  static_cast<unsigned>(metrics_server->port()));
      std::fflush(stdout);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cli.metrics_linger_ms));
    }
    // Stop scrapes before the backends they snapshot go away.
    metrics_server->stop();
  }
  cluster.shutdown();  // terminates subprocess workers, no-op in-process
  // The monitor's prober thread records into `obs`; stop it before `obs`
  // (declared later, destroyed first) goes away.
  if (cli.backend.monitor) cli.backend.monitor->stop();
  return 0;
}
