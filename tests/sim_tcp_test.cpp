// The "tcp" backend kind, a one-endpoint ReplicaBackend: remote shards
// over real sockets serve bit-identically to direct generation, survive
// connect-refused and mid-serve connection kills losslessly through the
// cluster's existing failed-drain re-queue path (recovering once a
// listener respawns on the same port), and bound in-flight serve frames
// by the backpressure window.
#include "sim/replica_backend.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fusion/generator.hpp"
#include "net/listener.hpp"
#include "sim/cluster.hpp"
#include "sim/tcp_backend.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"

namespace ffsm {
namespace {

using ffsm::testing::component_partitions;
using ffsm::testing::counter_pair_product;
using std::chrono::milliseconds;

/// The standard two-top fixture plus the reference results any backend
/// must reproduce bit-identically.
struct TcpFixture {
  CrossProduct small = counter_pair_product(4);
  CrossProduct large = counter_pair_product(6);
  std::vector<Partition> small_originals = component_partitions(small);
  std::vector<Partition> large_originals = component_partitions(large);

  FusionResult direct(bool small_top, std::uint32_t f,
                      DescentPolicy policy) const {
    GenerateOptions options;
    options.f = f;
    options.policy = policy;
    options.parallel = false;
    return generate_fusion(small_top ? small.top : large.top,
                           small_top ? small_originals : large_originals,
                           options);
  }
};

/// Fast-failing options for tests: bounded waits, lean serial workers.
ReplicaBackendOptions fast_options(std::uint16_t port) {
  ReplicaBackendOptions options;
  options.endpoints = {{"127.0.0.1", port}};
  options.config.parallel = false;
  options.connect_timeout = milliseconds(2000);
  options.connect_retry = {2, milliseconds(10), milliseconds(50), 2};
  options.serve_retry = {2, milliseconds(10), milliseconds(50), 2};
  return options;
}

/// An ephemeral port with nothing listening on it (grabbed, then freed).
std::uint16_t dead_port() {
  net::Listener listener(0);
  return listener.port();
}

TEST(TcpBackend, ServesBitIdenticallyToDirectGeneration) {
  const TcpFixture fx;
  ListenerWorkerProcess worker;
  ReplicaBackend backend(fast_options(worker.port()));
  backend.add_top("small", fx.small.top);
  EXPECT_FALSE(backend.connected());  // connect is lazy
  EXPECT_EQ(backend.connects(), 0u);

  backend.validate("small", {fx.small_originals, 1});
  const std::uint64_t t1 =
      backend.submit("small", "alice", {fx.small_originals, 1});
  const std::uint64_t t2 = backend.submit(
      "small", "bob", {fx.small_originals, 2, DescentPolicy::kMostBlocks});
  EXPECT_LT(t1, t2);
  EXPECT_EQ(backend.pending("small"), 2u);

  const auto responses = backend.drain("small");
  EXPECT_TRUE(backend.connected());
  EXPECT_EQ(backend.connects(), 1u);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(backend.pending("small"), 0u);
  EXPECT_EQ(responses[0].ticket, t1);
  EXPECT_EQ(responses[0].client, "alice");
  EXPECT_EQ(responses[1].ticket, t2);
  EXPECT_EQ(responses[1].client, "bob");
  EXPECT_EQ(responses[0].result.partitions,
            fx.direct(true, 1, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(responses[1].result.partitions,
            fx.direct(true, 2, DescentPolicy::kMostBlocks).partitions);

  // Counters cross the wire; the remote cover cache persists across
  // drains on the same connection.
  const ServiceStats cold = backend.stats("small");
  EXPECT_EQ(cold.requests_served, 2u);
  EXPECT_EQ(cold.batches_served, 1u);
  EXPECT_EQ(cold.restarts, 0u);
  EXPECT_GT(cold.cache_cold_misses, 0u);

  backend.submit("small", "carol", {fx.small_originals, 1});
  const auto warm = backend.drain("small");
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0].result.partitions, responses[0].result.partitions);
  EXPECT_EQ(warm[0].result.stats.closures_evaluated, 0u);  // all cached
  EXPECT_GT(backend.stats("small").cache_hits, 0u);
  EXPECT_EQ(backend.connects(), 1u);  // same connection throughout

  backend.validate("small", {fx.small_originals, 1});
  EXPECT_THROW(backend.validate("small", {fx.large_originals, 1}),
               ContractViolation);
  EXPECT_THROW((void)backend.drain("nope"), ContractViolation);
}

TEST(TcpBackend, ShutdownDropsTheConnectionNotTheListener) {
  const TcpFixture fx;
  ListenerWorkerProcess worker;
  ReplicaBackend backend(fast_options(worker.port()));
  backend.add_top("small", fx.small.top);
  backend.submit("small", "a", {fx.small_originals, 1});
  const auto first = backend.drain("small");
  ASSERT_EQ(first.size(), 1u);
  const int pid = worker.pid();

  backend.shutdown();
  EXPECT_FALSE(backend.connected());
  EXPECT_EQ(worker.pid(), pid);  // the remote worker keeps listening

  // Queued requests stay queued; the next drain reconnects and re-runs
  // the handshake against the same process.
  backend.submit("small", "b", {fx.small_originals, 1});
  const auto second = backend.drain("small");
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].result.partitions, first[0].result.partitions);
  EXPECT_EQ(backend.connects(), 2u);
  EXPECT_EQ(backend.stats("small").restarts, 1u);
}

TEST(TcpBackend, ConnectRefusedKeepsEveryRequestQueued) {
  const TcpFixture fx;
  ReplicaBackend backend(fast_options(dead_port()));
  backend.add_top("small", fx.small.top);
  backend.submit("small", "doomed", {fx.small_originals, 1});
  for (int round = 0; round < 2; ++round) {
    EXPECT_THROW((void)backend.drain("small"), net::NetError)
        << "round " << round;
    EXPECT_EQ(backend.pending("small"), 1u);  // never lost, never served
    EXPECT_EQ(backend.connects(), 0u);
  }
  EXPECT_EQ(backend.stats("small").requests_served, 0u);
  EXPECT_EQ(backend.discard_pending("small"), 1u);
  EXPECT_EQ(backend.pending("small"), 0u);
}

TEST(TcpBackend, BackpressureWindowSaturationDrainsInBoundedExchanges) {
  // 7 requests through a 2-frame window: the drain must complete as 4
  // sequential serve exchanges (batches on the worker side), never more
  // than the window in flight, with responses still in ticket order and
  // bit-identical to direct generation.
  const TcpFixture fx;
  ListenerWorkerProcess worker;
  ReplicaBackendOptions options = fast_options(worker.port());
  options.serve_window = 2;
  ReplicaBackend backend(options);
  backend.add_top("small", fx.small.top);

  struct Ask {
    std::uint32_t f;
    DescentPolicy policy;
  };
  std::vector<Ask> asks;
  std::vector<std::uint64_t> tickets;
  for (int c = 0; c < 7; ++c) {
    const Ask ask{1 + static_cast<std::uint32_t>(c % 3),
                  c % 2 == 0 ? DescentPolicy::kFewestBlocks
                             : DescentPolicy::kMostBlocks};
    asks.push_back(ask);
    tickets.push_back(backend.submit("small", "c" + std::to_string(c),
                                     {fx.small_originals, ask.f,
                                      ask.policy}));
  }

  const auto responses = backend.drain("small");
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(backend.pending("small"), 0u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].ticket, tickets[i]) << i;
    EXPECT_EQ(responses[i].result.partitions,
              fx.direct(true, asks[i].f, asks[i].policy).partitions)
        << i;
  }

  const ServiceStats stats = backend.stats("small");
  EXPECT_EQ(stats.requests_served, 7u);
  EXPECT_EQ(stats.batches_served, 4u);  // ceil(7 / window=2)
  EXPECT_EQ(backend.connects(), 1u);    // windows share one connection
}

/// Installs a no-op SIGUSR1 handler WITHOUT SA_RESTART for this scope, so
/// a signal storm makes blocking syscalls actually return EINTR (SIG_IGN,
/// or the BSD restart semantics of std::signal, would hide the retry
/// paths this is meant to exercise). Restores the old disposition.
class ScopedNoopSigusr1 {
 public:
  ScopedNoopSigusr1() {
    struct sigaction noop = {};
    noop.sa_handler = [](int) {};
    ::sigemptyset(&noop.sa_mask);
    noop.sa_flags = 0;
    ::sigaction(SIGUSR1, &noop, &previous_);
  }
  ~ScopedNoopSigusr1() { ::sigaction(SIGUSR1, &previous_, nullptr); }

 private:
  struct sigaction previous_ = {};
};

TEST(TcpBackend, ServeExchangeSurvivesASignalStorm) {
  // EINTR robustness end to end: pepper BOTH ends of a serve exchange
  // with SIGUSR1 — the worker process (its accept/recv/send loops; it
  // installs its own no-op handler) and the draining thread here (the
  // backend's send/recv/poll loops) — and require the batch to serve
  // completely, in order, bit-identically, over the ORIGINAL connection:
  // a single EINTR leaking through as an error would surface as a retry
  // (connects > 1) or a lost response.
  const ScopedNoopSigusr1 handler;
  const TcpFixture fx;
  ListenerWorkerProcess worker;
  ReplicaBackendOptions options = fast_options(worker.port());
  options.serve_window = 2;  // several exchanges => more interruptible I/O
  ReplicaBackend backend(options);
  // The large fixture on purpose: the drain must run long enough (tens of
  // ms) for hundreds of signals to land inside the exchange, not finish
  // between two of them.
  backend.add_top("large", fx.large.top);

  struct Ask {
    std::uint32_t f;
    DescentPolicy policy;
  };
  std::vector<Ask> asks;
  std::vector<std::uint64_t> tickets;
  for (int c = 0; c < 6; ++c) {
    const Ask ask{1 + static_cast<std::uint32_t>(c % 3),
                  c % 2 == 0 ? DescentPolicy::kFewestBlocks
                             : DescentPolicy::kMostBlocks};
    asks.push_back(ask);
    tickets.push_back(backend.submit("large", "s" + std::to_string(c),
                                     {fx.large_originals, ask.f,
                                      ask.policy}));
  }

  const pthread_t drainer = pthread_self();
  std::atomic<bool> stop{false};
  std::thread storm([&] {
    while (!stop.load()) {
      (void)::kill(worker.pid(), SIGUSR1);
      (void)::pthread_kill(drainer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<FusionResponse> responses;
  try {
    responses = backend.drain("large");
  } catch (...) {
    stop.store(true);
    storm.join();
    throw;
  }
  stop.store(true);
  storm.join();

  ASSERT_EQ(responses.size(), asks.size());
  EXPECT_EQ(backend.pending("large"), 0u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].ticket, tickets[i]) << i;
    EXPECT_EQ(responses[i].result.partitions,
              fx.direct(false, asks[i].f, asks[i].policy).partitions)
        << i;
  }
  EXPECT_EQ(backend.connects(), 1u)
      << "the storm must be invisible, not merely survivable";
  const ServiceStats stats = backend.stats("large");
  EXPECT_EQ(stats.requests_served, asks.size());
  EXPECT_EQ(stats.restarts, 0u);
}

/// A cluster whose every shard speaks TCP to the same worker process;
/// raw backend pointers kept so tests can probe connections underneath.
struct TcpCluster {
  std::vector<ReplicaBackend*> backends;
  std::unique_ptr<FusionCluster> cluster;

  TcpCluster(const TcpFixture& fx, std::uint16_t port,
             std::size_t shards = 2) {
    FusionClusterOptions options;
    options.shards = shards;
    options.backend_factory = [this, port](std::size_t) {
      auto backend = std::make_unique<ReplicaBackend>(fast_options(port));
      backends.push_back(backend.get());
      return backend;
    };
    cluster = std::make_unique<FusionCluster>(options);
    cluster->add_top("small", fx.small.top);
    cluster->add_top("large", fx.large.top);
  }

  ReplicaBackend& backend_of(const std::string& key) const {
    return *backends[cluster->shard_of(key)];
  }
};

TEST(TcpCluster, ServesBitIdenticallyToInProcessCluster) {
  const TcpFixture fx;
  ListenerWorkerProcess worker;

  // Reference: the default in-process cluster over the same stream.
  FusionClusterOptions in_process_options;
  in_process_options.shards = 2;
  FusionCluster reference(in_process_options);
  reference.add_top("small", fx.small.top);
  reference.add_top("large", fx.large.top);

  TcpCluster tcp(fx, worker.port());

  const auto submit_stream = [&](FusionCluster& cluster) {
    for (int c = 0; c < 3; ++c) {
      const auto f = static_cast<std::uint32_t>(1 + c % 3);
      cluster.submit("small", "s" + std::to_string(c),
                     {fx.small_originals, f});
      cluster.submit("large", "l" + std::to_string(c),
                     {fx.large_originals, f,
                      c % 2 == 0 ? DescentPolicy::kFewestBlocks
                                 : DescentPolicy::kMostBlocks});
    }
  };
  submit_stream(reference);
  submit_stream(*tcp.cluster);

  const auto expected = reference.drain();
  const auto actual = tcp.cluster->drain();
  EXPECT_TRUE(actual.failed_tops.empty());
  EXPECT_EQ(actual.requeued, 0u);
  ASSERT_EQ(actual.responses.size(), expected.responses.size());
  for (std::size_t i = 0; i < expected.responses.size(); ++i) {
    EXPECT_EQ(actual.responses[i].ticket, expected.responses[i].ticket);
    EXPECT_EQ(actual.responses[i].top, expected.responses[i].top);
    EXPECT_EQ(actual.responses[i].client, expected.responses[i].client);
    EXPECT_EQ(actual.responses[i].result.partitions,
              expected.responses[i].result.partitions)
        << "response " << i;
  }

  // Backend-agnostic stats surface: per-connection worker counters
  // aggregate into the cluster view exactly like in-process ones.
  const auto stats = tcp.cluster->stats();
  EXPECT_EQ(stats.requests_served, expected.responses.size());
  EXPECT_GT(stats.shard_batches_served, 0u);
  EXPECT_GT(stats.cache_cold_misses, 0u);
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(tcp.cluster->top_stats("small").requests_served, 3u);
  // service() is an in-process-only hatch and must say so loudly.
  EXPECT_THROW((void)tcp.cluster->service("small"), ContractViolation);
}

TEST(TcpCluster, MidServeConnectionKillIsLosslessAndListenerRespawnHeals) {
  const TcpFixture fx;
  auto worker = std::make_unique<ListenerWorkerProcess>();
  const std::uint16_t port = worker->port();
  TcpCluster tcp(fx, port, 1);
  FusionCluster& cluster = *tcp.cluster;

  // Round 1 establishes the connection and warms the remote caches.
  cluster.submit("small", "warm", {fx.small_originals, 1});
  cluster.submit("large", "warm", {fx.large_originals, 1});
  const auto first = cluster.drain();
  ASSERT_EQ(first.responses.size(), 2u);
  ReplicaBackend& backend = tcp.backend_of("small");
  ASSERT_TRUE(backend.connected());
  ASSERT_EQ(backend.connects(), 1u);

  // SIGKILL the worker with the connection up: the next serve exchange
  // dies mid-flight (requests sent, responses never arrive) and the
  // in-flight re-submit finds nobody listening. The request must come
  // back out through the cluster's failed-drain re-queue path.
  worker->kill();
  cluster.submit("small", "after-kill", {fx.small_originals, 2});
  const auto report = cluster.drain();
  EXPECT_TRUE(report.responses.empty());
  EXPECT_EQ(report.requeued, 1u);
  ASSERT_EQ(report.failed_tops, std::vector<std::string>{"small"});
  EXPECT_EQ(cluster.pending(), 1u);  // never lost, never served

  // Respawn a listener on the same port (SO_REUSEADDR makes the rebind
  // race-free) and the very next drain reconnects, re-registers the tops
  // and serves the re-queued request bit-identically.
  worker = std::make_unique<ListenerWorkerProcess>(
      ListenerWorkerProcess::Options{"", port});
  const auto retry = cluster.drain();
  EXPECT_TRUE(retry.failed_tops.empty());
  ASSERT_EQ(retry.responses.size(), 1u);
  EXPECT_EQ(retry.responses[0].client, "after-kill");
  EXPECT_EQ(retry.responses[0].result.partitions,
            fx.direct(true, 2, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(cluster.pending(), 0u);
  EXPECT_EQ(backend.connects(), 2u);  // one reconnect, exactly
  // The restart is visible on the uniform stats surface.
  EXPECT_EQ(cluster.top_stats("small").restarts, 1u);
  EXPECT_EQ(cluster.stats().restarts, 1u);

  // The fresh connection serves on, with per-connection counters reset
  // (real restart semantics).
  cluster.submit("small", "again", {fx.small_originals, 1});
  const auto again = cluster.drain();
  ASSERT_EQ(again.responses.size(), 1u);
  EXPECT_EQ(again.responses[0].result.partitions,
            fx.direct(true, 1, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_EQ(backend.connects(), 2u);
}

TEST(TcpCluster, MalformedRequestIsRequeuedAtTheCluster) {
  // Contents validation stays caller-side: the malformed request never
  // crosses the wire, and the failure model is byte-for-byte the
  // in-process one.
  const TcpFixture fx;
  ListenerWorkerProcess worker;
  TcpCluster tcp(fx, worker.port(), 1);
  FusionCluster& cluster = *tcp.cluster;

  cluster.submit("large", "bad", {fx.small_originals, 1});  // wrong top
  cluster.submit("small", "good", {fx.small_originals, 1});
  const auto report = cluster.drain();
  ASSERT_EQ(report.responses.size(), 1u);
  EXPECT_EQ(report.responses[0].client, "good");
  EXPECT_EQ(report.requeued, 1u);
  EXPECT_EQ(report.failed_tops, std::vector<std::string>{"large"});
  EXPECT_EQ(cluster.discard_pending("large"), 1u);
}

}  // namespace
}  // namespace ffsm
