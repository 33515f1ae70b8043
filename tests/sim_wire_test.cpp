// Wire handshake and exchange multiplexing: parent and worker agree on
// the binary wire through the versioned hello and serve bit-identically
// to direct generation; every other opening — an old worker's `error`
// reply, a stale version, a text-only offer, a command with no hello —
// fails the connection instead of downgrading it; the worker's `ping`
// line keeps health probes working; concurrent per-top drains interleave
// as tagged exchanges on ONE connection; and BackendConfig validates
// backend shapes uniformly for every embedder.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fusion/generator.hpp"
#include "net/health.hpp"
#include "net/line_channel.hpp"
#include "net/listener.hpp"
#include "net/socket.hpp"
#include "sim/backend_config.hpp"
#include "sim/cluster.hpp"
#include "sim/messages.hpp"
#include "sim/replica_backend.hpp"
#include "sim/subprocess_backend.hpp"
#include "sim/tcp_backend.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace ffsm {
namespace {

using ffsm::testing::component_partitions;
using ffsm::testing::counter_pair_product;
using std::chrono::milliseconds;

/// The standard two-top fixture plus the reference results any wire must
/// reproduce bit-identically.
struct WireFixture {
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

/// Fast-failing parent options for a one-endpoint replica set.
ReplicaBackendOptions wire_options(std::uint16_t port) {
  ReplicaBackendOptions options;
  options.endpoints = {{"127.0.0.1", port}};
  options.config.parallel = false;
  options.connect_timeout = milliseconds(2000);
  options.connect_retry = {2, milliseconds(10), milliseconds(50), 2};
  options.serve_retry = {2, milliseconds(10), milliseconds(50), 2};
  return options;
}

/// One drain of one request through `backend`, asserting bit-identity.
void expect_serves(ReplicaBackend& backend, const WireFixture& fx) {
  backend.add_top("small", fx.small.top);
  backend.submit("small", "probe", {fx.small_originals, 1});
  const auto responses = backend.drain("small");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].result.partitions,
            fx.direct(true, 1, DescentPolicy::kFewestBlocks).partitions);
}

/// A raw connection to `port` for speaking the handshake by hand.
net::LineChannel raw_connection(std::uint16_t port) {
  return net::LineChannel(
      net::Socket::connect("127.0.0.1", port, milliseconds(2000)));
}

/// Asserts the peer closed the connection: EOF within a bounded wait, so
/// a worker that keeps the connection open fails the test (NetError)
/// instead of hanging it.
void expect_closed(net::LineChannel& channel) {
  std::string line;
  EXPECT_FALSE(channel.read_line(
      line, std::chrono::steady_clock::now() + std::chrono::seconds(10)))
      << "peer sent '" << line << "' instead of closing";
}

/// A one-shot fake worker: accepts one connection and stops listening,
/// reads the hello and answers `reply`, then closes. A second connect is
/// refused rather than left waiting for an answer. The test must connect
/// at least once, or the destructor waits forever.
class ScriptedWorker {
 public:
  explicit ScriptedWorker(std::string reply) {
    net::Listener listener(0);
    port_ = listener.port();
    thread_ = std::thread([listener = std::move(listener),
                           reply = std::move(reply)]() mutable {
      net::LineChannel channel(listener.accept());
      listener.close();
      std::string hello;
      EXPECT_TRUE(channel.read_line(hello));
      channel.send(reply);
    });
  }
  ~ScriptedWorker() { thread_.join(); }

  ScriptedWorker(const ScriptedWorker&) = delete;
  ScriptedWorker& operator=(const ScriptedWorker&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(WireNegotiation, TcpConnectionNegotiatesBinary) {
  const WireFixture fx;
  ListenerWorkerProcess worker;
  ReplicaBackend backend(wire_options(worker.port()));
  EXPECT_FALSE(backend.connected());
  expect_serves(backend, fx);
  EXPECT_TRUE(backend.connected());
  EXPECT_EQ(backend.connects(), 1u);
}

TEST(WireNegotiation, UnknownCommandReplyFailsInsteadOfFallingBack) {
  // A worker that predates the hello answers it like any unknown
  // directive. That reply must fail the handshake, never select another
  // encoding: the old worker's payloads differ, so a downgrade would fail
  // mid-stream instead.
  ScriptedWorker old_worker("error unknown%20command%20'hello'\n");
  net::LineChannel channel = raw_connection(old_worker.port());
  EXPECT_THROW(negotiate_wire(channel), ContractViolation);
}

TEST(WireNegotiation, OldWorkerFailsTheDrainAndKeepsTheQueue) {
  // The same refusal through a backend: a worker that ANSWERS but cannot
  // speak the wire is a configuration error, not an outage (NetError) —
  // no retry scan, no fallback, and the request stays queued.
  const WireFixture fx;
  ScriptedWorker old_worker("error unknown%20command%20'hello'\n");
  ReplicaBackend backend(wire_options(old_worker.port()));
  backend.add_top("small", fx.small.top);
  backend.submit("small", "doomed", {fx.small_originals, 1});
  try {
    (void)backend.drain("small");
    ADD_FAILURE() << "drain served through a refused handshake";
  } catch (const net::NetError& error) {
    ADD_FAILURE() << "refusal treated as an outage: " << error.what();
  } catch (const ContractViolation&) {
    // The refusal itself.
  }
  EXPECT_EQ(backend.pending("small"), 1u);  // still queued, never lost
  EXPECT_FALSE(backend.connected());
}

TEST(WireNegotiation, WorkerRefusesAnyOtherFirstLineAndCloses) {
  // A command with no hello, a text-only offer, a stale version and a
  // malformed hello each get one `error` line and a close — the worker
  // never guesses an encoding.
  ListenerWorkerProcess worker;
  for (const char* first :
       {"stats k\n", "hello 5 text\n", "hello 4 bin\n", "hello 5\n"}) {
    net::LineChannel channel = raw_connection(worker.port());
    channel.send(first);
    const std::string reply = channel.expect_line("refusal");
    EXPECT_EQ(reply.rfind("error ", 0), 0u) << first << " -> " << reply;
    expect_closed(channel);
  }
}

TEST(WireNegotiation, LegacyBinTextOfferStillNegotiatesBinary) {
  // v5 parents built before the text encoding was removed offer
  // `bin,text`; they share the payloads, so they get binary.
  ListenerWorkerProcess worker;
  net::LineChannel channel = raw_connection(worker.port());
  channel.send("hello 5 bin,text\n");
  std::string hello = hello_line();
  hello.pop_back();
  EXPECT_EQ(channel.expect_line("hello reply"), hello);
  // The connection now speaks binary frames: a ping gets its pong.
  WireCodec codec;
  Frame ping;
  ping.type = FrameType::kPing;
  ping.exchange = 7;
  channel.send(codec.encode(ping));
  const Frame pong = codec.expect(channel, "pong");
  EXPECT_EQ(pong.type, FrameType::kPong);
  EXPECT_EQ(pong.exchange, 7u);
}

TEST(WireNegotiation, WorkerAnswersAPingProbeLine) {
  ListenerWorkerProcess worker;
  net::LineChannel channel = raw_connection(worker.port());
  channel.send("ping\n");
  EXPECT_EQ(channel.expect_line("probe reply"), "pong");
  expect_closed(channel);
}

TEST(WireNegotiation, HealthMonitorSeesARealWorkerUp) {
  // net::HealthMonitor probes with a bare `ping` line — which only the
  // worker's first-line handling answers, now that there is no text
  // command loop behind it.
  ListenerWorkerProcess worker;
  net::HealthMonitorOptions options;
  options.start_thread = false;
  options.probe_timeout = milliseconds(2000);
  net::HealthMonitor monitor(options);
  const net::Endpoint endpoint{"127.0.0.1", worker.port()};
  monitor.watch(endpoint);
  for (int round = 0; round < 3; ++round) monitor.probe_now();
  const net::EndpointHealth health = monitor.health(endpoint);
  EXPECT_EQ(health.state, net::ProbeState::kUp);
  EXPECT_EQ(health.probes, 3u);
  EXPECT_EQ(health.probes_failed, 0u);
}

TEST(WireNegotiation, SubprocessSpawnNegotiatesBinary) {
  const WireFixture fx;
  SubprocessBackend backend;
  backend.add_top("small", fx.small.top);
  backend.submit("small", "probe", {fx.small_originals, 2});
  const auto responses = backend.drain("small");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].result.partitions,
            fx.direct(true, 2, DescentPolicy::kFewestBlocks).partitions);
  EXPECT_NE(backend.worker_pid(), 0);
  EXPECT_EQ(backend.spawns(), 1u);
  backend.shutdown();
  EXPECT_EQ(backend.worker_pid(), 0);
}

TEST(WireNegotiation, StaleHelloVersionIsRejected) {
  // The payloads changed shape when the version went to 2 (speculation
  // stats + config lookahead), so a previous-version hello must fail the
  // handshake instead of decoding garbage mid-stream.
  bool offers_binary = false;
  EXPECT_THROW((void)parse_client_hello("hello 1 bin,text", offers_binary),
               ContractViolation);
  // Version 3 (pre-obs) peers don't know the kObs frame, so they must be
  // turned away at the handshake too.
  EXPECT_THROW((void)parse_client_hello("hello 3 bin,text", offers_binary),
               ContractViolation);
  // Version 4 (pre-stitching) peers encode the serve frame without the
  // parent span id and the obs frame without gauges — same rule.
  EXPECT_THROW((void)parse_client_hello("hello 4 bin,text", offers_binary),
               ContractViolation);
  // The current client/worker pair still agrees with itself.
  std::string hello = hello_line();
  hello.pop_back();  // read_line strips the '\n'
  EXPECT_TRUE(parse_client_hello(hello, offers_binary));
  EXPECT_TRUE(offers_binary);
}

TEST(WireNegotiation, VersionMismatchNeverFallsBackToText) {
  // A worker on a different protocol version answers `error
  // ...unsupported hello version...` and closes. The parent must fail the
  // connection — a downgrade would just fail mid-stream instead, since
  // the payloads differ across versions.
  ScriptedWorker stale_worker(
      "error wire:%20unsupported%20hello%20version%20'2'\n");
  net::LineChannel channel = raw_connection(stale_worker.port());
  EXPECT_THROW(negotiate_wire(channel), ContractViolation);
}

/// Two tops, drained from two threads at once through `backend`: both
/// drains run as tagged exchanges multiplexed on the backend's one
/// connection, every response lands on the right exchange, and everything
/// is bit-identical. (Responses landing on the wrong exchange would decode
/// into the wrong drain and fail the partition comparison.) The caller
/// checks that no second connection was made.
void expect_concurrent_top_drains(ShardBackend& backend,
                                  const WireFixture& fx) {
  backend.add_top("small", fx.small.top);
  backend.add_top("large", fx.large.top);
  std::vector<std::uint64_t> small_tickets, large_tickets;
  for (int c = 0; c < 5; ++c) {
    const auto f = static_cast<std::uint32_t>(1 + c % 3);
    small_tickets.push_back(
        backend.submit("small", "s" + std::to_string(c),
                       {fx.small_originals, f, DescentPolicy::kMostBlocks}));
    large_tickets.push_back(
        backend.submit("large", "l" + std::to_string(c),
                       {fx.large_originals, f}));
  }

  std::vector<FusionResponse> small_responses, large_responses;
  std::exception_ptr small_error, large_error;
  std::thread small_drain([&] {
    try {
      small_responses = backend.drain("small");
    } catch (...) {
      small_error = std::current_exception();
    }
  });
  std::thread large_drain([&] {
    try {
      large_responses = backend.drain("large");
    } catch (...) {
      large_error = std::current_exception();
    }
  });
  small_drain.join();
  large_drain.join();
  if (small_error) std::rethrow_exception(small_error);
  if (large_error) std::rethrow_exception(large_error);

  ASSERT_EQ(small_responses.size(), small_tickets.size());
  ASSERT_EQ(large_responses.size(), large_tickets.size());
  for (std::size_t i = 0; i < small_responses.size(); ++i) {
    EXPECT_EQ(small_responses[i].ticket, small_tickets[i]) << i;
    const auto f = static_cast<std::uint32_t>(1 + i % 3);
    EXPECT_EQ(small_responses[i].result.partitions,
              fx.direct(true, f, DescentPolicy::kMostBlocks).partitions)
        << i;
  }
  for (std::size_t i = 0; i < large_responses.size(); ++i) {
    EXPECT_EQ(large_responses[i].ticket, large_tickets[i]) << i;
    const auto f = static_cast<std::uint32_t>(1 + i % 3);
    EXPECT_EQ(large_responses[i].result.partitions,
              fx.direct(false, f, DescentPolicy::kFewestBlocks).partitions)
        << i;
  }
}

TEST(WireMultiplexing, ConcurrentTopDrainsInterleaveOnOneConnection) {
  const WireFixture fx;
  ListenerWorkerProcess worker;
  ReplicaBackendOptions options = wire_options(worker.port());
  options.serve_window = 2;  // several windows per drain => real overlap
  ReplicaBackend backend(options);
  expect_concurrent_top_drains(backend, fx);
  EXPECT_EQ(backend.connects(), 1u) << "multiplexed drains must share the "
                                       "one connection";
}

TEST(WireMultiplexing, ConcurrentTopDrainsInterleaveOnOneSubprocessWorker) {
  // The same exchanges over a socketpair: the subprocess backend speaks
  // through the same conversation, so both drains share one worker.
  const WireFixture fx;
  SubprocessBackendOptions options;
  options.config.parallel = false;
  SubprocessBackend backend(options);
  expect_concurrent_top_drains(backend, fx);
  EXPECT_EQ(backend.spawns(), 1u) << "multiplexed drains must share the "
                                     "one worker";
}

TEST(WireMultiplexing, ClusterDrainInterleavesTopsOfOneShard) {
  // The end-to-end path the redesign exists for: a one-shard cluster
  // whose two tops share one worker connection. The cluster's parallel
  // per-top drain fans both out at once; the wire interleaves them;
  // results must match the in-process cluster response for
  // response.
  const WireFixture fx;
  ListenerWorkerProcess worker;
  ThreadPool pool(2);

  FusionClusterOptions reference_options;
  reference_options.shards = 1;
  FusionCluster reference(reference_options);

  BackendConfig config;
  config.kind = BackendConfig::Kind::kTcp;
  config.endpoints = {{"127.0.0.1", worker.port()}};
  FusionClusterOptions options;
  options.shards = 1;
  options.pool = &pool;
  options.backend_factory = make_backend_factory(config);
  FusionCluster cluster(options);

  for (FusionCluster* c : {&reference, &cluster}) {
    c->add_top("small", fx.small.top);
    c->add_top("large", fx.large.top);
    for (int i = 0; i < 3; ++i) {
      c->submit("small", "s" + std::to_string(i), {fx.small_originals, 1});
      c->submit("large", "l" + std::to_string(i),
                {fx.large_originals, 2, DescentPolicy::kMostBlocks});
    }
  }
  const auto expected = reference.drain();
  const auto actual = cluster.drain();
  EXPECT_TRUE(actual.failed_tops.empty());
  ASSERT_EQ(actual.responses.size(), expected.responses.size());
  for (std::size_t i = 0; i < expected.responses.size(); ++i) {
    EXPECT_EQ(actual.responses[i].ticket, expected.responses[i].ticket);
    EXPECT_EQ(actual.responses[i].top, expected.responses[i].top);
    EXPECT_EQ(actual.responses[i].result.partitions,
              expected.responses[i].result.partitions)
        << i;
  }
  EXPECT_EQ(cluster.stats().restarts, 0u);  // one connection throughout
}

TEST(BackendConfigFactory, ValidatesBackendShapes) {
  BackendConfig config;  // kInProcess: the cluster's built-in default
  EXPECT_FALSE(static_cast<bool>(make_backend_factory(config)));

  config.endpoints = {{"localhost", 1}};
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);

  config.kind = BackendConfig::Kind::kSubprocess;
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);
  config.endpoints.clear();
  EXPECT_TRUE(static_cast<bool>(make_backend_factory(config)));

  config.kind = BackendConfig::Kind::kTcp;
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);
  config.endpoints = {{"localhost", 1}, {"localhost", 2}};
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);
  config.endpoints = {{"localhost", 1}};
  EXPECT_TRUE(static_cast<bool>(make_backend_factory(config)));
  // A tcp shard is a one-endpoint replica set (construction never
  // connects, so nothing needs to listen there).
  const std::unique_ptr<ShardBackend> tcp = make_backend_factory(config)(0);
  EXPECT_NE(dynamic_cast<ReplicaBackend*>(tcp.get()), nullptr);
  config.endpoints = {{"localhost", 0}};  // a zero port is always a typo
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);

  config.kind = BackendConfig::Kind::kReplica;
  config.endpoints.clear();
  EXPECT_THROW((void)make_backend_factory(config), ContractViolation);
  config.endpoints = {{"localhost", 1}, {"localhost", 2}};
  EXPECT_TRUE(static_cast<bool>(make_backend_factory(config)));
}

TEST(BackendConfigFactory, KindNamesRoundTripStrictly) {
  for (const auto kind :
       {BackendConfig::Kind::kInProcess, BackendConfig::Kind::kSubprocess,
        BackendConfig::Kind::kTcp, BackendConfig::Kind::kReplica}) {
    BackendConfig::Kind back = BackendConfig::Kind::kInProcess;
    EXPECT_TRUE(parse_backend_kind(backend_kind_name(kind), back));
    EXPECT_EQ(back, kind);
  }
  BackendConfig::Kind out = BackendConfig::Kind::kTcp;
  EXPECT_FALSE(parse_backend_kind("", out));
  EXPECT_FALSE(parse_backend_kind("TCP", out));
  EXPECT_FALSE(parse_backend_kind("replica", out));
  EXPECT_EQ(out, BackendConfig::Kind::kTcp);  // untouched on failure
}

}  // namespace
}  // namespace ffsm
