// Wire protocol codec: every frame type — random requests, responses,
// stats and configs included — survives encode -> decode -> encode
// byte-identically and field for field, machine texts are self-contained,
// tokens escape losslessly, and truncated, corrupted or malformed frames
// are rejected rather than half-read.
#include "sim/messages.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fsm/serialize.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ffsm {
namespace {

using ffsm::testing::component_partitions;
using ffsm::testing::counter_pair_product;

/// Client names that stress the string fields and the token escaping:
/// spaces, '%', newlines, control bytes, UTF-8, and the empty string.
const char* const kNastyClients[] = {
    "alice", "", "two words", "percent%sign", "tab\tchar", "new\nline",
    "  lead-and-trail  ", "uni\xc3\xa9ode", "%", "%%25", "a\x01b\x7f",
};

Partition random_partition(std::uint32_t n, Xoshiro256& rng) {
  std::vector<std::uint32_t> assignment(n);
  const std::uint32_t blocks = 1 + static_cast<std::uint32_t>(
                                       rng.below(n == 0 ? 1 : n));
  for (std::uint32_t i = 0; i < n; ++i)
    assignment[i] = static_cast<std::uint32_t>(rng.below(blocks));
  return Partition(std::move(assignment));
}

TEST(WireTokens, EscapeRoundTripsNastyStrings) {
  for (const char* raw : kNastyClients) {
    const std::string token = escape_token(raw);
    EXPECT_EQ(token.find(' '), std::string::npos) << token;
    EXPECT_EQ(token.find('\n'), std::string::npos) << token;
    EXPECT_EQ(token.find('\t'), std::string::npos) << token;
    EXPECT_EQ(unescape_token(token), std::string(raw));
  }
}

TEST(WireTokens, MalformedEscapesThrow) {
  EXPECT_THROW((void)unescape_token(""), ContractViolation);
  EXPECT_THROW((void)unescape_token("%2"), ContractViolation);
  EXPECT_THROW((void)unescape_token("a%zz"), ContractViolation);
  EXPECT_THROW((void)unescape_token("trailing%"), ContractViolation);
}

/// Every policy enum value, in the order of its wire byte.
const DescentPolicy kDescentPolicies[] = {DescentPolicy::kFirstFound,
                                          DescentPolicy::kFewestBlocks,
                                          DescentPolicy::kMostBlocks};
const CacheEvictionPolicy kCachePolicies[] = {
    CacheEvictionPolicy::kLru, CacheEvictionPolicy::kEpoch,
    CacheEvictionPolicy::kUnbounded, CacheEvictionPolicy::kLfuAdmit};

/// Little-endian builders for hand-made payloads (malformed-frame tests).
void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_str(std::string& out, std::string_view s) {
  put_le(out, s.size(), 4);
  out.append(s);
}

/// A complete frame around an arbitrary payload: the header is always
/// well-formed, so decode failures come from the payload alone.
std::string raw_frame(FrameType type, const std::string& payload) {
  std::string out;
  put_le(out, payload.size(), 4);
  put_le(out, static_cast<std::uint8_t>(type), 1);
  put_le(out, 0, 3);
  put_le(out, 1, 8);
  return out + payload;
}

/// `bytes` with its payload shortened (or grown) by `delta` bytes and the
/// header's length patched to match — a frame whose envelope is intact
/// but whose payload lost (or gained) trailing fields.
std::string resized_payload(std::string bytes, int delta) {
  const std::size_t payload = bytes.size() - 16 + delta;
  if (delta < 0)
    bytes.resize(bytes.size() - static_cast<std::size_t>(-delta));
  else
    bytes.append(static_cast<std::size_t>(delta), '\0');
  std::string header;
  put_le(header, payload, 4);
  bytes.replace(0, 4, header);
  return bytes;
}

/// Field-for-field equality of two frames (Frame has no operator==); on
/// top of byte-identical re-encoding this pins what the decoder hands to
/// callers, not just what it would send back.
void expect_same_frame(const Frame& a, const Frame& b) {
  const char* const what = frame_type_name(a.type);
  EXPECT_EQ(a.type, b.type) << what;
  EXPECT_EQ(a.exchange, b.exchange) << what;
  EXPECT_EQ(a.key, b.key) << what;
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.parent, b.parent) << what;
  EXPECT_EQ(a.text, b.text) << what;
  EXPECT_EQ(a.request.ticket, b.request.ticket) << what;
  EXPECT_EQ(a.request.client, b.request.client) << what;
  EXPECT_EQ(a.request.request.f, b.request.request.f) << what;
  EXPECT_EQ(a.request.request.policy, b.request.request.policy) << what;
  EXPECT_EQ(a.request.request.originals, b.request.request.originals)
      << what;
  EXPECT_EQ(a.response.ticket, b.response.ticket) << what;
  EXPECT_EQ(a.response.client, b.response.client) << what;
  EXPECT_EQ(a.response.result.partitions, b.response.result.partitions)
      << what;
  const GenerateStats& sa = a.response.result.stats;
  const GenerateStats& sb = b.response.result.stats;
  EXPECT_EQ(sa.machines_added, sb.machines_added) << what;
  EXPECT_EQ(sa.descent_steps, sb.descent_steps) << what;
  EXPECT_EQ(sa.candidates_examined, sb.candidates_examined) << what;
  EXPECT_EQ(sa.closures_evaluated, sb.closures_evaluated) << what;
  EXPECT_EQ(sa.cover_cache_hits, sb.cover_cache_hits) << what;
  EXPECT_EQ(sa.graph_edges_examined, sb.graph_edges_examined) << what;
  EXPECT_EQ(sa.speculative_covers_launched, sb.speculative_covers_launched)
      << what;
  EXPECT_EQ(sa.speculation_hits, sb.speculation_hits) << what;
  EXPECT_EQ(sa.speculation_wasted_closures, sb.speculation_wasted_closures)
      << what;
  EXPECT_EQ(sa.dmin_before, sb.dmin_before) << what;
  EXPECT_EQ(sa.dmin_after, sb.dmin_after) << what;
#define FFSM_STATS_EXPECT_EQ(name, agg) \
  EXPECT_EQ(a.stats.name, b.stats.name) << what << " " #name;
  FFSM_SERVICE_STATS_COUNTERS(FFSM_STATS_EXPECT_EQ)
#undef FFSM_STATS_EXPECT_EQ
  EXPECT_EQ(a.config.parallel, b.config.parallel) << what;
  EXPECT_EQ(a.config.threads, b.config.threads) << what;
  EXPECT_EQ(a.config.incremental, b.config.incremental) << what;
  EXPECT_EQ(a.config.cache_config.policy, b.config.cache_config.policy)
      << what;
  EXPECT_EQ(a.config.cache_config.capacity, b.config.cache_config.capacity)
      << what;
  EXPECT_EQ(a.config.speculation_lookahead, b.config.speculation_lookahead)
      << what;
  ASSERT_EQ(a.entries.size(), b.entries.size()) << what;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].key, b.entries[i].key) << what << " entry " << i;
    EXPECT_EQ(a.entries[i].cover, b.entries[i].cover)
        << what << " entry " << i;
  }
  EXPECT_EQ(a.obs, b.obs) << what;
}

/// encode -> decode -> encode: byte-identical and field-for-field.
void expect_round_trip(const Frame& frame) {
  const WireCodec codec;
  const std::string bytes = codec.encode(frame);
  const Frame back = codec.decode(bytes);
  expect_same_frame(back, frame);
  EXPECT_EQ(codec.encode(back), bytes) << frame_type_name(frame.type);
}

/// At least one sample Frame per FrameType, every meaningful field
/// populated and a distinct nonzero exchange id — the corpus for the
/// round-trip and robustness properties below. Covers every enum value
/// the payloads carry and every kNastyClients string.
std::vector<Frame> binary_sample_frames(Xoshiro256& rng) {
  std::vector<Frame> frames;
  std::uint64_t exchange = 0x1000;
  const auto add = [&](FrameType type) -> Frame& {
    Frame frame;
    frame.type = type;
    frame.exchange = ++exchange;
    frames.push_back(std::move(frame));
    return frames.back();
  };
  add(FrameType::kOk);
  add(FrameType::kError).text = "worker failed: two words\nand a newline";
  for (const CacheEvictionPolicy policy : kCachePolicies) {
    Frame& config = add(FrameType::kConfig);
    config.config.parallel = policy != CacheEvictionPolicy::kLru;
    config.config.threads = 8;
    config.config.incremental = policy != CacheEvictionPolicy::kEpoch;
    config.config.cache_config = {policy, 9};
    config.config.speculation_lookahead = 3;
  }
  {
    Frame& top = add(FrameType::kTop);
    top.key = "counters-10";
    top.text = "machine with\nmany lines\nand % signs\n";
  }
  {
    Frame& serve = add(FrameType::kServe);
    serve.key = "counters-10";
    serve.count = 3;
    serve.parent = 0xfeed'beef;  // the v5 cross-process stitching id
  }
  // One request and one response per nasty client name, the requests
  // cycling through every descent policy.
  for (std::size_t i = 0; i < std::size(kNastyClients); ++i) {
    Frame& request = add(FrameType::kRequest);
    request.request.ticket = 77 + i;
    request.request.client = kNastyClients[i];
    request.request.request.f = 1 + static_cast<std::uint32_t>(i % 2);
    request.request.request.policy =
        kDescentPolicies[i % std::size(kDescentPolicies)];
    request.request.request.originals.push_back(random_partition(6, rng));
    request.request.request.originals.push_back(random_partition(6, rng));
  }
  add(FrameType::kServing).count = 3;
  for (std::size_t i = 0; i < std::size(kNastyClients); ++i) {
    Frame& response = add(FrameType::kResponse);
    response.response.ticket = 78 + i;
    response.response.client = kNastyClients[i];
    response.response.result.partitions.push_back(random_partition(6, rng));
    response.response.result.stats.machines_added = 2;
    response.response.result.stats.speculation_hits = 5 + i;
    response.response.result.stats.dmin_after = 3;
  }
  add(FrameType::kDone);
  add(FrameType::kStatsQuery).key = "counters-10";
  {
    Frame& stats = add(FrameType::kStats);
    stats.stats.requests_served = 5;
    stats.stats.restarts = 1;
    stats.stats.failovers = 2;
    stats.stats.health_probes_failed = 3;
    stats.stats.cache_bytes = 4096;
    stats.stats.cache_admission_rejects = 11;
    stats.stats.cache_sketch_bytes = 128;
  }
  {
    // Both halves of the warm handoff: the export query (empty entries)
    // and a two-entry import, one cover empty.
    Frame& query = add(FrameType::kCacheWarm);
    query.key = "counters-10";
    query.count = 64;
    Frame& warm = add(FrameType::kCacheWarm);
    warm.key = "counters-10";
    warm.count = 2;
    WarmCacheEntry first;
    first.key = random_partition(6, rng);
    first.cover.push_back(random_partition(6, rng));
    first.cover.push_back(random_partition(6, rng));
    warm.entries.push_back(std::move(first));
    WarmCacheEntry second;
    second.key = random_partition(6, rng);
    warm.entries.push_back(std::move(second));
  }
  {
    // Both halves of the obs exchange: the query (empty snapshot) and a
    // populated reply — counters, signed gauges, a sparse histogram and
    // spans whose tag strings hold spaces or are empty.
    add(FrameType::kObs);
    Frame& obs = add(FrameType::kObs);
    obs.obs.counters["requests"] = 12;
    obs.obs.counters["two words"] = 1;
    obs.obs.gauges["worker.live_connections"] = 2;
    obs.obs.gauges["queue depth"] = -7;  // gauges are signed, names escape
    obs::HistogramSnapshot h;
    h.sum = 12345;
    h.buckets[0] = 3;
    h.buckets[7] = 40;
    h.buckets[63] = 1;
    obs.obs.histograms["gen.request"] = h;
    obs::TraceSpan span;
    span.name = "cluster.serve_top";
    span.source = "shard1";
    span.shard = "127.0.0.1:7001";
    span.top = "counters 10";
    span.start_us = 10;
    span.duration_us = 20;
    span.id = 3;
    span.parent = 2;
    span.exchange = 9;
    obs.obs.spans.push_back(std::move(span));
    obs::TraceSpan failover;
    failover.name = "replica.failover";
    failover.id = 4;
    failover.instant = true;
    obs.obs.spans.push_back(std::move(failover));
  }
  add(FrameType::kPing);
  add(FrameType::kPong);
  add(FrameType::kShutdown);
  add(FrameType::kBye);
  return frames;
}

// The enums travel as one byte each: every value round-trips, and a byte
// past the last value is rejected instead of decoding as some default.
TEST(WireEnums, EveryPolicyRoundTripsAndUnknownBytesThrow) {
  const WireCodec codec;
  for (const DescentPolicy policy : kDescentPolicies) {
    Frame frame;
    frame.type = FrameType::kRequest;
    frame.request.request.policy = policy;
    EXPECT_EQ(codec.decode(codec.encode(frame)).request.request.policy,
              policy);
  }
  for (const CacheEvictionPolicy policy : kCachePolicies) {
    Frame frame;
    frame.type = FrameType::kConfig;
    frame.config.cache_config.policy = policy;
    EXPECT_EQ(codec.decode(codec.encode(frame)).config.cache_config.policy,
              policy);
  }
  // kRequest: u64 ticket, str client (empty: 4 bytes), u32 f, u8 policy.
  Frame request;
  request.type = FrameType::kRequest;
  std::string bytes = codec.encode(request);
  bytes[16 + 8 + 4 + 4] = 3;
  EXPECT_THROW((void)codec.decode(bytes), ContractViolation);
  // kConfig: u8 parallel, u64 threads, u8 incremental, u8 cache_policy.
  Frame config;
  config.type = FrameType::kConfig;
  bytes = codec.encode(config);
  bytes[16 + 1 + 8 + 1] = 4;
  EXPECT_THROW((void)codec.decode(bytes), ContractViolation);
}

// Random requests (random partition catalogs, f in {1,2}, every policy,
// nasty clients) survive encode -> decode -> encode byte-identically,
// field-for-field.
TEST(WireRequestCodec, RandomRequestsRoundTripByteIdentically) {
  Xoshiro256 rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    Frame frame;
    frame.type = FrameType::kRequest;
    frame.exchange = rng();
    WireRequest& original = frame.request;
    original.ticket = rng();
    original.client =
        kNastyClients[rng.below(std::size(kNastyClients))];
    original.request.f = 1 + static_cast<std::uint32_t>(rng.below(2));
    original.request.policy = kDescentPolicies[rng.below(3)];
    const std::uint32_t states =
        2 + static_cast<std::uint32_t>(rng.below(30));
    const std::size_t originals = rng.below(5);
    for (std::size_t i = 0; i < originals; ++i)
      original.request.originals.push_back(random_partition(states, rng));
    expect_round_trip(frame);
  }
}

TEST(WireResponseCodec, RandomResponsesRoundTripByteIdentically) {
  Xoshiro256 rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    Frame frame;
    frame.type = FrameType::kResponse;
    frame.exchange = rng();
    FusionResponse& original = frame.response;
    original.ticket = rng();
    original.client =
        kNastyClients[rng.below(std::size(kNastyClients))];
    const std::uint32_t states =
        2 + static_cast<std::uint32_t>(rng.below(30));
    const std::size_t machines = rng.below(4);
    for (std::size_t i = 0; i < machines; ++i)
      original.result.partitions.push_back(random_partition(states, rng));
    GenerateStats& s = original.result.stats;
    s.machines_added = static_cast<std::uint32_t>(rng.below(100));
    s.descent_steps = static_cast<std::uint32_t>(rng.below(100));
    s.candidates_examined = rng();
    s.closures_evaluated = rng();
    s.cover_cache_hits = rng();
    s.graph_edges_examined = rng();
    s.speculative_covers_launched = rng();
    s.speculation_hits = rng();
    s.speculation_wasted_closures = rng();
    s.dmin_before = static_cast<std::uint32_t>(rng.below(10));
    s.dmin_after = static_cast<std::uint32_t>(rng.below(10));
    expect_round_trip(frame);
  }
}

TEST(WireResponseCodec, RealGeneratedFusionRoundTrips) {
  // Not synthetic: an actual Algorithm 2 result over a catalog product.
  const CrossProduct product = counter_pair_product(4);
  const std::vector<Partition> originals = component_partitions(product);
  GenerateOptions options;
  options.f = 2;
  options.parallel = false;
  const FusionResult result =
      generate_fusion(product.top, originals, options);
  ASSERT_FALSE(result.partitions.empty());

  Frame frame;
  frame.type = FrameType::kResponse;
  frame.response = {42, "tenant 0", result};
  expect_round_trip(frame);
}

TEST(WireStatsCodec, RandomStatsRoundTripByteIdentically) {
  Xoshiro256 rng(99);
  for (int iter = 0; iter < 100; ++iter) {
    Frame frame;
    frame.type = FrameType::kStats;
    ServiceStats& original = frame.stats;
    original.requests_submitted = rng();
    original.requests_served = rng();
    original.batches_served = rng();
    original.speculative_covers_launched = rng();
    original.speculation_hits = rng();
    original.speculation_wasted_closures = rng();
    original.restarts = rng();
    original.failovers = rng();
    original.health_probes_failed = rng();
    original.cache_hits = rng();
    original.cache_cold_misses = rng();
    original.cache_eviction_misses = rng();
    original.cache_evictions = rng();
    original.cache_entries = static_cast<std::size_t>(rng.below(1 << 20));
    original.cache_bytes = static_cast<std::size_t>(rng.below(1 << 30));
    original.cache_admission_rejects = rng();
    original.cache_sketch_bytes = static_cast<std::size_t>(rng.below(1 << 20));
    expect_round_trip(frame);
  }
}

TEST(WireConfigCodec, AllCachePoliciesRoundTripByteIdentically) {
  for (const CacheEvictionPolicy policy : kCachePolicies)
    for (const bool parallel : {false, true})
      for (const bool incremental : {false, true}) {
        Frame frame;
        frame.type = FrameType::kConfig;
        ShardServiceConfig& original = frame.config;
        original.parallel = parallel;
        original.threads = parallel ? 4 : 0;
        original.incremental = incremental;
        original.cache_config = {policy, 17};
        original.speculation_lookahead = parallel ? 3 : 0;
        expect_round_trip(frame);
      }
}

// A frame whose envelope is intact but whose payload is missing a
// mandatory field, carries extra fields, or holds an out-of-range value
// must throw — never decode with the missing field defaulted.
TEST(WireCodec, MalformedFramesThrow) {
  const WireCodec codec;
  EXPECT_THROW((void)codec.decode(""), ContractViolation);
  Xoshiro256 rng(5);
  for (const Frame& frame : binary_sample_frames(rng)) {
    const std::string good = codec.encode(frame);
    if (good.size() > 16) {
      EXPECT_THROW((void)codec.decode(resized_payload(good, -1)),
                   ContractViolation)
          << frame_type_name(frame.type) << " lost its last payload byte";
    }
    EXPECT_THROW((void)codec.decode(resized_payload(good, 1)),
                 ContractViolation)
        << frame_type_name(frame.type) << " carried a trailing payload byte";
  }
  // The stats frame is a fixed count of u64 counters: one short throws.
  Frame stats;
  stats.type = FrameType::kStats;
  EXPECT_THROW((void)codec.decode(resized_payload(codec.encode(stats), -8)),
               ContractViolation);
  // Booleans are 0/1 bytes: config's `parallel` = 2 is rejected.
  Frame config;
  config.type = FrameType::kConfig;
  std::string bad_bool = codec.encode(config);
  bad_bool[16] = 2;
  EXPECT_THROW((void)codec.decode(bad_bool), ContractViolation);
  // A string or partition length pointing past the payload end.
  Frame top;
  top.type = FrameType::kTop;
  top.key = "k";
  std::string long_key = codec.encode(top);
  long_key[16] = 9;
  EXPECT_THROW((void)codec.decode(long_key), ContractViolation);
}

// The framing's round-trip property: every frame type survives
// encode -> decode -> encode byte-identically and field for field,
// exchange tag included — the bit-identity half of what the bench asserts
// end to end.
TEST(WireCodecRobustness, BinaryFramesRoundTripByteIdentically) {
  Xoshiro256 rng(99);
  for (const Frame& frame : binary_sample_frames(rng)) expect_round_trip(frame);
}

// The trust boundary once frames arrive from the network: decode of
// damaged bytes must throw a clean ContractViolation or decode to a frame
// that re-encodes — never crash, never half-apply, never escape a foreign
// exception. EVERY truncation throws (the length prefix makes "complete"
// unambiguous), as do trailing garbage, nonzero reserved header bytes and
// unknown frame types. (Runs under ASan in CI, so "never crash" is
// load-bearing.)
TEST(WireCodecRobustness, BinaryTruncationsAndCorruptionsAreClean) {
  Xoshiro256 rng(4243);
  const WireCodec codec;

  const auto survives = [&](const Frame& frame,
                            const std::string& damaged) -> bool {
    try {
      const Frame decoded = codec.decode(damaged);
      (void)codec.encode(decoded);  // whatever decodes must re-encode
      return false;
    } catch (const ContractViolation&) {
      return true;  // the clean parse error
    } catch (const std::exception& error) {
      ADD_FAILURE() << frame_type_name(frame.type) << ": foreign exception '"
                    << error.what() << "'";
      return true;
    }
  };

  for (const Frame& frame : binary_sample_frames(rng)) {
    const std::string bytes = codec.encode(frame);
    // Every strict prefix throws: the 16-byte header carries the payload
    // length, so a short buffer is always detectably incomplete.
    for (std::size_t len = 0; len < bytes.size(); ++len)
      EXPECT_TRUE(survives(frame, bytes.substr(0, len)))
          << frame_type_name(frame.type) << " truncated to " << len
          << " bytes decoded as if complete";
    // Trailing garbage is a framing violation, not ignorable padding.
    EXPECT_TRUE(survives(frame, bytes + '\0'));
    EXPECT_TRUE(survives(frame, bytes + "junk"));
    // Reserved header bytes (offsets 5..7) must be zero on the wire.
    for (std::size_t reserved = 5; reserved < 8; ++reserved) {
      std::string damaged = bytes;
      damaged[reserved] = 1;
      EXPECT_TRUE(survives(frame, damaged))
          << frame_type_name(frame.type) << " accepted nonzero reserved byte "
          << reserved;
    }
    // An unknown frame type must throw, whatever the payload says.
    // (18 is the first id past kObs, the newest frame type.)
    for (const unsigned char type : {0u, 18u, 0xffu}) {
      std::string damaged = bytes;
      damaged[4] = static_cast<char>(type);
      EXPECT_TRUE(survives(frame, damaged))
          << frame_type_name(frame.type) << " accepted frame type "
          << static_cast<unsigned>(type);
    }
    // Random single-byte corruption: 300 trials of flip-one-byte. Some
    // corruptions still parse (a flipped bit inside a counter value); the
    // property is that none crashes or escapes a foreign exception.
    for (int trial = 0; trial < 300; ++trial) {
      std::string corrupted = bytes;
      const std::size_t pos = rng.below(corrupted.size());
      const char byte = static_cast<char>(rng.below(256));
      if (corrupted[pos] == byte) continue;
      corrupted[pos] = byte;
      (void)survives(frame, corrupted);
    }
  }
}

// The serve frame grew the parent span id in hello v5 (the cross-process
// trace stitching handle): it must round-trip, and the v4 shape without
// it must throw rather than decode as parent 0.
TEST(WireServeCodec, FrameCarriesParentSpanId) {
  Frame serve;
  serve.type = FrameType::kServe;
  serve.key = "two words";
  serve.count = 5;
  serve.parent = 0xfeed;
  expect_round_trip(serve);
  const WireCodec codec;
  EXPECT_THROW((void)codec.decode(resized_payload(codec.encode(serve), -8)),
               ContractViolation);
}

// The binary header's payload bound: a length field past kMaxBinPayload
// (256 MiB) is rejected from the 16 header bytes alone — a corrupted or
// hostile peer cannot make the decoder try to buffer gigabytes.
TEST(WireCacheWarmCodec, BinaryOversizedPayloadLengthIsRejected) {
  const WireCodec codec;
  Frame query;
  query.type = FrameType::kCacheWarm;
  query.key = "k";
  query.count = 64;
  query.exchange = 9;
  std::string bytes = codec.encode(query);
  // Little-endian payload_len in header bytes 0..3: claim 256 MiB + 1.
  bytes[0] = '\x01';
  bytes[1] = '\x00';
  bytes[2] = '\x00';
  bytes[3] = '\x10';
  EXPECT_THROW((void)codec.decode(bytes), ContractViolation);
}

// The obs frame's trust boundary: duplicate metric names, histogram
// bucket indices past the fixed array, more buckets than exist, zero
// bucket counts and a bucket listed twice must all be rejected, not
// silently merged; a span missing its numeric fields is a short payload.
TEST(WireObsCodec, MalformedFramesThrow) {
  // kObs payload: four counted sections — counters, gauges, histograms,
  // spans — each `u32 n` then n records.
  const auto section = [](std::uint32_t n, const std::string& records) {
    std::string out;
    put_le(out, n, 4);
    return out + records;
  };
  const std::string none = section(0, "");
  const auto obs_frame = [](const std::string& counters,
                            const std::string& gauges,
                            const std::string& hists,
                            const std::string& spans) {
    return raw_frame(FrameType::kObs, counters + gauges + hists + spans);
  };
  const auto value = [](std::string_view name, std::uint64_t v) {
    std::string out;
    put_str(out, name);
    put_le(out, v, 8);
    return out;
  };
  // hist record: str name, u64 sum, u32 nb, nb x (u8 bucket, u64 count).
  const auto hist = [](std::vector<std::pair<int, std::uint64_t>> buckets,
                       std::uint32_t claimed) {
    std::string out;
    put_str(out, "h");
    put_le(out, 0, 8);
    put_le(out, claimed, 4);
    for (const auto& [bucket, count] : buckets) {
      put_le(out, static_cast<std::uint64_t>(bucket), 1);
      put_le(out, count, 8);
    }
    return out;
  };
  const auto with_hists = [&](std::uint32_t n, const std::string& records) {
    return obs_frame(none, none, section(n, records), none);
  };
  const std::string values = section(1, value("a", 1));
  const std::string duplicates = section(2, value("a", 1) + value("a", 2));
  std::string short_span;
  for (int tag = 0; tag < 4; ++tag) put_str(short_span, "");

  const WireCodec codec;
  // The hand-built encoding of a valid frame decodes.
  EXPECT_NO_THROW((void)codec.decode(
      obs_frame(values, values, section(1, hist({{3, 1}}, 1)), none)));
  const std::pair<const char*, std::string> malformed[] = {
      {"duplicate counter", obs_frame(duplicates, none, none, none)},
      {"duplicate gauge", obs_frame(none, duplicates, none, none)},
      {"duplicate histogram",
       with_hists(2, hist({{1, 1}}, 1) + hist({{1, 1}}, 1))},
      {"bucket index out of range", with_hists(1, hist({{64, 1}}, 1))},
      {"more buckets than exist", with_hists(1, hist({}, 65))},
      {"zero count for a nonzero bucket", with_hists(1, hist({{3, 0}}, 1))},
      {"the same bucket listed twice",
       with_hists(1, hist({{3, 1}, {3, 1}}, 2))},
      {"span missing its numeric fields",
       obs_frame(none, none, none, section(1, short_span))},
  };
  for (const auto& [what, bytes] : malformed)
    EXPECT_THROW((void)codec.decode(bytes), ContractViolation) << what;
}

TEST(WireMachines, SelfContainedTextReproducesEventIds) {
  // The wire depends on fsm/serialize's alphabet header: a standalone
  // parse must reproduce the sender's EventId assignment (and with it the
  // subscribed-event order and transition-table layout), even when the
  // sender's alphabet held unrelated events interned first.
  auto alphabet = Alphabet::create();
  alphabet->intern("noise_a");
  alphabet->intern("noise_b");
  std::vector<Dfsm> machines;
  machines.push_back(make_mod_counter(alphabet, "A", 3, "0"));
  machines.push_back(make_mod_counter(alphabet, "B", 3, "1"));
  const CrossProduct product = reachable_cross_product(machines);
  const Dfsm& top = product.top;
  ASSERT_GT(top.events()[0], 0u);  // the noise really shifted the ids

  const std::string text = to_text(top);
  const Dfsm back = from_text(text);  // fresh process: no shared alphabet
  EXPECT_TRUE(top.same_structure(back));
  ASSERT_EQ(back.events().size(), top.events().size());
  for (std::size_t i = 0; i < top.events().size(); ++i)
    EXPECT_EQ(back.events()[i], top.events()[i]);  // ids, not just names
  EXPECT_EQ(to_text(back), text);  // byte-exact re-encode
}

}  // namespace
}  // namespace ffsm
