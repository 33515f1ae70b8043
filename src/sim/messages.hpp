// Wire protocol of the serving stack.
//
// A shard of the FusionCluster is a backend behind a message boundary (see
// sim/backend.hpp); this header defines the messages that cross it and the
// one encoding they travel in. Everything is a tagged Frame spoken through
// the WireCodec: a length-prefixed little-endian binary framing whose
// 16-byte header carries an exchange id, so several serve exchanges
// interleave on one connection (layouts in messages.cpp, README "Wire
// format"). Machines travel inside kTop frames as self-contained to_text
// (fsm/serialize, alphabet header included), so a worker rebuilds
// bit-exact transition tables; partitions travel as normalized block
// assignments, so decode(encode(x)) == x and re-encoding is byte-exact.
//
// A connection opens with one text line each way, the versioned hello
// (see "negotiation" below); every byte after it is binary frames.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fusion/generator.hpp"
#include "net/line_channel.hpp"
#include "obs/obs.hpp"

namespace ffsm {

/// One served request crossing a backend boundary. FusionService::Response
/// is an alias of this — the in-process and wire representations are the
/// same type.
struct FusionResponse {
  std::uint64_t ticket = 0;
  std::string client;
  FusionResult result;
};

// The single source of truth for the ServiceStats counter set: one X(name,
// aggregation) row per counter, in wire order. Everything that enumerates
// the counters expands this table — the codec's fixed-order u64 list and
// FusionCluster::stats() aggregation — so adding a counter
// is one row here plus one struct field below (a mismatch between the two
// fails to compile). Appending a row changes the negotiated payload shape:
// bump the hello version (kHelloVersion in messages.cpp).
//
// The second column is the cluster aggregation rule:
//   kPerTop     — the counter is per-service; per-top values add up.
//   kPerBackend — the counter is backend-level and repeats identically for
//                 every top a backend hosts; FusionCluster::stats() takes
//                 the max across a shard's tops, then sums across shards.
#define FFSM_SERVICE_STATS_COUNTERS(X)          \
  X(requests_submitted, kPerTop)                \
  X(requests_served, kPerTop)                   \
  X(batches_served, kPerTop)                    \
  X(speculative_covers_launched, kPerTop)       \
  X(speculation_hits, kPerTop)                  \
  X(speculation_wasted_closures, kPerTop)       \
  X(restarts, kPerBackend)                      \
  X(failovers, kPerBackend)                     \
  X(health_probes_failed, kPerBackend)          \
  X(cache_hits, kPerTop)                        \
  X(cache_cold_misses, kPerTop)                 \
  X(cache_eviction_misses, kPerTop)             \
  X(cache_evictions, kPerTop)                   \
  X(cache_entries, kPerTop)                     \
  X(cache_bytes, kPerTop)                       \
  X(cache_admission_rejects, kPerTop)           \
  X(cache_sketch_bytes, kPerTop)

/// The second X-macro column as a real type, so aggregation code can
/// branch on it with `if constexpr (StatsAgg::agg == ...)` instead of
/// re-listing counter names (see FusionCluster::stats()).
enum class StatsAgg { kPerTop, kPerBackend };

/// Number of rows in FFSM_SERVICE_STATS_COUNTERS.
inline constexpr std::size_t kServiceStatsCounters = []() {
  std::size_t n = 0;
#define FFSM_STATS_COUNT(name, agg) ++n;
  FFSM_SERVICE_STATS_COUNTERS(FFSM_STATS_COUNT)
#undef FFSM_STATS_COUNT
  return n;
}();

/// Lifetime counters of one serving backend — a FusionService or the shard
/// worker wrapping one. The cache_* fields snapshot the persistent closure
/// cache; eviction misses are broken out from cold misses so a bounded
/// cache under pressure does not masquerade as a cold workload
/// (cache_hits + cache_cold_misses + cache_eviction_misses == lookups).
/// The field set is mirrored by FFSM_SERVICE_STATS_COUNTERS above, which
/// drives the codec and the cluster aggregation.
struct ServiceStats {
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t batches_served = 0;
  /// Speculation counters summed over every request this service drained
  /// (see GenerateStats); all 0 when the engine runs serial or
  /// non-incremental.
  std::uint64_t speculative_covers_launched = 0;
  std::uint64_t speculation_hits = 0;
  std::uint64_t speculation_wasted_closures = 0;
  /// Worker restarts this serving state survived: respawned processes
  /// (SubprocessBackend), re-established connections (ReplicaBackend, any
  /// number of endpoints). Always
  /// 0 from the serving side itself — the backend that owns the restart
  /// policy fills it, since the restarted worker cannot count its own
  /// deaths.
  std::uint64_t restarts = 0;
  /// Times the serving endpoint moved to a different replica (failover on
  /// a dead primary, fail-back to a revived one). Filled parent-side by
  /// replica-set backends, 0 everywhere else — like restarts, the worker
  /// cannot observe its own replacement.
  std::uint64_t failovers = 0;
  /// Failed health probes across this backend's replica endpoints, from
  /// the HealthMonitor watching them; 0 without one.
  std::uint64_t health_probes_failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_cold_misses = 0;
  std::uint64_t cache_eviction_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  /// Inserts rejected by the TinyLFU admission filter (kLfuAdmit only).
  std::uint64_t cache_admission_rejects = 0;
  /// Bytes held by the admission frequency sketch (kLfuAdmit only).
  std::size_t cache_sketch_bytes = 0;
};

/// The FusionServiceOptions subset that can cross a process boundary
/// (ThreadPool pointers cannot): engine mode, cache bound, and the
/// worker-side parallelism switch.
struct ShardServiceConfig {
  /// Fan the worker's batches across its own pool.
  bool parallel = true;
  /// Worker pool size; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Per-request engine mode (see GenerateOptions::incremental).
  bool incremental = true;
  /// Bound + eviction policy for each worker service's closure cache.
  LowerCoverCacheConfig cache_config = {};
  /// Speculative prefetch depth per descent step (see
  /// SpeculationOptions::lookahead); used when parallel && incremental.
  std::uint32_t speculation_lookahead = 2;
};

/// A FusionRequest in its wire envelope: the backend ticket identifying
/// the eventual response, plus the submitting client.
struct WireRequest {
  std::uint64_t ticket = 0;
  std::string client;
  FusionRequest request;
};

// ----------------------------------------------------------------- tokens

/// Percent-escapes a byte string into a whitespace-free token ('%', ASCII
/// whitespace and control bytes become %XX; the empty string becomes the
/// lone marker "%", which no escape of a non-empty string produces).
[[nodiscard]] std::string escape_token(std::string_view raw);

/// Inverse of escape_token; throws ContractViolation on malformed escapes.
[[nodiscard]] std::string unescape_token(std::string_view token);

// ------------------------------------------------------------- wire codec

/// The wire encoding selector. The wire is binary-only, so this has one
/// value; it survives, together with BackendConfig::wire, only because the
/// benchmark harness (perfbench/src/serve.cpp) still assigns it. Delete
/// both in the next change to the benchmark.
enum class WireMode { kBinary };

/// Everything that crosses a backend boundary, as a tagged variant. One
/// type for both directions: commands (kConfig, kTop, kServe + kRequest*,
/// kStatsQuery, kPing, kShutdown) and replies (kOk, kError, kServing +
/// kResponse* + kDone, kStats, kPong, kBye).
enum class FrameType : std::uint8_t {
  kOk = 1,
  kError = 2,       // text = human-readable detail
  kConfig = 3,      // config
  kTop = 4,         // key + text (self-contained machine text)
  kServe = 5,       // key + count + parent span id, then `count` kRequests
  kRequest = 6,     // request
  kServing = 7,     // count, followed by `count` kResponse frames + kDone
  kResponse = 8,    // response
  kDone = 9,
  kStatsQuery = 10,  // key
  kStats = 11,       // stats
  kPing = 12,
  kPong = 13,
  kShutdown = 14,
  kBye = 15,
  // key + count + entries. Dual-purpose (warm cache handoff): with
  // `entries` empty it queries the worker for its (up to) `count` hottest
  // cache entries — answered by a kCacheWarm carrying them; with `entries`
  // non-empty it imports them into the worker's cache — answered by kOk.
  kCacheWarm = 16,
  // obs (an obs::ObsSnapshot). Dual-purpose like kCacheWarm: an *empty*
  // snapshot queries the worker for its connection-local metrics + spans —
  // answered by a kObs carrying them; the parent merges the reply into the
  // cluster-wide view tagged with the shard it came from.
  kObs = 17,
};

[[nodiscard]] const char* frame_type_name(FrameType type);

/// One decoded wire frame. Which fields are meaningful depends on `type`
/// (see FrameType); the rest stay default-constructed. `exchange` is the
/// multiplexing tag of the framing — replies echo the exchange id of their
/// command, so several exchanges can interleave on one connection.
struct Frame {
  FrameType type = FrameType::kOk;
  std::uint64_t exchange = 0;
  std::string key;           // kTop, kServe, kStatsQuery
  std::uint64_t count = 0;   // kServe, kServing
  // kServe: id of the parent-side span (cluster.serve_top) this batch is
  // served under, 0 = unlinked. The worker parents its gen.* spans on it,
  // so the merged trace nests worker work under the originating drain —
  // cross-process trace stitching (hello v5).
  std::uint64_t parent = 0;
  std::string text;          // kTop (machine text), kError (detail)
  WireRequest request;       // kRequest
  FusionResponse response;   // kResponse
  ServiceStats stats;        // kStats
  ShardServiceConfig config; // kConfig
  std::vector<WarmCacheEntry> entries;  // kCacheWarm
  obs::ObsSnapshot obs;      // kObs
};

/// Mark/restore bump allocator backing frame reads: the payload of
/// every incoming frame is staged in one arena block (no per-frame buffer
/// allocation in steady state — restore() keeps the memory) and parsed in
/// place. Chunked so a mark survives growth; an allocation larger than the
/// chunk size gets a dedicated chunk.
class WireArena {
 public:
  explicit WireArena(std::size_t chunk_size = 64 * 1024)
      : chunk_size_(chunk_size) {}

  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] Mark mark() const noexcept { return {current_, used_}; }
  /// Rewinds to `mark`; memory is retained for reuse, never freed.
  void restore(const Mark& mark) noexcept {
    current_ = mark.chunk;
    used_ = mark.used;
  }
  [[nodiscard]] char* allocate(std::size_t bytes);
  /// Total bytes owned (capacity, not live) — observability for tests.
  [[nodiscard]] std::size_t capacity() const noexcept;

 private:
  std::size_t chunk_size_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::vector<std::size_t> sizes_;
  std::size_t current_ = 0;  // chunk cursor
  std::size_t used_ = 0;     // bytes used in chunks_[current_]
};

/// How a Frame becomes bytes and back. Both directions of every backend
/// (QueuedWireBackend subclasses parent-side, the shard worker on the
/// other end) speak Frame through this class and never touch encoding
/// details. Frame = 16-byte little-endian header + payload:
///
///   u32 payload_len | u8 type | u8 0 | u16 0 | u64 exchange
///
/// Reserved header bytes must be zero, unknown types are rejected and
/// payload_len is capped, so a corrupted header fails before it can size
/// an allocation. Channel reads stage payloads in a WireArena, so one
/// codec instance must not be shared by concurrent readers; encode() and
/// decode() are const and safe from any thread.
class WireCodec {
 public:
  /// Appends `frame`'s wire bytes to `out`.
  void encode(const Frame& frame, std::string& out) const;
  [[nodiscard]] std::string encode(const Frame& frame) const {
    std::string out;
    encode(frame, out);
    return out;
  }

  /// Decodes exactly one frame from a complete buffer. Strict: truncated
  /// input and trailing bytes both throw ContractViolation, as does any
  /// malformed content. (The unit-testable surface; channel reads below
  /// share its parsing.)
  [[nodiscard]] Frame decode(std::string_view bytes) const;

  /// Reads one frame off the channel, blocking as long as it takes (the
  /// parent side: serve replies legitimately take minutes, TCP keepalive
  /// bounds a dead peer). EOF — even mid-frame — and transport errors
  /// throw NetError; malformed content throws ContractViolation with the
  /// stream position unknowable.
  [[nodiscard]] Frame expect(net::LineChannel& channel, const char* context);

  /// Reads one command frame (the worker side): returns std::nullopt on
  /// clean EOF before the frame begins; once it has begun, the rest must
  /// arrive within `frame_budget` or the read fails with NetError. A
  /// ContractViolation means the frame was malformed and the stream must
  /// be torn down — a length-prefixed stream cannot resync.
  [[nodiscard]] std::optional<Frame> read_command(
      net::LineChannel& channel, std::chrono::milliseconds frame_budget);

 private:
  Frame read_payload(net::LineChannel& channel, const char* header_bytes,
                     const net::Deadline* deadline);

  WireArena arena_;
};

// ------------------------------------------------------------ negotiation
//
// Every connection opens with one text line each way. The parent sends
// `hello <version> bin`; a worker that speaks this version and is offered
// `bin` answers the same line and both sides switch to binary frames.
// Anything else fails the connection — there is no fallback encoding,
// so a mismatched peer is refused at the handshake instead of failing
// mid-stream:
//   - a hello of another version, a hello that does not offer `bin`, or
//     any other first line gets one `error <escaped detail>` line from the
//     worker, which then closes the connection;
//   - the parent throws on any reply other than the hello line.
// The one exception is a bare `ping` first line — the HealthMonitor's
// liveness probe — which the worker answers `pong` before closing.
//
// The version is a single integer both sides must match exactly; it is
// bumped whenever a payload changes shape (current: 5 — see kHelloVersion
// in messages.cpp for the history). Offer lists may name several
// encodings separated by commas; unknown ones are ignored, so an older v5
// parent offering `bin,text` still gets binary.

/// The hello line (trailing '\n' included): the parent's offer and the
/// worker's acceptance are the same `hello <version> bin`.
[[nodiscard]] std::string hello_line();

/// Parses a worker-received first line. Returns false when `line` is not
/// a hello at all; throws ContractViolation on a malformed hello or one
/// with an unsupported version. Sets `offers_binary` to whether the offer
/// list names `bin`.
[[nodiscard]] bool parse_client_hello(std::string_view line,
                                      bool& offers_binary);

/// Client-side negotiation on a fresh connection: sends the hello and
/// reads the worker's answer. Throws ContractViolation on any answer
/// other than the hello line (an `error` refusal included), NetError when
/// the worker closes first; the caller drops the connection either way.
void negotiate_wire(net::LineChannel& channel);

}  // namespace ffsm
