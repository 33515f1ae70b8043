#include "sim/messages.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace ffsm {
namespace {

[[noreturn]] void bad(const std::string& what) {
  throw ContractViolation("wire: " + what);
}

/// True for bytes that must be escaped inside a whitespace-delimited token.
bool needs_escape(unsigned char c) {
  return c == '%' || c <= 0x20 || c == 0x7f;
}

char hex_digit(unsigned v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string escape_token(std::string_view raw) {
  if (raw.empty()) return "%";
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto u = static_cast<unsigned char>(c);
    if (needs_escape(u)) {
      out += '%';
      out += hex_digit(u >> 4);
      out += hex_digit(u & 0xf);
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_token(std::string_view token) {
  if (token.empty()) bad("empty token");
  if (token == "%") return "";
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size() || hex_value(token[i + 1]) < 0 ||
        hex_value(token[i + 2]) < 0)
      bad("malformed %-escape in token '" + std::string(token) + "'");
    out += static_cast<char>(hex_value(token[i + 1]) * 16 +
                             hex_value(token[i + 2]));
    i += 2;
  }
  return out;
}

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kOk:
      return "ok";
    case FrameType::kError:
      return "error";
    case FrameType::kConfig:
      return "config";
    case FrameType::kTop:
      return "top";
    case FrameType::kServe:
      return "serve";
    case FrameType::kRequest:
      return "request";
    case FrameType::kServing:
      return "serving";
    case FrameType::kResponse:
      return "response";
    case FrameType::kDone:
      return "done";
    case FrameType::kStatsQuery:
      return "stats-query";
    case FrameType::kStats:
      return "stats";
    case FrameType::kPing:
      return "ping";
    case FrameType::kPong:
      return "pong";
    case FrameType::kShutdown:
      return "shutdown";
    case FrameType::kBye:
      return "bye";
    case FrameType::kCacheWarm:
      return "cachewarm";
    case FrameType::kObs:
      return "obs";
  }
  bad("unknown FrameType");
}

// -------------------------------------------------------------- WireArena

char* WireArena::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;  // distinct non-null pointers, simpler marks
  while (current_ < chunks_.size()) {
    if (sizes_[current_] - used_ >= bytes) {
      char* out = chunks_[current_].get() + used_;
      used_ += bytes;
      return out;
    }
    ++current_;
    used_ = 0;
  }
  const std::size_t capacity = std::max(chunk_size_, bytes);
  chunks_.push_back(std::make_unique<char[]>(capacity));
  sizes_.push_back(capacity);
  current_ = chunks_.size() - 1;
  used_ = bytes;
  return chunks_[current_].get();
}

std::size_t WireArena::capacity() const noexcept {
  std::size_t total = 0;
  for (const std::size_t size : sizes_) total += size;
  return total;
}

// ------------------------------------------------------------------ codec
//
// Frame = 16-byte little-endian header + payload:
//
//   u32 payload_len | u8 type | u8 0 | u16 0 | u64 exchange
//
// Reserved header bytes must be zero. Payload layouts (all integers
// little-endian, `str` = u32 length + raw bytes, `partition` = u32 count +
// count x u32 block ids):
//
//   kError       str detail
//   kConfig      u8 parallel, u64 threads, u8 incremental,
//                u8 cache_policy, u64 cache_capacity,
//                u32 speculation_lookahead
//   kTop         str key, str machine_text
//   kServe       str key, u64 count, u64 parent (parent-side span id the
//                worker parents its spans under; 0 = unlinked)
//   kServing     u64 count
//   kStatsQuery  str key
//   kStats       kServiceStatsCounters x u64
//                (FFSM_SERVICE_STATS_COUNTERS row order)
//   kCacheWarm   str key, u64 count, u32 n,
//                n x (partition key, u32 m, m x partition)
//   kObs         u32 nc, nc x (str name, u64 value),
//                u32 ng, ng x (str name, u64 value-as-two's-complement),
//                u32 nh, nh x (str name, u64 sum, u32 nb,
//                              nb x (u8 bucket, u64 count)),
//                u32 ns, ns x (str name, str source, str shard, str top,
//                              u64 start_us, u64 duration_us, u64 id,
//                              u64 parent, u64 exchange, u8 instant)
//   kRequest     u64 ticket, str client, u32 f, u8 policy,
//                u32 n, n x partition
//   kResponse    u64 ticket, str client, u32 n, n x partition,
//                u32 machines_added, u32 descent_steps,
//                u64 candidates_examined, u64 closures_evaluated,
//                u64 cover_cache_hits, u64 graph_edges_examined,
//                u64 speculative_covers_launched, u64 speculation_hits,
//                u64 speculation_wasted_closures,
//                u32 dmin_before, u32 dmin_after
//   (kOk, kDone, kPing, kPong, kShutdown, kBye: empty payload)

namespace {

constexpr std::size_t kBinHeaderSize = 16;
/// Machines and batches are at most megabytes; anything close to this is
/// a corrupted length, rejected before it can size an allocation.
constexpr std::uint32_t kMaxBinPayload = 256u << 20;

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::string& out, std::uint16_t v) {
  put_u8(out, static_cast<std::uint8_t>(v & 0xff));
  put_u8(out, static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_str(std::string& out, std::string_view s) {
  if (s.size() > kMaxBinPayload) bad("oversized string field");
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

void put_partition(std::string& out, const Partition& p) {
  const auto& assignment = p.assignment();
  put_u32(out, static_cast<std::uint32_t>(assignment.size()));
  for (const std::uint32_t v : assignment) put_u32(out, v);
}

std::uint8_t policy_wire(DescentPolicy policy) {
  switch (policy) {
    case DescentPolicy::kFirstFound:
      return 0;
    case DescentPolicy::kFewestBlocks:
      return 1;
    case DescentPolicy::kMostBlocks:
      return 2;
  }
  bad("unknown DescentPolicy");
}

DescentPolicy policy_from_wire(std::uint8_t v) {
  switch (v) {
    case 0:
      return DescentPolicy::kFirstFound;
    case 1:
      return DescentPolicy::kFewestBlocks;
    case 2:
      return DescentPolicy::kMostBlocks;
    default:
      bad("unknown descent policy byte");
  }
}

std::uint8_t cache_policy_wire(CacheEvictionPolicy policy) {
  switch (policy) {
    case CacheEvictionPolicy::kLru:
      return 0;
    case CacheEvictionPolicy::kEpoch:
      return 1;
    case CacheEvictionPolicy::kUnbounded:
      return 2;
    case CacheEvictionPolicy::kLfuAdmit:
      return 3;
  }
  bad("unknown CacheEvictionPolicy");
}

CacheEvictionPolicy cache_policy_from_wire(std::uint8_t v) {
  switch (v) {
    case 0:
      return CacheEvictionPolicy::kLru;
    case 1:
      return CacheEvictionPolicy::kEpoch;
    case 2:
      return CacheEvictionPolicy::kUnbounded;
    case 3:
      return CacheEvictionPolicy::kLfuAdmit;
    default:
      bad("unknown cache policy byte");
  }
}

/// Bounds-checked little-endian cursor over one binary payload.
class BinReader {
 public:
  BinReader(const char* data, std::size_t size)
      : p_(reinterpret_cast<const unsigned char*>(data)), end_(p_ + size) {}

  [[nodiscard]] bool done() const noexcept { return p_ == end_; }

  void require(std::size_t bytes) const {
    if (static_cast<std::size_t>(end_ - p_) < bytes)
      bad("truncated payload");
  }

  std::uint8_t u8() {
    require(1);
    return *p_++;
  }

  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p_[i]} << (8 * i);
    p_ += 4;
    return v;
  }

  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p_[i]} << (8 * i);
    p_ += 8;
    return v;
  }

  std::string_view str() {
    const std::uint32_t size = u32();
    require(size);
    const auto* at = reinterpret_cast<const char*>(p_);
    p_ += size;
    return {at, size};
  }

  Partition partition() {
    const std::uint32_t count = u32();
    require(std::size_t{count} * 4);
    std::vector<std::uint32_t> assignment;
    assignment.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) assignment.push_back(u32());
    return Partition(std::move(assignment));
  }

  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) bad("expected a 0/1 byte");
    return v == 1;
  }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

void encode_binary_payload(const Frame& frame, std::string& out) {
  switch (frame.type) {
    case FrameType::kOk:
    case FrameType::kDone:
    case FrameType::kPing:
    case FrameType::kPong:
    case FrameType::kShutdown:
    case FrameType::kBye:
      return;
    case FrameType::kError:
      put_str(out, frame.text);
      return;
    case FrameType::kConfig:
      put_u8(out, frame.config.parallel ? 1 : 0);
      put_u64(out, frame.config.threads);
      put_u8(out, frame.config.incremental ? 1 : 0);
      put_u8(out, cache_policy_wire(frame.config.cache_config.policy));
      put_u64(out, frame.config.cache_config.capacity);
      put_u32(out, frame.config.speculation_lookahead);
      return;
    case FrameType::kTop:
      put_str(out, frame.key);
      put_str(out, frame.text);
      return;
    case FrameType::kServe:
      put_str(out, frame.key);
      put_u64(out, frame.count);
      put_u64(out, frame.parent);
      return;
    case FrameType::kServing:
      put_u64(out, frame.count);
      return;
    case FrameType::kStatsQuery:
      put_str(out, frame.key);
      return;
    case FrameType::kStats:
#define FFSM_STATS_PUT(name, agg) put_u64(out, frame.stats.name);
      FFSM_SERVICE_STATS_COUNTERS(FFSM_STATS_PUT)
#undef FFSM_STATS_PUT
      return;
    case FrameType::kCacheWarm:
      put_str(out, frame.key);
      put_u64(out, frame.count);
      put_u32(out, static_cast<std::uint32_t>(frame.entries.size()));
      for (const WarmCacheEntry& entry : frame.entries) {
        put_partition(out, entry.key);
        put_u32(out, static_cast<std::uint32_t>(entry.cover.size()));
        for (const Partition& p : entry.cover) put_partition(out, p);
      }
      return;
    case FrameType::kObs: {
      const obs::ObsSnapshot& o = frame.obs;
      put_u32(out, static_cast<std::uint32_t>(o.counters.size()));
      for (const auto& [name, value] : o.counters) {
        put_str(out, name);
        put_u64(out, value);
      }
      put_u32(out, static_cast<std::uint32_t>(o.gauges.size()));
      for (const auto& [name, value] : o.gauges) {
        put_str(out, name);
        put_u64(out, static_cast<std::uint64_t>(value));
      }
      put_u32(out, static_cast<std::uint32_t>(o.histograms.size()));
      for (const auto& [name, h] : o.histograms) {
        put_str(out, name);
        put_u64(out, h.sum);
        std::uint32_t nonzero = 0;
        for (const std::uint64_t c : h.buckets) nonzero += c != 0 ? 1 : 0;
        put_u32(out, nonzero);
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          if (h.buckets[i] == 0) continue;
          put_u8(out, static_cast<std::uint8_t>(i));
          put_u64(out, h.buckets[i]);
        }
      }
      put_u32(out, static_cast<std::uint32_t>(o.spans.size()));
      for (const obs::TraceSpan& s : o.spans) {
        put_str(out, s.name);
        put_str(out, s.source);
        put_str(out, s.shard);
        put_str(out, s.top);
        put_u64(out, s.start_us);
        put_u64(out, s.duration_us);
        put_u64(out, s.id);
        put_u64(out, s.parent);
        put_u64(out, s.exchange);
        put_u8(out, s.instant ? 1 : 0);
      }
      return;
    }
    case FrameType::kRequest: {
      const WireRequest& r = frame.request;
      put_u64(out, r.ticket);
      put_str(out, r.client);
      put_u32(out, r.request.f);
      put_u8(out, policy_wire(r.request.policy));
      put_u32(out, static_cast<std::uint32_t>(r.request.originals.size()));
      for (const Partition& p : r.request.originals) put_partition(out, p);
      return;
    }
    case FrameType::kResponse: {
      const FusionResponse& r = frame.response;
      put_u64(out, r.ticket);
      put_str(out, r.client);
      put_u32(out, static_cast<std::uint32_t>(r.result.partitions.size()));
      for (const Partition& p : r.result.partitions) put_partition(out, p);
      const GenerateStats& s = r.result.stats;
      put_u32(out, s.machines_added);
      put_u32(out, s.descent_steps);
      put_u64(out, s.candidates_examined);
      put_u64(out, s.closures_evaluated);
      put_u64(out, s.cover_cache_hits);
      put_u64(out, s.graph_edges_examined);
      put_u64(out, s.speculative_covers_launched);
      put_u64(out, s.speculation_hits);
      put_u64(out, s.speculation_wasted_closures);
      put_u32(out, s.dmin_before);
      put_u32(out, s.dmin_after);
      return;
    }
  }
  bad("unknown FrameType");
}

Frame decode_binary_payload(FrameType type, BinReader& in) {
  Frame frame;
  frame.type = type;
  switch (type) {
    case FrameType::kOk:
    case FrameType::kDone:
    case FrameType::kPing:
    case FrameType::kPong:
    case FrameType::kShutdown:
    case FrameType::kBye:
      break;
    case FrameType::kError:
      frame.text = in.str();
      break;
    case FrameType::kConfig:
      frame.config.parallel = in.boolean();
      frame.config.threads = in.u64();
      frame.config.incremental = in.boolean();
      frame.config.cache_config.policy = cache_policy_from_wire(in.u8());
      frame.config.cache_config.capacity = in.u64();
      frame.config.speculation_lookahead = in.u32();
      break;
    case FrameType::kTop:
      frame.key = in.str();
      frame.text = in.str();
      break;
    case FrameType::kServe:
      frame.key = in.str();
      frame.count = in.u64();
      frame.parent = in.u64();
      break;
    case FrameType::kServing:
      frame.count = in.u64();
      break;
    case FrameType::kStatsQuery:
      frame.key = in.str();
      break;
    case FrameType::kStats:
#define FFSM_STATS_GET(name, agg) \
  frame.stats.name = static_cast<decltype(frame.stats.name)>(in.u64());
      FFSM_SERVICE_STATS_COUNTERS(FFSM_STATS_GET)
#undef FFSM_STATS_GET
      break;
    case FrameType::kCacheWarm: {
      frame.key = in.str();
      frame.count = in.u64();
      const std::uint32_t entries = in.u32();
      frame.entries.reserve(std::min<std::size_t>(entries, 4096));
      for (std::uint32_t i = 0; i < entries; ++i) {
        WarmCacheEntry entry;
        entry.key = in.partition();
        const std::uint32_t covers = in.u32();
        entry.cover.reserve(std::min<std::size_t>(covers, 4096));
        for (std::uint32_t j = 0; j < covers; ++j)
          entry.cover.push_back(in.partition());
        frame.entries.push_back(std::move(entry));
      }
      break;
    }
    case FrameType::kObs: {
      const std::uint32_t counters = in.u32();
      for (std::uint32_t i = 0; i < counters; ++i) {
        std::string name(in.str());
        const std::uint64_t value = in.u64();
        if (!frame.obs.counters.emplace(std::move(name), value).second)
          bad("obs: duplicate counter");
      }
      const std::uint32_t gauges = in.u32();
      for (std::uint32_t i = 0; i < gauges; ++i) {
        std::string name(in.str());
        const auto value = static_cast<std::int64_t>(in.u64());
        if (!frame.obs.gauges.emplace(std::move(name), value).second)
          bad("obs: duplicate gauge");
      }
      const std::uint32_t hists = in.u32();
      for (std::uint32_t i = 0; i < hists; ++i) {
        std::string name(in.str());
        obs::HistogramSnapshot h;
        h.sum = in.u64();
        const std::uint32_t nonzero = in.u32();
        if (nonzero > obs::kHistogramBuckets)
          bad("obs: histogram bucket count out of range");
        for (std::uint32_t j = 0; j < nonzero; ++j) {
          const std::uint8_t idx = in.u8();
          if (idx >= obs::kHistogramBuckets)
            bad("obs: histogram bucket index out of range");
          const std::uint64_t count = in.u64();
          if (count == 0 || h.buckets[idx] != 0)
            bad("obs: malformed histogram bucket");
          h.buckets[idx] = count;
        }
        if (!frame.obs.histograms.emplace(std::move(name), h).second)
          bad("obs: duplicate histogram");
      }
      const std::uint32_t spans = in.u32();
      frame.obs.spans.reserve(std::min<std::size_t>(spans, 4096));
      for (std::uint32_t i = 0; i < spans; ++i) {
        obs::TraceSpan s;
        s.name = in.str();
        s.source = in.str();
        s.shard = in.str();
        s.top = in.str();
        s.start_us = in.u64();
        s.duration_us = in.u64();
        s.id = in.u64();
        s.parent = in.u64();
        s.exchange = in.u64();
        s.instant = in.boolean();
        frame.obs.spans.push_back(std::move(s));
      }
      break;
    }
    case FrameType::kRequest: {
      frame.request.ticket = in.u64();
      frame.request.client = in.str();
      frame.request.request.f = in.u32();
      frame.request.request.policy = policy_from_wire(in.u8());
      const std::uint32_t originals = in.u32();
      frame.request.request.originals.reserve(
          std::min<std::size_t>(originals, 4096));
      for (std::uint32_t i = 0; i < originals; ++i)
        frame.request.request.originals.push_back(in.partition());
      break;
    }
    case FrameType::kResponse: {
      frame.response.ticket = in.u64();
      frame.response.client = in.str();
      const std::uint32_t partitions = in.u32();
      frame.response.result.partitions.reserve(
          std::min<std::size_t>(partitions, 4096));
      for (std::uint32_t i = 0; i < partitions; ++i)
        frame.response.result.partitions.push_back(in.partition());
      GenerateStats& s = frame.response.result.stats;
      s.machines_added = in.u32();
      s.descent_steps = in.u32();
      s.candidates_examined = in.u64();
      s.closures_evaluated = in.u64();
      s.cover_cache_hits = in.u64();
      s.graph_edges_examined = in.u64();
      s.speculative_covers_launched = in.u64();
      s.speculation_hits = in.u64();
      s.speculation_wasted_closures = in.u64();
      s.dmin_before = in.u32();
      s.dmin_after = in.u32();
      break;
    }
    default:
      bad("unknown frame type byte");
  }
  if (!in.done()) bad("trailing payload bytes");
  return frame;
}

struct BinHeader {
  std::uint32_t payload_len = 0;
  FrameType type = FrameType::kOk;
  std::uint64_t exchange = 0;
};

BinHeader parse_binary_header(const char* data) {
  const auto* h = reinterpret_cast<const unsigned char*>(data);
  BinHeader out;
  for (int i = 0; i < 4; ++i)
    out.payload_len |= std::uint32_t{h[i]} << (8 * i);
  const std::uint8_t type_byte = h[4];
  if (h[5] != 0 || h[6] != 0 || h[7] != 0)
    bad("reserved header bytes must be zero");
  for (int i = 0; i < 8; ++i)
    out.exchange |= std::uint64_t{h[8 + i]} << (8 * i);
  if (type_byte < static_cast<std::uint8_t>(FrameType::kOk) ||
      type_byte > static_cast<std::uint8_t>(FrameType::kObs))
    bad("unknown frame type byte");
  if (out.payload_len > kMaxBinPayload) bad("oversized frame");
  out.type = static_cast<FrameType>(type_byte);
  return out;
}

}  // namespace

void WireCodec::encode(const Frame& frame, std::string& out) const {
  const std::size_t header_at = out.size();
  out.append(kBinHeaderSize, '\0');
  encode_binary_payload(frame, out);
  const std::size_t payload = out.size() - header_at - kBinHeaderSize;
  if (payload > kMaxBinPayload) bad("oversized frame");
  std::string header;
  header.reserve(kBinHeaderSize);
  put_u32(header, static_cast<std::uint32_t>(payload));
  put_u8(header, static_cast<std::uint8_t>(frame.type));
  put_u8(header, 0);
  put_u16(header, 0);
  put_u64(header, frame.exchange);
  out.replace(header_at, kBinHeaderSize, header);
}

Frame WireCodec::decode(std::string_view bytes) const {
  if (bytes.size() < kBinHeaderSize) bad("truncated header");
  const BinHeader header = parse_binary_header(bytes.data());
  if (bytes.size() - kBinHeaderSize < header.payload_len)
    bad("truncated payload");
  if (bytes.size() - kBinHeaderSize > header.payload_len)
    bad("trailing bytes after frame");
  BinReader in(bytes.data() + kBinHeaderSize, header.payload_len);
  Frame frame = decode_binary_payload(header.type, in);
  frame.exchange = header.exchange;
  return frame;
}

Frame WireCodec::expect(net::LineChannel& channel, const char* context) {
  char header_bytes[kBinHeaderSize];
  if (!channel.read_exact(header_bytes, kBinHeaderSize))
    throw net::NetError(std::string("peer closed the stream during ") +
                        context);
  return read_payload(channel, header_bytes, nullptr);
}

std::optional<Frame> WireCodec::read_command(
    net::LineChannel& channel, std::chrono::milliseconds frame_budget) {
  char header_bytes[kBinHeaderSize];
  // First byte may block forever (idle parent); the rest of the frame
  // shares one bounded budget.
  if (!channel.read_exact(header_bytes, 1)) return std::nullopt;
  const net::Deadline deadline =
      std::chrono::steady_clock::now() + frame_budget;
  if (!channel.read_exact(header_bytes + 1, kBinHeaderSize - 1, deadline))
    throw net::NetError("peer closed the stream mid-header");
  return read_payload(channel, header_bytes, &deadline);
}

Frame WireCodec::read_payload(net::LineChannel& channel,
                              const char* header_bytes,
                              const net::Deadline* deadline) {
  const BinHeader header = parse_binary_header(header_bytes);
  // Stage the payload in the arena: mark/restore means steady-state reads
  // allocate no per-frame buffers (strings and partitions copied out of
  // the staging block are the only allocations left).
  const WireArena::Mark mark = arena_.mark();
  char* payload = arena_.allocate(header.payload_len);
  try {
    const bool got =
        header.payload_len == 0 ||
        (deadline != nullptr
             ? channel.read_exact(payload, header.payload_len, *deadline)
             : channel.read_exact(payload, header.payload_len));
    if (!got) throw net::NetError("peer closed the stream mid-frame");
    BinReader in(payload, header.payload_len);
    Frame frame = decode_binary_payload(header.type, in);
    frame.exchange = header.exchange;
    arena_.restore(mark);
    return frame;
  } catch (...) {
    arena_.restore(mark);
    throw;
  }
}

// ------------------------------------------------------------ negotiation

namespace {

// Protocol version carried by the hello line. Bumped whenever a payload
// changes shape, so mixed-build peers fail at the handshake instead of
// mid-stream:
//   1 — initial negotiated wire (binary framing + exchange multiplexing).
//   2 — stats frame grew the speculation counters, config frame grew
//       speculation_lookahead.
//   3 — stats frame grew the cache admission counters, the cachewarm
//       frame (warm cache handoff) was added, and the lfu_admit cache
//       policy joined the config vocabulary.
//   4 — the obs frame (kObs: counters, latency histograms and trace spans)
//       was added.
//   5 — the serve frame grew the parent span id (cross-process trace
//       stitching) and the obs frame grew the gauge list (windowed
//       telemetry).
// Versions 1-5 also offered a line-oriented text encoding; it was removed
// without a bump because no binary payload changed shape.
constexpr std::string_view kHelloVersion = "5";

}  // namespace

std::string hello_line() {
  std::string line = "hello ";
  line += kHelloVersion;
  line += " bin\n";
  return line;
}

bool parse_client_hello(std::string_view line, bool& offers_binary) {
  std::istringstream words{std::string(line)};
  std::string directive;
  if (!(words >> directive) || directive != "hello") return false;
  std::string version;
  std::string offers;
  std::string extra;
  if (!(words >> version >> offers) || (words >> extra))
    bad("hello requires <version> <offers>");
  if (version != kHelloVersion)
    bad("unsupported hello version '" + version + "'");
  // Unknown offers are ignored: an older parent may still list `text`.
  offers_binary = false;
  std::istringstream list(offers);
  for (std::string offer; std::getline(list, offer, ',');)
    if (offer == "bin") offers_binary = true;
  return true;
}

void negotiate_wire(net::LineChannel& channel) {
  std::string hello = hello_line();
  channel.send(hello);
  const std::string reply = channel.expect_line("wire negotiation");
  hello.pop_back();  // read lines come without their '\n'
  if (reply != hello)
    bad("peer refused the wire handshake (expected '" + hello + "'): " +
        reply);
}

}  // namespace ffsm
