#include "net/protocol.hpp"

#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace clear::net {

namespace {

/// One frame: the 8-byte prefix (magic, version, type, reserved), then the
/// `[u32 len][u32 crc][payload]` record whose payload `body` writes in
/// place.
template <typename Body>
std::string frame(FrameType type, std::size_t payload_hint, Body body) {
  bytes::Writer w(kHeaderSize + payload_hint);
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0);  // reserved
  const std::size_t at = bytes::begin_record(w);
  body(w);
  CLEAR_CHECK_MSG(w.size() - at <= kMaxPayload,
                  "frame payload too large: " << w.size() - at);
  bytes::end_record(w, at);
  return w.take();
}

/// Run a typed parser over a frame's payload. Parsers read through a
/// bounds-checked bytes::Reader, whose addressed errors ("payload
/// truncated: need 4 byte(s) at offset 40, have 2", "payload has 3 trailing
/// byte(s) after offset 44") become the parse error; semantic checks fail
/// with their own message. Never throws.
template <typename Parse>
bool parse_payload(const Frame& frame, FrameType type, const char* name,
                   std::string& error, Parse parse) {
  if (frame.type != type) {
    error = std::string("not ") + name + " frame";
    return false;
  }
  try {
    bytes::Reader r(frame.payload);
    parse(r);
    r.expect_end();
    return true;
  } catch (const Error& e) {
    error = e.what();
    return false;
  }
}

/// A semantic payload error (thrown into parse_payload).
[[noreturn]] void reject(const std::string& why) { throw Error(why); }

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kRequest) &&
         t <= static_cast<std::uint8_t>(FrameType::kMetricsJson);
}

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kRequest: return "request";
    case FrameType::kResponse: return "response";
    case FrameType::kDrain: return "drain";
    case FrameType::kDrainAck: return "drain-ack";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
    case FrameType::kExport: return "export";
    case FrameType::kSessionImage: return "session-image";
    case FrameType::kImportAck: return "import-ack";
    case FrameType::kAdopt: return "adopt";
    case FrameType::kAdoptAck: return "adopt-ack";
    case FrameType::kMetricsPull: return "metrics-pull";
    case FrameType::kMetricsJson: return "metrics-json";
  }
  return "?";
}

const char* decode_status_name(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kFrame: return "frame";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadHeader: return "bad-header";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadCrc: return "bad-crc";
  }
  return "?";
}

std::string encode_frame(FrameType type, const std::string& payload) {
  return frame(type, payload.size(),
               [&](bytes::Writer& w) { w.raw(payload); });
}

std::string encode_request(const WireRequest& request) {
  CLEAR_CHECK_MSG(request.map.rank() == 2,
                  "wire request map must be [F, W], got "
                      << request.map.shape_str());
  const std::size_t f = request.map.extent(0);
  const std::size_t w = request.map.extent(1);
  return frame(FrameType::kRequest, 44 + 4 * f * w, [&](bytes::Writer& p) {
    p.u64(request.request_id);
    p.u64(request.user_id);
    p.u64(request.arrival_us);
    p.f64(request.quality);
    p.i32(request.label.has_value() ? *request.label : -1);
    p.u32(static_cast<std::uint32_t>(f));
    p.u32(static_cast<std::uint32_t>(w));
    p.f32s(request.map.flat());
  });
}

std::string encode_response(const WireResponse& response) {
  return frame(FrameType::kResponse, 72 + response.error.size(),
               [&](bytes::Writer& p) {
                 p.u64(response.request_id);
                 p.u64(response.user_id);
                 p.u32(response.shed ? 1 : 0);
                 p.i32(response.predicted);
                 p.f32(response.fear_probability);
                 p.u32(response.session_state);
                 p.u32(response.degraded ? 1 : 0);
                 p.u32(response.route_kind);
                 p.u64(response.route_id);
                 p.u32(response.batch_rows);
                 p.u64(response.arrival_us);
                 p.u64(response.exec_us);
                 p.u32(static_cast<std::uint32_t>(response.error.size()));
                 p.raw(response.error);
               });
}

std::string encode_drain() {
  return encode_frame(FrameType::kDrain, std::string());
}

std::string encode_drain_ack(const WireDrainAck& ack) {
  return frame(FrameType::kDrainAck, 24, [&](bytes::Writer& p) {
    p.u64(ack.requests);
    p.u64(ack.ok);
    p.u64(ack.shed);
  });
}

std::string encode_shutdown() {
  return encode_frame(FrameType::kShutdown, std::string());
}

std::string encode_ping(std::uint64_t nonce) {
  return frame(FrameType::kPing, 8, [&](bytes::Writer& p) { p.u64(nonce); });
}

std::string encode_pong(const WirePong& pong) {
  return frame(FrameType::kPong, 16, [&](bytes::Writer& p) {
    p.u64(pong.nonce);
    p.u64(pong.sessions);
  });
}

std::string encode_export(std::uint64_t user_id) {
  return frame(FrameType::kExport, 8,
               [&](bytes::Writer& p) { p.u64(user_id); });
}

std::string encode_session_image(const WireSessionImage& image) {
  // frame() enforces kMaxPayload: a session image plus a smoke-scale
  // personal checkpoint is tens of KiB, far below the 1 MiB frame bound.
  return frame(FrameType::kSessionImage,
               20 + image.image.size() + image.checkpoint.size(),
               [&](bytes::Writer& p) {
                 p.u64(image.user_id);
                 p.u32(image.found ? 1 : 0);
                 p.u32(static_cast<std::uint32_t>(image.image.size()));
                 p.raw(image.image);
                 p.u32(static_cast<std::uint32_t>(image.checkpoint.size()));
                 p.raw(image.checkpoint);
               });
}

std::string encode_import_ack(const WireImportAck& ack) {
  return frame(FrameType::kImportAck, 16 + ack.error.size(),
               [&](bytes::Writer& p) {
                 p.u64(ack.user_id);
                 p.u32(ack.ok ? 1 : 0);
                 p.u32(static_cast<std::uint32_t>(ack.error.size()));
                 p.raw(ack.error);
               });
}

std::string encode_adopt(const std::string& journal_dir) {
  return frame(FrameType::kAdopt, 4 + journal_dir.size(),
               [&](bytes::Writer& p) {
                 p.u32(static_cast<std::uint32_t>(journal_dir.size()));
                 p.raw(journal_dir);
               });
}

std::string encode_adopt_ack(const WireAdoptAck& ack) {
  return frame(FrameType::kAdoptAck, 24, [&](bytes::Writer& p) {
    p.u64(ack.sessions);
    p.u64(ack.personalized);
    p.u64(ack.failed);
  });
}

std::string encode_metrics_pull() {
  return encode_frame(FrameType::kMetricsPull, std::string());
}

std::string encode_metrics_json(const std::string& json) {
  return encode_frame(FrameType::kMetricsJson, json);
}

FrameDecoder::FrameDecoder(std::size_t max_payload)
    : max_payload_(max_payload) {}

void FrameDecoder::feed(const void* data, std::size_t n) {
  if (latched_ != DecodeStatus::kNeedMore) return;  // Framing already lost.
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(static_cast<const char*>(data), n);
}

DecodeStatus FrameDecoder::fail(DecodeStatus status, const std::string& why) {
  latched_ = status;
  std::ostringstream os;
  os << "frame " << frames_ << ": " << why;
  error_ = os.str();
  return status;
}

DecodeStatus FrameDecoder::next(Frame& out) {
  if (latched_ != DecodeStatus::kNeedMore) return latched_;
  if (buffered() < kHeaderSize) return DecodeStatus::kNeedMore;
  const std::string_view in = std::string_view(buf_).substr(pos_);
  bytes::Reader h(in.substr(0, 8));
  const std::uint32_t magic = h.u32();
  if (magic != kMagic) {
    std::ostringstream os;
    os << "bad magic 0x" << std::hex << magic << " (expected 0x" << kMagic
       << ")";
    return fail(DecodeStatus::kBadMagic, os.str());
  }
  const std::uint8_t version = h.u8();
  if (version != kVersion) {
    std::ostringstream os;
    os << "unsupported version " << static_cast<int>(version) << " (speak "
       << static_cast<int>(kVersion) << ")";
    return fail(DecodeStatus::kBadVersion, os.str());
  }
  const std::uint8_t type = h.u8();
  if (!known_type(type)) {
    std::ostringstream os;
    os << "unknown frame type " << static_cast<int>(type);
    return fail(DecodeStatus::kBadHeader, os.str());
  }
  if (h.u16() != 0)
    return fail(DecodeStatus::kBadHeader, "reserved header bytes are nonzero");

  const bytes::Record rec = bytes::read_record(in.substr(8), max_payload_);
  switch (rec.status) {
    case bytes::RecordStatus::kShort:
      return DecodeStatus::kNeedMore;
    case bytes::RecordStatus::kTooLong: {
      std::ostringstream os;
      os << "declared payload length " << rec.len << " exceeds the bound "
         << max_payload_;
      return fail(DecodeStatus::kBadLength, os.str());
    }
    case bytes::RecordStatus::kBadCrc: {
      std::ostringstream os;
      os << "payload CRC mismatch: declared 0x" << std::hex << rec.crc
         << ", computed 0x" << rec.computed;
      return fail(DecodeStatus::kBadCrc, os.str());
    }
    case bytes::RecordStatus::kOk:
      break;
  }
  out.type = static_cast<FrameType>(type);
  out.payload.assign(rec.payload);
  pos_ += kHeaderSize + rec.len;
  ++frames_;
  return DecodeStatus::kFrame;
}

bool parse_request(const Frame& frame, WireRequest& out, std::string& error) {
  return parse_payload(frame, FrameType::kRequest, "a request", error,
                       [&](bytes::Reader& r) {
    out.request_id = r.u64();
    out.user_id = r.u64();
    out.arrival_us = r.u64();
    out.quality = r.f64();
    const std::int32_t label = r.i32();
    const std::uint32_t rows = r.u32();
    const std::uint32_t cols = r.u32();
    if (label < -1 || label > 1) {
      std::ostringstream os;
      os << "label must be -1 (none), 0, or 1; got " << label;
      reject(os.str());
    }
    out.label = label < 0 ? std::nullopt : std::optional<int>(label);
    if (rows == 0 || cols == 0) reject("map dimensions must be nonzero");
    const std::uint64_t cells =
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
    // Bound cells by the bytes actually present before any size arithmetic:
    // rows*cols reaches 2^62, where 4*cells would wrap and a short payload
    // could masquerade as an astronomically sized map whose allocation is a
    // one-frame remote crash.
    const std::uint64_t map_bytes = r.remaining();
    if (map_bytes % 4 != 0 || cells != map_bytes / 4) {
      std::ostringstream os;
      os << "map declared " << rows << "x" << cols << " (" << cells
         << " cells) but frame carries " << map_bytes << " map byte(s)";
      reject(os.str());
    }
    out.map = Tensor({rows, cols});
    r.f32s(out.map.flat());
  });
}

bool parse_response(const Frame& frame, WireResponse& out,
                    std::string& error) {
  return parse_payload(frame, FrameType::kResponse, "a response", error,
                       [&](bytes::Reader& r) {
    out.request_id = r.u64();
    out.user_id = r.u64();
    const std::uint32_t status = r.u32();
    out.predicted = r.i32();
    out.fear_probability = r.f32();
    out.session_state = r.u32();
    const std::uint32_t degraded = r.u32();
    out.route_kind = r.u32();
    out.route_id = r.u64();
    out.batch_rows = r.u32();
    out.arrival_us = r.u64();
    out.exec_us = r.u64();
    const std::uint32_t error_len = r.u32();
    if (status > 1) {
      std::ostringstream os;
      os << "status must be 0 (ok) or 1 (shed); got " << status;
      reject(os.str());
    }
    if (degraded > 1) {
      std::ostringstream os;
      os << "degraded must be 0 or 1; got " << degraded;
      reject(os.str());
    }
    out.shed = status == 1;
    out.degraded = degraded == 1;
    out.error = std::string(r.bytes(error_len));
  });
}

bool parse_drain_ack(const Frame& frame, WireDrainAck& out,
                     std::string& error) {
  return parse_payload(frame, FrameType::kDrainAck, "a drain-ack", error,
                       [&](bytes::Reader& r) {
                         out.requests = r.u64();
                         out.ok = r.u64();
                         out.shed = r.u64();
                       });
}

bool parse_ping(const Frame& frame, std::uint64_t& nonce, std::string& error) {
  return parse_payload(frame, FrameType::kPing, "a ping", error,
                       [&](bytes::Reader& r) { nonce = r.u64(); });
}

bool parse_pong(const Frame& frame, WirePong& out, std::string& error) {
  return parse_payload(frame, FrameType::kPong, "a pong", error,
                       [&](bytes::Reader& r) {
                         out.nonce = r.u64();
                         out.sessions = r.u64();
                       });
}

bool parse_export(const Frame& frame, std::uint64_t& user_id,
                  std::string& error) {
  return parse_payload(frame, FrameType::kExport, "an export", error,
                       [&](bytes::Reader& r) { user_id = r.u64(); });
}

bool parse_session_image(const Frame& frame, WireSessionImage& out,
                         std::string& error) {
  return parse_payload(frame, FrameType::kSessionImage, "a session-image",
                       error, [&](bytes::Reader& r) {
    out.user_id = r.u64();
    const std::uint32_t found = r.u32();
    if (found > 1) {
      std::ostringstream os;
      os << "found must be 0 or 1; got " << found;
      reject(os.str());
    }
    out.found = found == 1;
    out.image = std::string(r.bytes(r.u32()));
    out.checkpoint = std::string(r.bytes(r.u32()));
    r.expect_end();
    if (out.found && out.image.empty())
      reject("found session carries no image bytes");
  });
}

bool parse_import_ack(const Frame& frame, WireImportAck& out,
                      std::string& error) {
  return parse_payload(frame, FrameType::kImportAck, "an import-ack", error,
                       [&](bytes::Reader& r) {
    out.user_id = r.u64();
    const std::uint32_t ok = r.u32();
    if (ok > 1) {
      std::ostringstream os;
      os << "ok must be 0 or 1; got " << ok;
      reject(os.str());
    }
    out.ok = ok == 1;
    out.error = std::string(r.bytes(r.u32()));
  });
}

bool parse_adopt(const Frame& frame, std::string& journal_dir,
                 std::string& error) {
  return parse_payload(frame, FrameType::kAdopt, "an adopt", error,
                       [&](bytes::Reader& r) {
    journal_dir = std::string(r.bytes(r.u32()));
    r.expect_end();
    if (journal_dir.empty())
      reject("adopt names an empty journal directory");
  });
}

bool parse_adopt_ack(const Frame& frame, WireAdoptAck& out,
                     std::string& error) {
  return parse_payload(frame, FrameType::kAdoptAck, "an adopt-ack", error,
                       [&](bytes::Reader& r) {
                         out.sessions = r.u64();
                         out.personalized = r.u64();
                         out.failed = r.u64();
                       });
}

bool parse_metrics_json(const Frame& frame, std::string& json,
                        std::string& error) {
  if (frame.type != FrameType::kMetricsJson) {
    error = "not a metrics-json frame";
    return false;
  }
  json = frame.payload;
  return true;
}

}  // namespace clear::net
