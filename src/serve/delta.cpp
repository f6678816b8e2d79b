#include "serve/delta.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "artifact/store.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "edge/quantize.hpp"
#include "nn/checkpoint.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/tensor.hpp"

namespace clear::serve::delta {

namespace {

constexpr std::uint32_t kDeltaCodecVersion = 2;

constexpr const char* kMetaBlock = "delta.meta";
constexpr const char* kTensorsBlock = "delta.tensors";
constexpr const char* kValuesBlock = "delta.values";

// Value 0 retired with codec v1; a v2 reader rejects it as unknown.
enum class Enc : std::uint8_t {
  kRaw = 1,
  kUlpDelta = 2,
  kHalf = 3,
  kGrid8 = 4,
};

using nn::NamedTensor;

// -- Bit helpers -------------------------------------------------------------

std::uint32_t f32_bits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, 4);
  return b;
}

float f32_from_bits(std::uint32_t b) {
  float v;
  std::memcpy(&v, &b, 4);
  return v;
}

/// f32 -> IEEE half, round-to-nearest-even, total (overflow -> inf).
std::uint16_t half_from_float(float f) {
  const std::uint32_t x = f32_bits(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t mant = x & 0x7FFFFFu;
  const int exp = static_cast<int>((x >> 23) & 0xFFu) - 127;
  if (exp == 128)  // inf / nan
    return static_cast<std::uint16_t>(
        sign | 0x7C00u | (mant ? 0x200u | (mant >> 13) : 0u));
  if (exp > 15) return static_cast<std::uint16_t>(sign | 0x7C00u);
  if (exp >= -14) {
    std::uint32_t m = (mant | 0x800000u) >> 13;
    const std::uint32_t rem = (mant | 0x800000u) & 0x1FFFu;
    if (rem > 0x1000u || (rem == 0x1000u && (m & 1u))) ++m;
    // m carries its implicit bit at 0x400; a carry into 0x800 bumps the
    // exponent via the addition below (saturating into the inf encoding).
    return static_cast<std::uint16_t>(
        sign + (static_cast<std::uint32_t>(exp + 15) << 10) + (m - 0x400u));
  }
  if (exp >= -25) {
    const int shift = 13 + (-14 - exp);
    const std::uint32_t full = mant | 0x800000u;
    std::uint32_t m = full >> shift;
    const std::uint32_t rem = full & ((1u << shift) - 1u);
    const std::uint32_t half_rem = 1u << (shift - 1);
    if (rem > half_rem || (rem == half_rem && (m & 1u))) ++m;
    return static_cast<std::uint16_t>(sign | m);
  }
  return static_cast<std::uint16_t>(sign);
}

/// IEEE half -> f32, exact widening.
float float_from_half(std::uint16_t h) {
  const bool neg = (h & 0x8000u) != 0;
  const std::uint32_t e = (h >> 10) & 0x1Fu;
  const std::uint32_t m = h & 0x3FFu;
  if (e == 31) {
    const std::uint32_t bits = (neg ? 0x80000000u : 0u) | 0x7F800000u |
                               (m << 13);
    return f32_from_bits(bits);
  }
  float v = e == 0 ? std::ldexp(static_cast<float>(m), -24)
                   : std::ldexp(static_cast<float>(m | 0x400u),
                                static_cast<int>(e) - 25);
  return neg ? -v : v;
}

// -- Residual coder (bitmap + zigzag varints) --------------------------------

std::uint64_t zigzag(std::int64_t r) {
  return (static_cast<std::uint64_t>(r) << 1) ^
         static_cast<std::uint64_t>(r >> 63);
}

std::int64_t unzigzag(std::uint64_t z) {
  return static_cast<std::int64_t>(z >> 1) ^
         -static_cast<std::int64_t>(z & 1u);
}

std::string encode_residuals(const std::vector<std::int64_t>& r) {
  const std::size_t n = r.size();
  std::string bitmap((n + 7) / 8, '\0');
  std::uint64_t nnz = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (r[i] != 0) {
      bitmap[i >> 3] |= static_cast<char>(1u << (i & 7u));
      ++nnz;
    }
  bytes::Writer w;
  w.u64(nnz);
  w.raw(bitmap);
  for (std::size_t i = 0; i < n; ++i)
    if (r[i] != 0) w.varint(zigzag(r[i]));
  return w.take();
}

std::vector<std::int64_t> decode_residuals(std::string_view payload,
                                           std::size_t n) {
  bytes::Reader r(payload, "delta residuals");
  const std::uint64_t nnz = r.u64();
  const std::string_view bitmap = r.bytes((n + 7) / 8);
  std::vector<std::int64_t> out(n, 0);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (bitmap[i >> 3] & (1u << (i & 7u))) {
      out[i] = unzigzag(r.varint());
      ++seen;
    }
  CLEAR_CHECK_MSG(seen == nnz, "delta residual bitmap claims "
                                   << seen << " nonzeros, header says "
                                   << nnz);
  r.expect_end();
  return out;
}

// -- rANS residual coding (kGrid8) -------------------------------------------
//
// Unfrozen weights routinely move several grid steps under fine-tuning, so
// their grid residuals are dense (a sparse bitmap+varint stream would pay ~1
// byte per weight) but low-entropy (~4 bits: a couple dozen distinct steps,
// sharply peaked at small magnitudes). A static entropy coder over the
// per-tensor residual histogram gets within a few percent of that entropy.
// The symbol packs the residual with the sign-of-zero fixup bit:
// sym = 2 * zigzag(residual) + neg_zero.
//
// Static rANS (Duda), 32-bit state, byte renormalization: integer-only, so
// the bitstream is bit-identical across platforms, and the decoder — which
// runs once per weight on every cold load — needs no division, just a
// slot-table lookup, a multiply, and a shift. Frequencies are normalized
// to sum to kDenseTotal exactly; every present symbol keeps a count >= 1.
// rANS is LIFO, so the encoder walks the symbols in reverse and the
// decoder reads the body strictly forward: u32 big-endian initial state,
// then renormalization bytes.

constexpr std::uint32_t kDenseBits = 14;
constexpr std::uint32_t kDenseTotal = 1u << kDenseBits;
constexpr std::uint32_t kRansL = 1u << 23;  // state in [kRansL, kRansL << 8)

/// Encode `syms` (indices into freqs/cum) into an rANS body. `cum[i]` is
/// the exclusive prefix sum of `freqs`; freqs sum to kDenseTotal.
std::string rans_encode(const std::vector<std::uint8_t>& syms,
                        const std::vector<std::uint32_t>& freqs,
                        const std::vector<std::uint32_t>& cum) {
  std::string tail;  // renormalization bytes, collected backwards
  std::uint32_t x = kRansL;
  for (std::size_t i = syms.size(); i-- > 0;) {
    const std::uint32_t f = freqs[syms[i]];
    const std::uint32_t x_max = ((kRansL >> kDenseBits) << 8) * f;
    while (x >= x_max) {
      tail.push_back(static_cast<char>(x & 0xFFu));
      x >>= 8;
    }
    x = ((x / f) << kDenseBits) + (x % f) + cum[syms[i]];
  }
  std::string out;
  out.reserve(4 + tail.size());
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<char>((x >> shift) & 0xFFu));
  out.append(tail.rbegin(), tail.rend());
  return out;
}

/// varint n_symbols, then per symbol (ascending sym value) varint sym +
/// varint normalized freq (freqs sum to kDenseTotal), then varint body
/// length + rANS body. Returns "" when the tensor is a poor fit (more than
/// 256 distinct symbols, or normalization cannot keep every count >= 1).
std::string encode_rans_residuals(const std::vector<std::int64_t>& r,
                                  const std::vector<std::int64_t>& neg_zero) {
  const std::size_t n = r.size();
  if (n == 0) return "";
  std::map<std::uint64_t, std::uint64_t> counts;
  for (std::size_t i = 0; i < n; ++i)
    ++counts[2 * zigzag(r[i]) + static_cast<std::uint64_t>(neg_zero[i])];
  if (counts.size() > 256 || counts.size() >= kDenseTotal) return "";

  std::vector<std::uint64_t> syms;
  std::vector<std::uint32_t> freqs;
  std::uint64_t sum = 0;
  std::size_t largest = 0;
  for (const auto& [sym, c] : counts) {
    const std::uint32_t f = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, c * kDenseTotal / n));
    if (freqs.empty() || c > counts.at(syms[largest])) largest = syms.size();
    syms.push_back(sym);
    freqs.push_back(f);
    sum += f;
  }
  // Exact normalization: push the rounding drift into the most frequent
  // symbol, bailing out if that would zero it.
  const std::int64_t drift = static_cast<std::int64_t>(kDenseTotal) -
                             static_cast<std::int64_t>(sum);
  if (static_cast<std::int64_t>(freqs[largest]) + drift < 1) return "";
  freqs[largest] = static_cast<std::uint32_t>(
      static_cast<std::int64_t>(freqs[largest]) + drift);

  std::vector<std::uint32_t> cum(freqs.size() + 1, 0);
  for (std::size_t i = 0; i < freqs.size(); ++i) cum[i + 1] = cum[i] + freqs[i];

  std::vector<std::uint8_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t sym =
        2 * zigzag(r[i]) + static_cast<std::uint64_t>(neg_zero[i]);
    indices[i] = static_cast<std::uint8_t>(
        std::lower_bound(syms.begin(), syms.end(), sym) - syms.begin());
  }
  const std::string body = rans_encode(indices, freqs, cum);

  bytes::Writer w;
  w.varint(syms.size());
  for (std::size_t i = 0; i < syms.size(); ++i) {
    w.varint(syms[i]);
    w.varint(freqs[i]);
  }
  w.varint(body.size());
  w.raw(body);
  return w.take();
}

/// Inverse of encode_rans_residuals, consuming from `in`. Fills both the
/// residuals and the sign-of-zero flags.
void get_rans_residuals(bytes::Reader& in, std::size_t n,
                        std::vector<std::int64_t>& r,
                        std::vector<std::int64_t>& neg_zero) {
  const std::uint64_t n_symbols = in.varint();
  CLEAR_CHECK_MSG(n_symbols > 0 && n_symbols <= 256,
                  "delta grid8 residual table has " << n_symbols
                                                     << " symbols");
  std::vector<std::uint64_t> syms(n_symbols);
  std::vector<std::uint32_t> freqs(n_symbols);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n_symbols; ++i) {
    syms[i] = in.varint();
    CLEAR_CHECK_MSG(i == 0 || syms[i] > syms[i - 1],
                    "delta grid8 residual symbols not ascending");
    const std::uint64_t f = in.varint();
    CLEAR_CHECK_MSG(f >= 1 && f <= kDenseTotal,
                    "delta grid8 residual frequency " << f
                                                       << " out of range");
    freqs[i] = static_cast<std::uint32_t>(f);
    sum += f;
  }
  CLEAR_CHECK_MSG(sum == kDenseTotal, "delta grid8 residual frequencies sum "
                                          << sum << ", want " << kDenseTotal);
  std::vector<std::uint32_t> cum(n_symbols + 1, 0);
  for (std::size_t i = 0; i < n_symbols; ++i) cum[i + 1] = cum[i] + freqs[i];
  // cum -> symbol-index lookup (16 KB, filled once per tensor): O(1) per
  // decoded symbol instead of a binary search in the loop that runs once
  // per weight.
  std::vector<std::uint8_t> lut(kDenseTotal);
  for (std::size_t i = 0; i < n_symbols; ++i)
    std::fill(lut.begin() + cum[i], lut.begin() + cum[i + 1],
              static_cast<std::uint8_t>(i));

  const std::string_view body = in.bytes(in.varint());
  CLEAR_CHECK_MSG(body.size() >= 4,
                  "delta grid8 residual body too short for an rANS state");
  std::size_t bp = 0;
  std::uint32_t x = 0;
  for (int k = 0; k < 4; ++k)
    x = (x << 8) | static_cast<std::uint8_t>(body[bp++]);

  r.assign(n, 0);
  neg_zero.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = x & (kDenseTotal - 1u);
    const std::size_t idx = lut[slot];
    neg_zero[i] = static_cast<std::int64_t>(syms[idx] & 1u);
    r[i] = unzigzag(syms[idx] >> 1);
    x = freqs[idx] * (x >> kDenseBits) + slot - cum[idx];
    while (x < kRansL) {
      // A corrupt body can run dry mid-stream; park the state in range so
      // the loop terminates — the reconstruction CRC rejects the result.
      if (bp >= body.size()) {
        x = kRansL;
        break;
      }
      x = (x << 8) | static_cast<std::uint8_t>(body[bp++]);
    }
  }
}

// -- Per-tensor encodings ----------------------------------------------------

bool all_finite(const Tensor& t) {
  for (const float v : t.flat())
    if (!std::isfinite(v)) return false;
  return true;
}

std::optional<std::string> try_half(const Tensor& base, const Tensor& ft) {
  const std::size_t n = ft.numel();
  std::vector<std::int64_t> r(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t hb = half_from_float(ft[i]);
    if (f32_bits(float_from_half(hb)) != f32_bits(ft[i])) return std::nullopt;
    const std::uint16_t pred = half_from_float(base[i]);
    r[i] = std::int64_t(hb) - std::int64_t(pred);
  }
  return encode_residuals(r);
}

std::optional<std::string> try_grid8(const Tensor& base, const Tensor& ft) {
  if (!all_finite(ft) || !all_finite(base)) return std::nullopt;
  const std::size_t n = ft.numel();
  float max_abs = 0.0f;
  for (const float v : ft.flat()) max_abs = std::max(max_abs, std::abs(v));
  if (max_abs <= 0.0f) return std::nullopt;
  // The fine-tune's scale was max|pre-quant|/127, which is unrecoverable —
  // but the true scale maps the largest surviving magnitude back to ±127,
  // so it lies within a couple of ULPs of max|ft|/127. Try the neighbors
  // and keep the first that reproduces every element bitwise.
  const float s0 = max_abs / 127.0f;
  float candidates[5];
  candidates[0] = s0;
  candidates[1] = std::nextafterf(s0, 0.0f);
  candidates[2] = std::nextafterf(s0, std::numeric_limits<float>::infinity());
  candidates[3] = std::nextafterf(candidates[1], 0.0f);
  candidates[4] = std::nextafterf(candidates[2],
                                  std::numeric_limits<float>::infinity());
  for (const float s : candidates) {
    if (!(s > 0.0f) || !std::isfinite(s)) continue;
    const edge::QuantParams qp{s};
    bool exact = true;
    std::vector<std::int64_t> r(n);
    std::vector<std::int64_t> neg_zero(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int8_t q = edge::quantize_value(ft[i], qp);
      if (f32_bits(edge::dequantize_value(q, qp)) != f32_bits(ft[i])) {
        // The SIMD fake-quant kernel emits -0.0f where the scalar
        // dequantize gives +0.0f; a sign-of-zero fixup bit in the rANS
        // symbol keeps the reconstruction bitwise.
        if (q == 0 && f32_bits(ft[i]) == 0x80000000u) {
          neg_zero[i] = 1;
        } else {
          exact = false;
          break;
        }
      }
      const std::int8_t pred = edge::quantize_value(base[i], qp);
      r[i] = std::int64_t(q) - std::int64_t(pred);
    }
    if (!exact) continue;
    // A tensor whose residuals overflow the rANS table is no grid8
    // candidate; it takes another encoding.
    const std::string body = encode_rans_residuals(r, neg_zero);
    if (body.empty()) return std::nullopt;
    bytes::Writer payload;
    payload.u32(f32_bits(s));
    payload.raw(body);
    return payload.take();
  }
  return std::nullopt;
}

std::string encode_ulp(const Tensor& base, const Tensor& ft) {
  const std::size_t n = ft.numel();
  std::vector<std::int64_t> r(n);
  for (std::size_t i = 0; i < n; ++i)
    r[i] = std::int64_t(f32_bits(ft[i])) - std::int64_t(f32_bits(base[i]));
  return encode_residuals(r);
}

std::string encode_raw(const Tensor& ft) {
  bytes::Writer w(ft.numel() * 4);
  w.f32s(ft.flat());
  return w.take();
}

std::vector<float> decode_tensor(Enc enc, std::string_view payload,
                                 const Tensor& base, std::size_t n,
                                 const std::string& name) {
  std::vector<float> out(n);
  switch (enc) {
    case Enc::kRaw: {
      CLEAR_CHECK_MSG(payload.size() == n * 4,
                      "delta tensor '" << name << "': raw payload is "
                                       << payload.size() << " bytes, want "
                                       << n * 4);
      bytes::Reader(payload, "delta raw").f32s(out);
      break;
    }
    case Enc::kUlpDelta: {
      const std::vector<std::int64_t> r = decode_residuals(payload, n);
      for (std::size_t i = 0; i < n; ++i)
        out[i] = f32_from_bits(static_cast<std::uint32_t>(
            std::int64_t(f32_bits(base[i])) + r[i]));
      break;
    }
    case Enc::kHalf: {
      const std::vector<std::int64_t> r = decode_residuals(payload, n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint16_t pred = half_from_float(base[i]);
        out[i] = float_from_half(
            static_cast<std::uint16_t>(std::int64_t(pred) + r[i]));
      }
      break;
    }
    case Enc::kGrid8: {
      bytes::Reader in(payload, "delta grid8");
      const edge::QuantParams qp{in.f32()};
      std::vector<std::int64_t> r;
      std::vector<std::int64_t> neg_zero;
      get_rans_residuals(in, n, r, neg_zero);
      in.expect_end();
      // The SIMD quantize kernel is bit-identical to the scalar
      // edge::quantize_value the encoder used (the kernel sweep enforces
      // cross-ISA bit-identity); one bulk call replaces a per-weight
      // out-of-line call + libm nearbyint on the cold-load path.
      std::vector<std::int8_t> pred(n);
      kernels::active().quantize_i8(base.data(), qp.scale, pred.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto q = static_cast<std::int8_t>(std::int64_t(pred[i]) + r[i]);
        out[i] = neg_zero[i] ? -0.0f : static_cast<float>(q) * qp.scale;
      }
      break;
    }
    default:
      CLEAR_CHECK_MSG(false, "delta tensor '"
                                 << name << "': unknown encoding "
                                 << static_cast<int>(enc));
  }
  return out;
}

}  // namespace

bool is_delta(const std::string& blob) {
  return artifact::Reader::is_artifact(blob);
}

namespace {

struct Meta {
  std::uint32_t codec_version = kDeltaCodecVersion;
  BaseRef base;
  std::uint64_t base_bytes = 0;
  std::uint32_t base_crc = 0;
  std::uint64_t full_bytes = 0;
  std::uint32_t full_crc = 0;
  std::uint64_t tensor_count = 0;
};

std::string encode_meta(const Meta& m) {
  bytes::Writer w;
  w.u32(m.codec_version);
  w.u8(static_cast<std::uint8_t>(m.base.kind));
  w.u64(m.base.id);
  w.u64(m.base_bytes);
  w.u32(m.base_crc);
  w.u64(m.full_bytes);
  w.u32(m.full_crc);
  w.u64(m.tensor_count);
  return w.take();
}

Meta decode_meta(std::string_view block) {
  bytes::Reader r(block, "delta.meta");
  Meta m;
  m.codec_version = r.u32();
  CLEAR_CHECK_MSG(m.codec_version == kDeltaCodecVersion,
                  "unsupported delta codec version " << m.codec_version);
  const std::uint8_t kind = r.u8();
  CLEAR_CHECK_MSG(kind <= 1, "delta.meta names unknown base kind "
                                 << static_cast<int>(kind));
  m.base.kind = static_cast<BaseRef::Kind>(kind);
  m.base.id = r.u64();
  m.base_bytes = r.u64();
  m.base_crc = r.u32();
  m.full_bytes = r.u64();
  m.full_crc = r.u32();
  m.tensor_count = r.u64();
  r.expect_end();
  return m;
}

}  // namespace

BaseRef base_of(const std::string& blob) {
  const artifact::Reader reader(blob);
  return decode_meta(reader.block(kMetaBlock)).base;
}

std::optional<std::string> encode(const std::string& base_blob,
                                  const BaseRef& base,
                                  const std::string& ft_blob,
                                  EncodeStats* stats) {
  std::vector<NamedTensor> base_params;
  std::vector<NamedTensor> ft_params;
  try {
    base_params = nn::decode_checkpoint(base_blob);
    ft_params = nn::decode_checkpoint(ft_blob);
  } catch (const Error&) {
    return std::nullopt;  // Unparseable input: persist the full blob.
  }
  if (base_params.size() != ft_params.size()) return std::nullopt;
  for (std::size_t i = 0; i < ft_params.size(); ++i)
    if (base_params[i].name != ft_params[i].name ||
        !base_params[i].value.same_shape(ft_params[i].value))
      return std::nullopt;
  // The reconstruction target is the checkpoint re-encoding; a blob that
  // does not round-trip byte-identically stays full.
  if (nn::encode_checkpoint(ft_params) != ft_blob) return std::nullopt;

  EncodeStats st;
  bytes::Writer tensors_block;
  bytes::Writer values_block;
  for (std::size_t i = 0; i < ft_params.size(); ++i) {
    const Tensor& b = base_params[i].value;
    const Tensor& f = ft_params[i].value;
    const std::size_t n = f.numel();
    Enc enc = Enc::kRaw;
    std::string payload = encode_raw(f);
    if (std::string ulp = encode_ulp(b, f); ulp.size() < payload.size()) {
      enc = Enc::kUlpDelta;
      payload = std::move(ulp);
    }
    if (std::optional<std::string> half = try_half(b, f);
        half && half->size() < payload.size()) {
      enc = Enc::kHalf;
      payload = std::move(*half);
    }
    if (std::optional<std::string> grid = try_grid8(b, f);
        grid && grid->size() < payload.size()) {
      enc = Enc::kGrid8;
      payload = std::move(*grid);
    }
    switch (enc) {
      case Enc::kRaw: ++st.raw; break;
      case Enc::kUlpDelta: ++st.ulp; break;
      case Enc::kHalf: ++st.half; break;
      case Enc::kGrid8: ++st.grid8; break;
    }
    tensors_block.u32(static_cast<std::uint32_t>(ft_params[i].name.size()));
    tensors_block.raw(ft_params[i].name);
    tensors_block.u8(static_cast<std::uint8_t>(enc));
    tensors_block.u64(n);
    tensors_block.u64(payload.size());
    values_block.raw(payload);
  }

  Meta meta;
  meta.base = base;
  meta.base_bytes = base_blob.size();
  meta.base_crc = nn::checkpoint_digest(base_blob);
  meta.full_bytes = ft_blob.size();
  meta.full_crc = nn::checkpoint_digest(ft_blob);
  meta.tensor_count = ft_params.size();

  artifact::Writer writer;
  writer.add_block(kMetaBlock, encode_meta(meta));
  writer.add_block(kTensorsBlock, tensors_block.take());
  writer.add_block(kValuesBlock, values_block.take());
  std::string container = writer.finish();
  if (container.size() >= ft_blob.size()) return std::nullopt;

  // Mandatory self round-trip: the delta is only worth storing if applying
  // it to the base reproduces the full checkpoint byte-identically.
  try {
    if (decode(container, base_blob) != ft_blob) return std::nullopt;
  } catch (const Error&) {
    return std::nullopt;
  }
  if (stats) *stats = st;
  return container;
}

std::string decode(const std::string& delta_blob,
                   const std::string& base_blob) {
  const artifact::Reader reader(delta_blob);
  const Meta meta = decode_meta(reader.block(kMetaBlock));
  const char* base_name =
      meta.base.kind == BaseRef::Kind::kGeneral ? "general" : "cluster";
  CLEAR_CHECK_MSG(
      meta.base_bytes == base_blob.size() &&
          meta.base_crc == nn::checkpoint_digest(base_blob),
      "delta base mismatch: " << base_name << " " << meta.base.id
                              << " checkpoint is " << base_blob.size()
                              << " bytes, crc "
                              << nn::checkpoint_digest(base_blob)
                              << "; delta was encoded against "
                              << meta.base_bytes << " bytes, crc "
                              << meta.base_crc);
  // No payload-CRC pass on the base (one full digest pass saved per cold
  // load), and the base digest above trusts its stored footer: both are
  // sound because the reconstruction check below compares against a footer
  // *recomputed* by re-encoding, so damage anywhere in the base or the
  // container perturbs the result and fails loudly.
  const std::vector<NamedTensor> base_params =
      nn::decode_checkpoint(base_blob, /*verify_crc=*/false);
  CLEAR_CHECK_MSG(meta.tensor_count == base_params.size(),
                  "delta has " << meta.tensor_count
                               << " tensor records, base checkpoint has "
                               << base_params.size());

  bytes::Reader tensors(reader.block(kTensorsBlock), "delta.tensors");
  bytes::Reader values(reader.block(kValuesBlock), "delta.values");
  std::vector<NamedTensor> out;
  out.reserve(base_params.size());
  for (std::size_t i = 0; i < base_params.size(); ++i) {
    const std::string name(tensors.bytes(tensors.u32()));
    const std::uint8_t enc = tensors.u8();
    const std::uint64_t numel = tensors.u64();
    const std::uint64_t payload_len = tensors.u64();
    CLEAR_CHECK_MSG(name == base_params[i].name,
                    "delta tensor " << i << " is '" << name
                                    << "', base checkpoint has '"
                                    << base_params[i].name << "'");
    CLEAR_CHECK_MSG(numel == base_params[i].value.numel(),
                    "delta tensor '" << name << "' has " << numel
                                     << " elements, base has "
                                     << base_params[i].value.numel());
    const std::string_view payload = values.bytes(payload_len);
    NamedTensor nt;
    nt.name = name;
    nt.value = Tensor(base_params[i].value.shape(),
                      decode_tensor(static_cast<Enc>(enc), payload,
                                    base_params[i].value,
                                    static_cast<std::size_t>(numel), name));
    out.push_back(std::move(nt));
  }
  tensors.expect_end();
  values.expect_end();

  std::string full = nn::encode_checkpoint(out);
  CLEAR_CHECK_MSG(
      full.size() == meta.full_bytes &&
          nn::checkpoint_digest(full) == meta.full_crc,
      "delta reconstruction failed its integrity check: rebuilt "
          << full.size() << " bytes, crc " << nn::checkpoint_digest(full)
          << "; delta.meta recorded " << meta.full_bytes << " bytes, crc "
          << meta.full_crc);
  return full;
}

}  // namespace clear::serve::delta
