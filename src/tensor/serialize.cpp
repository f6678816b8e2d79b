#include "tensor/serialize.hpp"

#include <limits>

#include "common/error.hpp"

namespace clear::io {

namespace {
constexpr std::uint32_t kMagic = 0x43545352;  // 'CTSR'
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kMaxRank = 8;
}  // namespace

void put_tensor(bytes::Writer& w, const Tensor& t) {
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(t.rank());
  for (std::size_t d = 0; d < t.rank(); ++d) w.u64(t.extent(d));
  w.f32s(t.flat());
}

Tensor get_tensor(bytes::Reader& r) {
  CLEAR_CHECK_MSG(r.u32() == kMagic, "bad tensor magic");
  CLEAR_CHECK_MSG(r.u32() == kVersion, "unsupported tensor version");
  const std::size_t rank = r.count(r.u64(), sizeof(std::uint64_t));
  CLEAR_CHECK_MSG(rank <= kMaxRank, "implausible tensor rank " << rank);
  std::vector<std::size_t> shape(rank);
  // Saturating product: an overflowing shape fails the count check below
  // like any other shape whose data is not there.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t numel = rank == 0 ? 0 : 1;
  for (std::size_t& e : shape) {
    const std::uint64_t extent = r.u64();
    CLEAR_CHECK_MSG(extent > 0 && extent < (1ull << 32),
                    "implausible tensor extent " << extent);
    e = static_cast<std::size_t>(extent);
    numel = extent > kMax / numel ? kMax : numel * extent;
  }
  std::vector<float> data(r.count(numel, sizeof(float)));
  r.f32s(data);
  return Tensor(std::move(shape), std::move(data));
}

}  // namespace clear::io
