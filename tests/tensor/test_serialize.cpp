#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace clear::io {
namespace {

Tensor round_trip(const Tensor& t) {
  bytes::Writer w;
  put_tensor(w, t);
  const std::string blob = w.take();
  bytes::Reader r(blob);
  Tensor u = get_tensor(r);
  r.expect_end();
  return u;
}

TEST(Serialize, TensorRoundTrip) {
  Rng rng(1);
  Tensor t({3, 4, 5});
  t.fill_normal(rng, 0.0f, 2.0f);
  const Tensor u = round_trip(t);
  ASSERT_TRUE(u.same_shape(t));
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(u[i], t[i]);
}

TEST(Serialize, Rank1RoundTrip) {
  const Tensor u = round_trip(Tensor({4}, {1, 2, 3, 4}));
  EXPECT_EQ(u.rank(), 1u);
  EXPECT_EQ(u[2], 3.0f);
}

TEST(Serialize, MultipleTensorsSequential) {
  bytes::Writer w;
  put_tensor(w, Tensor({2}, {1, 2}));
  put_tensor(w, Tensor({3}, {3, 4, 5}));
  const std::string blob = w.take();
  bytes::Reader r(blob);
  EXPECT_EQ(get_tensor(r).numel(), 2u);
  EXPECT_EQ(get_tensor(r).numel(), 3u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, BadMagicThrows) {
  bytes::Reader r("garbagegarbage!!");
  EXPECT_THROW(get_tensor(r), Error);
}

TEST(Serialize, TruncatedStreamThrows) {
  bytes::Writer w;
  put_tensor(w, Tensor({100}));
  const std::string blob = w.take();
  bytes::Reader r(std::string_view(blob).substr(0, blob.size() / 2));
  EXPECT_THROW(get_tensor(r), Error);
}

TEST(Serialize, StringRoundTrip) {
  // Names inside checkpoints and the dataset cache key: u64 length + bytes.
  bytes::Writer w;
  for (const std::string_view s : {"hello world", ""}) {
    w.u64(s.size());
    w.raw(s);
  }
  const std::string blob = w.take();
  bytes::Reader r(blob);
  EXPECT_EQ(r.bytes(r.u64()), "hello world");
  EXPECT_EQ(r.bytes(r.u64()), "");
  r.expect_end();
}

TEST(Serialize, ScalarsRoundTrip) {
  bytes::Writer w;
  w.u64(0xDEADBEEFCAFEull);
  w.f64(3.14159);
  const std::string blob = w.take();
  bytes::Reader r(blob);
  EXPECT_EQ(r.u64(), 0xDEADBEEFCAFEull);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
}

}  // namespace
}  // namespace clear::io
