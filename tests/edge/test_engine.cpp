#include "edge/engine.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/model.hpp"

namespace clear::edge {
namespace {

nn::CnnLstmConfig tiny_config() {
  nn::CnnLstmConfig c;
  c.feature_dim = 16;
  c.window_count = 8;
  c.conv1_channels = 2;
  c.conv2_channels = 3;
  c.lstm_hidden = 5;
  c.dropout = 0.0;
  return c;
}

struct Fixture {
  std::vector<Tensor> maps;
  nn::MapDataset data;

  explicit Fixture(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      Tensor m({16, 8});
      const int label = static_cast<int>(i % 2);
      for (std::size_t r = 0; r < 16; ++r)
        for (std::size_t c = 0; c < 8; ++c)
          m.at2(r, c) = static_cast<float>(
              rng.normal(label && r < 8 ? 1.2 : 0.0, 0.5));
      maps.push_back(std::move(m));
    }
    for (std::size_t i = 0; i < n; ++i) {
      data.maps.push_back(&maps[i]);
      data.labels.push_back(i % 2);
    }
  }

  std::vector<const Tensor*> map_ptrs() const { return data.maps; }
};

std::unique_ptr<nn::Sequential> make_model(std::uint64_t seed) {
  Rng rng(seed);
  return nn::build_cnn_lstm(tiny_config(), rng);
}

TEST(EdgeEngine, Fp32MatchesRawModel) {
  Fixture f(6, 1);
  auto model = make_model(2);
  model->set_training(false);
  const Tensor batch = nn::stack_batch(f.data.maps, {0, 1, 2});
  const Tensor expected = model->forward(batch);

  auto copy = make_model(2);
  EngineConfig ec;
  ec.precision = Precision::kFp32;
  EdgeEngine engine(std::move(copy), ec);
  const Tensor got = engine.forward(batch);
  for (std::size_t i = 0; i < expected.numel(); ++i)
    EXPECT_EQ(got[i], expected[i]);
}

TEST(EdgeEngine, Fp16CloseToFp32) {
  Fixture f(8, 3);
  EngineConfig fp32;
  EdgeEngine ref(make_model(4), fp32);
  EngineConfig fp16;
  fp16.precision = Precision::kFp16;
  EdgeEngine half(make_model(4), fp16);
  const Tensor batch = nn::stack_batch(f.data.maps, {0, 1, 2, 3});
  const Tensor a = ref.forward(batch);
  const Tensor b = half.forward(batch);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_NEAR(a[i], b[i], 0.05f);
}

TEST(EdgeEngine, Int8RequiresCalibration) {
  Fixture f(4, 5);
  EngineConfig ec;
  ec.precision = Precision::kInt8;
  EdgeEngine engine(make_model(6), ec);
  const Tensor batch = nn::stack_batch(f.data.maps, {0});
  EXPECT_THROW(engine.forward(batch), Error);
  engine.calibrate(f.map_ptrs());
  EXPECT_TRUE(engine.calibrated());
  EXPECT_NO_THROW(engine.forward(batch));
}

TEST(EdgeEngine, Int8OutputsCorrelateWithFp32) {
  Fixture f(10, 7);
  EngineConfig fp32;
  EdgeEngine ref(make_model(8), fp32);
  EngineConfig int8;
  int8.precision = Precision::kInt8;
  EdgeEngine quant(make_model(8), int8);
  quant.calibrate(f.map_ptrs());
  const Tensor batch = nn::stack_batch(f.data.maps, {0, 1, 2, 3, 4});
  const Tensor a = ref.forward(batch);
  const Tensor b = quant.forward(batch);
  // Same argmax on most rows (int8 error is bounded, logits differ by class).
  std::size_t agree = 0;
  for (std::size_t i = 0; i < a.extent(0); ++i) {
    const bool ca = a.at2(i, 1) > a.at2(i, 0);
    const bool cb = b.at2(i, 1) > b.at2(i, 0);
    if (ca == cb) ++agree;
  }
  EXPECT_GE(agree, 4u);
}

// A row's logits are a function of that row alone: the batch it rides in,
// a batch of one, and a different split of the same rows all give the same
// bits.
TEST(EdgeEngine, Int8RowsAnswerAsTheyDoAlone) {
  Fixture f(8, 19);
  EngineConfig int8;
  int8.precision = Precision::kInt8;
  EdgeEngine engine(make_model(20), int8);
  engine.calibrate(f.map_ptrs());
  const Tensor all =
      engine.forward(nn::stack_batch(f.data.maps, {0, 1, 2, 3, 4, 5, 6, 7}));
  const Tensor head = engine.forward(nn::stack_batch(f.data.maps, {0, 1, 2}));
  const Tensor tail =
      engine.forward(nn::stack_batch(f.data.maps, {3, 4, 5, 6, 7}));
  const std::size_t classes = all.extent(1);
  for (std::size_t row = 0; row < 8; ++row) {
    const Tensor alone = engine.forward(nn::stack_batch(f.data.maps, {row}));
    const Tensor& part = row < 3 ? head : tail;
    const std::size_t part_row = row < 3 ? row : row - 3;
    for (std::size_t c = 0; c < classes; ++c) {
      EXPECT_EQ(all.at2(row, c), alone.at2(0, c)) << "row " << row;
      EXPECT_EQ(all.at2(row, c), part.at2(part_row, c)) << "row " << row;
    }
  }
}

TEST(EdgeEngine, ActivationParamsCoverEveryStage) {
  Fixture f(4, 9);
  EngineConfig ec;
  ec.precision = Precision::kInt8;
  EdgeEngine engine(make_model(10), ec);
  engine.calibrate(f.map_ptrs());
  EXPECT_EQ(engine.activation_params().size(), engine.model().size() + 1);
  for (const QuantParams& p : engine.activation_params())
    EXPECT_GT(p.scale, 0.0f);
}

TEST(EdgeEngine, InstalledScalesForwardExactlyLikeCalibration) {
  Fixture f(6, 16);
  EngineConfig ec;
  ec.precision = Precision::kInt8;
  EdgeEngine calibrated(make_model(17), ec);
  calibrated.calibrate(f.map_ptrs());
  // A second engine on the same weights takes the first one's scales
  // instead of calibrating, and answers bit for bit the same.
  EdgeEngine installed(make_model(17), ec);
  installed.set_activation_params(calibrated.activation_params());
  EXPECT_TRUE(installed.calibrated());
  EXPECT_EQ(installed.resident_bytes(), calibrated.resident_bytes());
  const Tensor batch = nn::stack_batch(f.data.maps, {0, 1, 2, 3});
  const Tensor a = calibrated.forward(batch);
  const Tensor b = installed.forward(batch);
  ASSERT_EQ(a.numel(), b.numel());
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(EdgeEngine, InstalledScalesNeedOnePerStageOnAnInt8Engine) {
  EngineConfig int8;
  int8.precision = Precision::kInt8;
  EdgeEngine engine(make_model(18), int8);
  const std::size_t stages = engine.model().size() + 1;
  EXPECT_THROW(
      engine.set_activation_params(std::vector<QuantParams>(stages - 1)),
      Error);
  EXPECT_THROW(
      engine.set_activation_params(std::vector<QuantParams>(stages + 1)),
      Error);
  EXPECT_FALSE(engine.calibrated());
  EdgeEngine fp32(make_model(18), EngineConfig{});
  EXPECT_THROW(fp32.set_activation_params(std::vector<QuantParams>(stages)),
               Error);
  EXPECT_FALSE(fp32.calibrated());
}

TEST(EdgeEngine, CalibrateIsNoOpForFp32) {
  Fixture f(4, 11);
  EngineConfig ec;
  EdgeEngine engine(make_model(12), ec);
  engine.calibrate(f.map_ptrs());
  EXPECT_FALSE(engine.calibrated());
}

TEST(EdgeEngine, WeightsActuallyQuantizedForInt8) {
  auto model = make_model(13);
  const Tensor before = model->parameters()[0]->value;
  EngineConfig ec;
  ec.precision = Precision::kInt8;
  EdgeEngine engine(std::move(model), ec);
  const Tensor& after = engine.model().parameters()[0]->value;
  // At most 255 distinct values per tensor after symmetric int8.
  std::set<float> distinct(after.flat().begin(), after.flat().end());
  EXPECT_LE(distinct.size(), 255u);
  // And they differ from the raw weights somewhere.
  bool changed = false;
  for (std::size_t i = 0; i < before.numel(); ++i)
    if (before[i] != after[i]) changed = true;
  EXPECT_TRUE(changed);
}

TEST(EdgeEngine, PredictAndEvaluateShapes) {
  Fixture f(10, 14);
  EngineConfig ec;
  EdgeEngine engine(make_model(15), ec);
  const auto preds = engine.predict(f.data, 4);
  EXPECT_EQ(preds.size(), 10u);
  const nn::BinaryMetrics m = engine.evaluate(f.data, 4);
  EXPECT_EQ(m.count(), 10u);
}

TEST(EdgeEngine, PrecisionNames) {
  EXPECT_STREQ(precision_name(Precision::kFp32), "fp32");
  EXPECT_STREQ(precision_name(Precision::kFp16), "fp16");
  EXPECT_STREQ(precision_name(Precision::kInt8), "int8");
}

TEST(EdgeEngine, NullModelRejected) {
  EngineConfig ec;
  EXPECT_THROW(EdgeEngine(nullptr, ec), Error);
}

}  // namespace
}  // namespace clear::edge
