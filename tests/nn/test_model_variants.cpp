#include <gtest/gtest.h>

#include <ostream>

#include "common/rng.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"

namespace clear::nn {
namespace {

CnnLstmConfig tiny() {
  CnnLstmConfig c;
  c.feature_dim = 16;
  c.window_count = 8;
  c.conv1_channels = 2;
  c.conv2_channels = 3;
  c.lstm_hidden = 6;
  c.dropout = 0.0;
  return c;
}

// Each case prints as its architecture's name. A bare factory pointer would
// print as its address, which changes with every build and, under ASLR,
// every run, and that printed value is what names the case in ctest.
struct Variant {
  const char* name;
  ModelFactory build;
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

class VariantSweep : public ::testing::TestWithParam<Variant> {};

TEST_P(VariantSweep, ForwardShapeIsLogits) {
  Rng rng(1);
  auto model = GetParam().build(tiny(), rng);
  Rng xr(2);
  Tensor x({3, 1, 16, 8});
  x.fill_normal(xr, 0.0f, 1.0f);
  model->set_training(false);
  const Tensor y = model->forward(x);
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.extent(0), 3u);
  EXPECT_EQ(y.extent(1), 2u);
}

TEST_P(VariantSweep, TrainsOnSeparableTask) {
  Rng data_rng(3);
  std::vector<Tensor> maps;
  MapDataset data;
  for (std::size_t i = 0; i < 24; ++i) {
    Tensor m({16, 8});
    for (std::size_t r = 0; r < 16; ++r)
      for (std::size_t c = 0; c < 8; ++c)
        m.at2(r, c) = static_cast<float>(
            data_rng.normal(i % 2 && r < 8 ? 1.5 : 0.0, 0.5));
    maps.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < maps.size(); ++i) {
    data.maps.push_back(&maps[i]);
    data.labels.push_back(i % 2);
  }
  Rng rng(4);
  auto model = GetParam().build(tiny(), rng);
  TrainConfig tc;
  tc.epochs = 14;
  tc.batch_size = 8;
  tc.lr = 2e-3;
  tc.keep_best = false;
  const TrainHistory h = train_classifier(*model, data, tc);
  EXPECT_LT(h.train_loss.back(), h.train_loss.front());
  EXPECT_GT(evaluate(*model, data).accuracy, 0.7);
}

INSTANTIATE_TEST_SUITE_P(Architectures, VariantSweep,
                         ::testing::Values(Variant{"CnnLstm", &build_cnn_lstm},
                                           Variant{"CnnOnly", &build_cnn_only},
                                           Variant{"LstmOnly",
                                                   &build_lstm_only}));

TEST(ModelVariants, ParameterCountsDiffer) {
  Rng r1(1), r2(2), r3(3);
  auto a = build_cnn_lstm(tiny(), r1);
  auto b = build_cnn_only(tiny(), r2);
  auto c = build_lstm_only(tiny(), r3);
  EXPECT_NE(a->parameter_count(), b->parameter_count());
  EXPECT_NE(a->parameter_count(), c->parameter_count());
  // LSTM-only has no conv parameters: fewer layers.
  EXPECT_LT(c->size(), a->size());
}

TEST(ModelVariants, CnnLstmFineTuneBoundarySplitsConvFromHead) {
  Rng rng(5);
  auto model = build_cnn_lstm(tiny(), rng);
  model->freeze_below(fine_tune_boundary());
  std::size_t frozen = 0;
  std::size_t live = 0;
  for (Param* p : model->parameters()) (p->frozen ? frozen : live) += 1;
  EXPECT_EQ(frozen, 4u);  // Two convs (weight+bias each).
  EXPECT_EQ(live, 5u);    // LSTM (3) + dense (2).
}

}  // namespace
}  // namespace clear::nn
