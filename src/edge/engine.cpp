#include "edge/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/obs.hpp"
#include "nn/lstm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace clear::edge {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kFp16: return "fp16";
    case Precision::kInt8: return "int8";
  }
  return "?";
}

EdgeEngine::EdgeEngine(std::unique_ptr<nn::Sequential> model,
                       EngineConfig config)
    : model_(std::move(model)), config_(config) {
  CLEAR_CHECK_MSG(model_ != nullptr, "null model");
  model_->set_training(false);
  apply_weight_transform();
}

void EdgeEngine::apply_weight_transform() {
  switch (config_.precision) {
    case Precision::kFp32:
      break;
    case Precision::kFp16:
      for (nn::Param* p : model_->parameters()) fp16_inplace(p->value);
      break;
    case Precision::kInt8:
      for (nn::Param* p : model_->parameters())
        fake_quantize_inplace(p->value, calibrate_max_abs(p->value.flat()));
      break;
  }
  // The recurrent state lives in the device's numeric format too: an
  // int8-only accelerator re-quantizes h/c between steps, an fp16 device
  // keeps them in half precision. The int8 scale is dynamic, taken per step
  // from each batch row's own max-abs: a device serves one window at a
  // time, so a row must answer the same alone or beside any batch-mates.
  for (std::size_t i = 0; i < model_->size(); ++i) {
    auto* lstm = dynamic_cast<nn::Lstm*>(&model_->layer(i));
    if (!lstm) continue;
    switch (config_.precision) {
      case Precision::kFp32:
        lstm->set_state_transform(nullptr);
        break;
      case Precision::kFp16:
        lstm->set_state_transform([](Tensor& t) { fp16_inplace(t); });
        break;
      case Precision::kInt8:
        lstm->set_state_transform([](Tensor& t) {
          const std::size_t cols = t.extent(1);
          for (std::size_t r = 0; r < t.extent(0); ++r) {
            float* row = t.data() + r * cols;
            kernels::active().fake_quant_f32(
                row, calibrate_max_abs({row, cols}).scale, cols);
          }
        });
        break;
    }
  }
}

void EdgeEngine::requantize_weights() { apply_weight_transform(); }

std::size_t EdgeEngine::resident_bytes() {
  std::size_t bytes = 0;
  for (const nn::Param* p : model_->parameters())
    bytes += (p->value.numel() + p->grad.numel()) * sizeof(float);
  bytes += act_params_.size() * sizeof(QuantParams);
  return bytes;
}

void EdgeEngine::calibrate(const std::vector<const Tensor*>& maps) {
  if (config_.precision != Precision::kInt8) return;
  CLEAR_CHECK_MSG(!maps.empty(), "calibration needs at least one map");
  CLEAR_OBS_SPAN("edge.calibrate");
  CLEAR_OBS_COUNT("edge.calibrations", 1);
  model_->set_training(false);
  // Collect per-stage activations over the calibration set.
  std::vector<std::vector<float>> stage_values(model_->size() + 1);
  std::vector<std::size_t> all(maps.size());
  for (std::size_t i = 0; i < maps.size(); ++i) all[i] = i;
  const Tensor batch = nn::stack_batch(maps, all);
  Tensor x = batch;
  auto collect = [&](std::size_t stage, const Tensor& t) {
    auto& dst = stage_values[stage];
    dst.insert(dst.end(), t.data(), t.data() + t.numel());
  };
  collect(0, x);
  for (std::size_t i = 0; i < model_->size(); ++i) {
    x = model_->layer(i).forward(x);
    collect(i + 1, x);
  }
  act_params_.clear();
  act_params_.reserve(stage_values.size());
  for (const auto& vals : stage_values) {
    act_params_.push_back(config_.act_percentile >= 100.0
                              ? calibrate_max_abs(vals)
                              : calibrate_percentile(vals,
                                                     config_.act_percentile));
  }
}

void EdgeEngine::set_activation_params(std::vector<QuantParams> params) {
  CLEAR_CHECK_MSG(config_.precision == Precision::kInt8,
                  "activation scales belong to int8 engines only");
  CLEAR_CHECK_MSG(params.size() == model_->size() + 1,
                  "expected " << model_->size() + 1
                              << " activation scales (one per stage), got "
                              << params.size());
  act_params_ = std::move(params);
}

namespace {

/// "edge.forward.<precision>" span names, stable for the trace viewer.
[[maybe_unused]] const char* forward_span_name(Precision p) {
  switch (p) {
    case Precision::kFp32: return "edge.forward.fp32";
    case Precision::kFp16: return "edge.forward.fp16";
    case Precision::kInt8: return "edge.forward.int8";
  }
  return "edge.forward";
}

}  // namespace

Tensor EdgeEngine::forward(const Tensor& batch) {
  CLEAR_OBS_SPAN(forward_span_name(config_.precision));
  const std::uint64_t t0 = obs::enabled() ? obs::now_us() : 0;
  model_->set_training(false);
  Tensor x = batch;
  switch (config_.precision) {
    case Precision::kFp32: {
      x = model_->forward(x);
      break;
    }
    case Precision::kFp16: {
      fp16_inplace(x);
      for (std::size_t i = 0; i < model_->size(); ++i) {
        x = model_->layer(i).forward(x);
        fp16_inplace(x);
      }
      break;
    }
    case Precision::kInt8: {
      CLEAR_CHECK_MSG(calibrated(),
                      "int8 engine used before activation calibration");
      fake_quantize_inplace(x, act_params_[0]);
      for (std::size_t i = 0; i < model_->size(); ++i) {
        x = model_->layer(i).forward(x);
        // The final logits stay float (the accelerator's last dequantize).
        if (i + 1 < model_->size())
          fake_quantize_inplace(x, act_params_[i + 1]);
      }
      break;
    }
  }
  if (obs::enabled()) {
    const std::uint64_t dur = obs::now_us() - t0;
    obs::histogram(std::string("edge.forward_us.") +
                   precision_name(config_.precision))
        .record(static_cast<double>(dur));
    obs::counter("edge.batches").add(1);
    obs::counter("edge.rows").add(batch.extent(0));
    // Which SIMD kernel table served this forward (kernels::Isa enum value;
    // 0 = scalar, 1 = avx2, 2 = neon). A gauge, since it can change mid-run
    // only via an explicit set_isa() call.
    obs::gauge("edge.kernel_isa")
        .set(static_cast<int>(kernels::active_isa()));
  }
  return x;
}

std::vector<std::size_t> EdgeEngine::predict(const nn::MapDataset& data,
                                             std::size_t batch_size) {
  std::vector<std::size_t> preds;
  preds.reserve(data.size());
  // Index and batch buffers live outside the loop; stack_batch_into reuses
  // the batch tensor's storage whenever consecutive batches share a size.
  std::vector<std::size_t> idx;
  Tensor batch;
  for (std::size_t start = 0; start < data.size(); start += batch_size) {
    const std::size_t end = std::min(data.size(), start + batch_size);
    idx.resize(end - start);
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = start + i;
    nn::stack_batch_into(data.maps, idx, batch);
    const Tensor logits = forward(batch);
    const std::vector<std::size_t> p = ops::argmax_rows(logits);
    preds.insert(preds.end(), p.begin(), p.end());
  }
  return preds;
}

nn::BinaryMetrics EdgeEngine::evaluate(const nn::MapDataset& data,
                                       std::size_t batch_size) {
  return nn::binary_metrics(predict(data, batch_size), data.labels);
}

}  // namespace clear::edge
