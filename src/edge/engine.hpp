// Edge inference engine: owns a deployed model and emulates the numeric
// behaviour of the target device.
//
//   kFp32 — reference execution (the paper's "GPU baseline").
//   kFp16 — weights and inter-layer activations rounded through IEEE half
//           (Raspberry Pi + Intel NCS2).
//   kInt8 — weights quantized per-tensor symmetric; activations fake-
//           quantized between layers with scales calibrated offline on the
//           cluster's training maps (Coral Edge TPU).
//
// Fake quantization here is bit-compatible with the integer kernels in
// qkernels.hpp (verified by tests); it lets the same layer graph serve all
// three precisions.
#pragma once

#include <memory>

#include "edge/quantize.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"

namespace clear::edge {

enum class Precision { kFp32, kFp16, kInt8 };

const char* precision_name(Precision p);

struct EngineConfig {
  Precision precision = Precision::kFp32;
  /// Percentile for activation calibration (int8). Max-abs when == 100.
  double act_percentile = 99.5;
};

class EdgeEngine {
 public:
  /// Take ownership of a trained model and apply the weight-side precision
  /// transform. For int8, calibrate() (or set_activation_params()) must be
  /// called before inference.
  EdgeEngine(std::unique_ptr<nn::Sequential> model, EngineConfig config);

  /// Calibrate per-layer activation scales by running representative maps
  /// (each [F, W]) through the network. Required for int8; a no-op
  /// otherwise.
  void calibrate(const std::vector<const Tensor*>& maps);

  /// Install activation scales that calibrate() produced earlier for these
  /// same weights and maps, instead of calibrating again (calibration is a
  /// pure function of both). int8 only; one scale per stage, as
  /// activation_params() lays them out.
  void set_activation_params(std::vector<QuantParams> params);

  /// Precision-emulated forward pass over a [N, 1, F, W] batch.
  Tensor forward(const Tensor& batch);

  std::vector<std::size_t> predict(const nn::MapDataset& data,
                                   std::size_t batch_size = 32);
  nn::BinaryMetrics evaluate(const nn::MapDataset& data,
                             std::size_t batch_size = 32);

  /// Re-apply the weight-side precision transform (after fine-tuning).
  void requantize_weights();

  /// Bytes this engine actually occupies resident: parameter values +
  /// gradients plus the activation calibration table. This — not the size
  /// of whatever on-disk encoding the engine was built from — is what a
  /// byte-budgeted cache must charge (a delta-stored checkpoint is small on
  /// disk but reconstructs to a full-size model in memory).
  std::size_t resident_bytes();

  nn::Sequential& model() { return *model_; }
  Precision precision() const { return config_.precision; }
  bool calibrated() const { return !act_params_.empty(); }
  const std::vector<QuantParams>& activation_params() const {
    return act_params_;
  }

 private:
  void apply_weight_transform();

  std::unique_ptr<nn::Sequential> model_;
  EngineConfig config_;
  /// Activation quant params: index 0 = input, i+1 = output of layer i.
  std::vector<QuantParams> act_params_;
};

}  // namespace clear::edge
