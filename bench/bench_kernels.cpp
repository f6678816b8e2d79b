// Micro-benchmarks (google-benchmark): the op-level kernels behind the
// tables — fp32 GEMM vs int8 GEMM, conv/LSTM forward+backward, end-to-end
// CNN-LSTM inference at each precision, and the 123-feature extraction.
//
// The binary first prints a thread-count sweep (1/2/4/hardware) for the two
// parallelized hot kernels — fp32 GEMM and k-means — with speedups relative
// to 1 thread, then runs the google-benchmark suite (pass --benchmark_filter
// etc. as usual).
//
// `bench_kernels --json[=FILE]` switches to the machine-readable kernel-ISA
// sweep instead: every supported SIMD kernel table (scalar / avx2 / neon)
// is timed single-threaded at the CLEAR layer shapes (the exact GEMMs the
// CNN-LSTM issues per forward, plus the int8 / fp16 / elementwise edge
// paths) in rounds that interleave every cell and ISA across the whole
// sweep. Each speedup is the median of the per-round ratios to the scalar
// oracle, and every sample's output is checked bit-identical to scalar's.
// The JSON feeds tools/bench_regress.py (ctest `bench_regress`), which
// gates the committed BENCH_kernels.json baseline against silent kernel
// regressions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/kmeans.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "edge/engine.hpp"
#include "edge/qkernels.hpp"
#include "features/feature_map.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "wemac/synth.hpp"

namespace {

using namespace clear;

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_normal(rng, 0.0f, 1.0f);
  return t;
}

void BM_MatmulF32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatmulF32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmInt8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor af = random_tensor({n, n}, 3);
  const Tensor bf = random_tensor({n, n}, 4);
  const auto qa = edge::quantize_tensor(af, edge::calibrate_max_abs(af.flat()));
  const auto qb = edge::quantize_tensor(bf, edge::calibrate_max_abs(bf.flat()));
  std::vector<std::int32_t> acc(n * n);
  for (auto _ : state) {
    edge::int8_gemm(qa, qb, n, n, n, acc);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_GemmInt8)->Arg(64)->Arg(128)->Arg(256);

void BM_QuantizedConv(benchmark::State& state) {
  // The paper model's second conv layer (12 channels over 6) in int8.
  Rng rng(21);
  Tensor w({12, 6 * 3 * 3});
  w.fill_normal(rng, 0.0f, 0.3f);
  Tensor bias({12});
  bias.fill_normal(rng, 0.0f, 0.1f);
  const edge::QuantizedConv2d conv(w, bias, 6, 3, 3, 1, 1);
  Tensor x({1, 6, 61, 6});
  x.fill_normal(rng, 0.0f, 1.0f);
  const edge::QuantParams act = edge::calibrate_max_abs(x.flat());
  for (auto _ : state) {
    Tensor y = conv.forward(x, act);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_QuantizedConv);

nn::CnnLstmConfig bench_model_config() {
  nn::CnnLstmConfig c;
  c.feature_dim = 123;
  c.window_count = 12;
  c.conv1_channels = 6;
  c.conv2_channels = 12;
  c.lstm_hidden = 32;
  c.dropout = 0.0;
  return c;
}

void BM_CnnLstmForward(benchmark::State& state) {
  Rng rng(5);
  auto model = nn::build_cnn_lstm(bench_model_config(), rng);
  model->set_training(false);
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const Tensor batch = random_tensor({batch_size, 1, 123, 12}, 6);
  for (auto _ : state) {
    Tensor out = model->forward(batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_CnnLstmForward)->Arg(1)->Arg(16);

void BM_CnnLstmTrainStep(benchmark::State& state) {
  Rng rng(7);
  auto model = nn::build_cnn_lstm(bench_model_config(), rng);
  model->set_training(true);
  const Tensor batch = random_tensor({16, 1, 123, 12}, 8);
  std::vector<std::size_t> labels(16);
  for (std::size_t i = 0; i < 16; ++i) labels[i] = i % 2;
  for (auto _ : state) {
    const Tensor logits = model->forward(batch);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    const Tensor grad = model->backward(loss.grad_logits);
    benchmark::DoNotOptimize(grad.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_CnnLstmTrainStep);

void BM_EdgeInference(benchmark::State& state) {
  const auto precision = static_cast<edge::Precision>(state.range(0));
  Rng rng(9);
  auto model = nn::build_cnn_lstm(bench_model_config(), rng);
  edge::EngineConfig ec;
  ec.precision = precision;
  edge::EdgeEngine engine(std::move(model), ec);
  std::vector<Tensor> calib;
  for (std::uint64_t i = 0; i < 8; ++i)
    calib.push_back(random_tensor({123, 12}, 10 + i));
  std::vector<const Tensor*> calib_ptrs;
  for (const Tensor& t : calib) calib_ptrs.push_back(&t);
  engine.calibrate(calib_ptrs);
  const Tensor batch = random_tensor({1, 1, 123, 12}, 20);
  for (auto _ : state) {
    Tensor out = engine.forward(batch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EdgeInference)
    ->Arg(static_cast<int>(edge::Precision::kFp32))
    ->Arg(static_cast<int>(edge::Precision::kFp16))
    ->Arg(static_cast<int>(edge::Precision::kInt8));

void BM_FeatureExtraction(benchmark::State& state) {
  // One 10 s multi-modal window -> 123 features.
  Rng prof_rng(11);
  const wemac::VolunteerProfile profile = wemac::sample_profile(
      wemac::default_archetypes()[0], 0, 0, prof_rng);
  wemac::Stimulus stim;
  stim.emotion = wemac::Emotion::kFear;
  stim.duration_s = 10.0;
  Rng trial_rng(12);
  const wemac::TrialSignals trial =
      wemac::synthesize_trial(profile, stim, {}, trial_rng);
  const auto windows = wemac::slice_windows(trial, 10.0);
  for (auto _ : state) {
    auto f = features::extract_window_features(windows[0]);
    benchmark::DoNotOptimize(f.data());
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_TrialSynthesis(benchmark::State& state) {
  Rng prof_rng(13);
  const wemac::VolunteerProfile profile = wemac::sample_profile(
      wemac::default_archetypes()[1], 0, 1, prof_rng);
  wemac::Stimulus stim;
  stim.emotion = wemac::Emotion::kJoy;
  stim.duration_s = 120.0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    auto t = wemac::synthesize_trial(profile, stim, {}, rng);
    benchmark::DoNotOptimize(t.bvp.data());
  }
}
BENCHMARK(BM_TrialSynthesis);

void BM_Fp16RoundTrip(benchmark::State& state) {
  Tensor t = random_tensor({123, 12}, 14);
  for (auto _ : state) {
    Tensor copy = t;
    edge::fp16_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_Fp16RoundTrip);

void BM_FakeQuantize(benchmark::State& state) {
  Tensor t = random_tensor({123, 12}, 15);
  const edge::QuantParams p = edge::calibrate_max_abs(t.flat());
  for (auto _ : state) {
    Tensor copy = t;
    edge::fake_quantize_inplace(copy, p);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_FakeQuantize);

void BM_MatmulF32Threads(benchmark::State& state) {
  const NumThreadsGuard guard(static_cast<std::size_t>(state.range(1)));
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = random_tensor({n, n}, 1);
  const Tensor b = random_tensor({n, n}, 2);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatmulF32Threads)->Apply([](benchmark::internal::Benchmark* b) {
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              hardware_threads()})
    b->Args({256, static_cast<std::int64_t>(t)});
});

void BM_KMeansThreads(benchmark::State& state) {
  const NumThreadsGuard guard(static_cast<std::size_t>(state.range(0)));
  Rng data_rng(31);
  std::vector<cluster::Point> points;
  for (std::size_t i = 0; i < 2000; ++i) {
    cluster::Point p(16);
    const double center = static_cast<double>(i % 8) * 4.0;
    for (double& v : p) v = center + data_rng.normal(0.0, 1.0);
    points.push_back(std::move(p));
  }
  for (auto _ : state) {
    Rng rng(7);
    const cluster::KMeansResult r = cluster::kmeans(points, 8, rng);
    benchmark::DoNotOptimize(r.inertia);
  }
}
BENCHMARK(BM_KMeansThreads)->Apply([](benchmark::internal::Benchmark* b) {
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              hardware_threads()})
    b->Args({static_cast<std::int64_t>(t)});
});

// ---------------------------------------------------------------------------
// Thread-count sweep printed before the google-benchmark suite: wall-clock
// and speedup vs 1 thread for the two parallel kernels. Results are
// bit-identical at every row (checked for k-means inertia here; the full
// guarantee is covered by test_parallel_determinism).

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

void print_thread_sweep() {
  std::vector<std::size_t> counts = {1, 2, 4, hardware_threads()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  const Tensor a = random_tensor({384, 384}, 1);
  const Tensor b = random_tensor({384, 384}, 2);
  Rng data_rng(31);
  std::vector<cluster::Point> points;
  for (std::size_t i = 0; i < 2000; ++i) {
    cluster::Point p(16);
    const double center = static_cast<double>(i % 8) * 4.0;
    for (double& v : p) v = center + data_rng.normal(0.0, 1.0);
    points.push_back(std::move(p));
  }

  std::printf("thread sweep (best of 5, ms; speedup vs 1 thread)\n");
  std::printf("%8s %14s %14s\n", "threads", "gemm 384^3", "kmeans 2000x16");
  double gemm_base = 0.0;
  double km_base = 0.0;
  double km_inertia_base = 0.0;
  for (const std::size_t t : counts) {
    const NumThreadsGuard guard(t);
    const double gemm_ms = time_best_of(5, [&] {
      Tensor c = ops::matmul(a, b);
      benchmark::DoNotOptimize(c.data());
    });
    double inertia = 0.0;
    const double km_ms = time_best_of(5, [&] {
      Rng rng(7);
      inertia = cluster::kmeans(points, 8, rng).inertia;
    });
    if (t == 1) {
      gemm_base = gemm_ms;
      km_base = km_ms;
      km_inertia_base = inertia;
    } else if (inertia != km_inertia_base) {
      std::printf("WARNING: k-means inertia drifted at %zu threads\n", t);
    }
    std::printf("%8zu %9.2f %4.2fx %9.2f %4.2fx\n", t, gemm_ms,
                gemm_base / gemm_ms, km_ms, km_base / km_ms);
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Kernel-ISA sweep (--json mode): single-threaded speedup over the scalar
// oracle of every supported SIMD kernel table at the CLEAR layer shapes,
// emitted as JSON for the bench-regression gate. The shapes are the GEMMs
// the CNN-LSTM actually issues (DESIGN.md §6): conv im2col products at
// F=123, W=12, the LSTM gate matmuls at batch 16, and a 256^3 square as a
// cache-resident reference point. bench_regress.py compares *speedups vs
// scalar* — a same-host, same-run ratio — so the committed baseline stays
// meaningful across machines of different absolute speed.
//
// On a shared host the scalar/vector ratio itself drifts with host state
// over seconds, so no cell is timed in one slot. The sweep runs kRounds
// rounds; each round times one sample of every cell on every ISA, a cell's
// ISAs back to back in an order that alternates between rounds, and every
// sample follows one untimed call so it starts warm. A cell's speedup is
// the median of its per-round scalar/vector ratios, which spans the whole
// sweep (7–11 s on a shared 4-core VM). The number of samples is fixed in
// advance.

struct GemmShape {
  const char* name;
  std::size_t m, k, n;
};

// conv shapes: weight [out_ch, in_ch*3*3] x im2col cols [.., oh*ow] for the
// paper model on [1, 123, 12] maps; lstm shapes: [batch, in] x [in, 4H].
constexpr GemmShape kF32Shapes[] = {
    {"conv1", 6, 9, 123 * 12},   // Conv2d(1->6, 3x3, pad 1): [6,9]x[9,1476]
    {"conv2", 12, 54, 61 * 6},   // Conv2d(6->12, 3x3, pad 1): [12,54]x[54,366]
    {"lstm_x", 16, 360, 128},    // x_t * Wx at batch 16: [16,360]x[360,128]
    {"lstm_h", 16, 32, 128},     // h_{t-1} * Wh: [16,32]x[32,128]
    {"square256", 256, 256, 256},
};
constexpr GemmShape kI8Shapes[] = {
    {"conv2", 12, 54, 61 * 6},  // The quantized conv path at the same shape.
    {"square256", 256, 256, 256},
};
constexpr std::size_t kElemN = 123 * 12;  ///< One feature map, flattened.

constexpr int kRounds = 250;
/// A GEMM sample repeats its call up to about this many flops, so the small
/// layer shapes are timed over tens of µs rather than one call.
constexpr double kSampleFlops = 4e6;
/// Elementwise calls per sample (~50 µs for an AVX2 sample).
constexpr int kElemCalls = 200;

/// One kernel at one shape. `call(kt)` runs it once with table `kt` on the
/// cell's own buffers (which the closure keeps alive) and leaves its result
/// in `out`; a timed sample is `calls` such calls.
struct Cell {
  std::string bench;  ///< e.g. "gemm_f32.conv1"
  std::size_t m, k, n;
  double flops;  ///< Per call, 2*m*k*n; 0 for the elementwise cells.
  int calls;
  std::function<void(const kernels::KernelTable&)> call;
  std::span<const std::byte> out;
};

Cell gemm_cell(const char* kind, const GemmShape& s,
               std::function<void(const kernels::KernelTable&)> call,
               std::span<const std::byte> out) {
  const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
  const int calls = std::max(1, static_cast<int>(kSampleFlops / flops));
  return {std::string(kind) + s.name, s.m, s.k, s.n, flops, calls,
          std::move(call), out};
}

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;

  // fp32 GEMM (with the fused per-col bias + relu epilogue, the densest
  // form the nn layer issues) at each CLEAR shape. gemm_f32 accumulates
  // into C, so each call starts from zero.
  for (const GemmShape& s : kF32Shapes) {
    struct Buffers {
      Tensor a, b, bias;
      std::vector<float> c;
    };
    auto buf = std::make_shared<Buffers>(
        Buffers{random_tensor({s.m, s.k}, 101), random_tensor({s.k, s.n}, 102),
                random_tensor({s.n}, 103), std::vector<float>(s.m * s.n)});
    cells.push_back(gemm_cell(
        "gemm_f32.", s,
        [buf, s](const kernels::KernelTable& kt) {
          const kernels::Epilogue ep{kernels::BiasMode::kPerCol,
                                     buf->bias.data(),
                                     kernels::Activation::kRelu};
          std::memset(buf->c.data(), 0, buf->c.size() * sizeof(float));
          kt.gemm_f32(buf->a.data(), buf->b.data(), buf->c.data(), s.m, s.k,
                      s.n, &ep);
        },
        std::as_bytes(std::span(buf->c))));
  }

  // int8 GEMM (exact integer accumulation).
  for (const GemmShape& s : kI8Shapes) {
    struct Buffers {
      std::vector<std::int8_t> a, b;
      std::vector<std::int32_t> c;
    };
    auto buf = std::make_shared<Buffers>(
        Buffers{std::vector<std::int8_t>(s.m * s.k),
                std::vector<std::int8_t>(s.k * s.n),
                std::vector<std::int32_t>(s.m * s.n)});
    Rng rng(104);
    for (std::int8_t& v : buf->a)
      v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (std::int8_t& v : buf->b)
      v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    cells.push_back(gemm_cell(
        "gemm_i8.", s,
        [buf, s](const kernels::KernelTable& kt) {
          kt.gemm_i8(buf->a.data(), buf->b.data(), buf->c.data(), s.m, s.k,
                     s.n);
        },
        std::as_bytes(std::span(buf->c))));
  }

  // Edge numeric transforms + the widest elementwise op, one feature map
  // per call (what the fp16/int8 engine paths do per forward). Each call
  // first restores the input, since the kernels work in place.
  using ElemFn = void (*)(const kernels::KernelTable&, float*, std::size_t);
  const std::pair<const char*, ElemFn> elems[] = {
      {"fp16_round",
       [](const kernels::KernelTable& kt, float* x, std::size_t n) {
         kt.fp16_round_f32(x, n);
       }},
      {"fake_quant",
       [](const kernels::KernelTable& kt, float* x, std::size_t n) {
         kt.fake_quant_f32(x, 0.05f, n);
       }},
      {"axpy",
       [](const kernels::KernelTable& kt, float* x, std::size_t n) {
         kt.axpy_f32(x, 0.5f, x, n);
       }},
  };
  for (const auto& [name, fn] : elems) {
    struct Buffers {
      Tensor src;
      std::vector<float> x;
    };
    auto buf = std::make_shared<Buffers>(
        Buffers{random_tensor({kElemN}, 105), std::vector<float>(kElemN)});
    cells.push_back({std::string("elem.") + name, 1, 1, kElemN, 0.0,
                     kElemCalls,
                     [buf, fn](const kernels::KernelTable& kt) {
                       std::memcpy(buf->x.data(), buf->src.data(),
                                   kElemN * sizeof(float));
                       fn(kt, buf->x.data(), kElemN);
                     },
                     std::as_bytes(std::span(buf->x))});
  }
  return cells;
}

/// One untimed call, then one timed sample; milliseconds per call.
double sample_ms(const Cell& cell, const kernels::KernelTable& kt) {
  cell.call(kt);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < cell.calls; ++i) cell.call(kt);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() /
         cell.calls;
}

double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2.0;
}

struct SweepRow {
  std::string bench;   ///< e.g. "gemm_f32.conv1"
  std::string isa;     ///< "scalar" / "avx2" / "neon"
  std::size_t m, k, n;
  double ms;       ///< Median per-call time over the rounds.
  double gflops;   ///< 2*m*k*n based; 0 for the elementwise rows.
  double speedup;  ///< Median per-round scalar/this ratio (1 for scalar).
};

void json_escape_free_sweep(std::FILE* out, const std::vector<SweepRow>& rows,
                            bool bit_identical) {
  // Names are compile-time identifiers (no escaping needed).
  std::fprintf(out, "{\n  \"schema\": \"clear-bench-kernels-v1\",\n");
  std::fprintf(out, "  \"default_isa\": \"%s\",\n",
               kernels::isa_name(kernels::detect_best()));
  std::fprintf(out, "  \"isas\": [");
  const std::vector<kernels::Isa> isas = kernels::supported_isas();
  for (std::size_t i = 0; i < isas.size(); ++i)
    std::fprintf(out, "%s\"%s\"", i ? ", " : "", kernels::isa_name(isas[i]));
  std::fprintf(out, "],\n  \"rounds\": %d,\n", kRounds);
  std::fprintf(out, "  \"bit_identical\": %s,\n",
               bit_identical ? "true" : "false");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(out,
                 "    {\"bench\": \"%s\", \"isa\": \"%s\", \"m\": %zu, "
                 "\"k\": %zu, \"n\": %zu, \"ms\": %.6f, \"gflops\": %.4f}%s\n",
                 r.bench.c_str(), r.isa.c_str(), r.m, r.k, r.n, r.ms,
                 r.gflops, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"speedups\": {\n");
  // speedups[bench][isa] for every non-scalar ISA. Rows are grouped by
  // bench, scalar first.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    if (r.isa == "scalar")
      std::fprintf(out, "    \"%s\": {", r.bench.c_str());
    else
      std::fprintf(out, "%s\"%s\": %.4f",
                   rows[i - 1].isa == "scalar" ? "" : ", ", r.isa.c_str(),
                   r.speedup);
    if (i + 1 == rows.size() || rows[i + 1].bench != r.bench)
      std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
}

int run_kernel_sweep(const std::string& json_path) {
  const std::vector<kernels::Isa> isas = kernels::supported_isas();
  const std::vector<Cell> cells = make_cells();
  const auto started = std::chrono::steady_clock::now();

  // The scalar output of each cell is the reference every sample on every
  // ISA must reproduce bit for bit.
  std::vector<std::vector<std::byte>> ref;
  for (const Cell& c : cells) {
    c.call(kernels::table(kernels::Isa::kScalar));
    ref.emplace_back(c.out.begin(), c.out.end());
  }

  // ms[cell][isa][round], per call; isas[0] is scalar.
  std::vector<std::vector<std::vector<double>>> ms(
      cells.size(), std::vector<std::vector<double>>(isas.size()));
  bool bit_identical = true;
  for (int round = 0; round < kRounds; ++round)
    for (std::size_t ci = 0; ci < cells.size(); ++ci)
      for (std::size_t j = 0; j < isas.size(); ++j) {
        const std::size_t i = round % 2 == 0 ? j : isas.size() - 1 - j;
        ms[ci][i].push_back(sample_ms(cells[ci], kernels::table(isas[i])));
        if (!std::ranges::equal(cells[ci].out, ref[ci])) bit_identical = false;
      }

  std::vector<SweepRow> rows;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const Cell& c = cells[ci];
    for (std::size_t i = 0; i < isas.size(); ++i) {
      std::vector<double> ratios(kRounds);
      for (int r = 0; r < kRounds; ++r) ratios[r] = ms[ci][0][r] / ms[ci][i][r];
      const double t = median(ms[ci][i]);
      rows.push_back({c.bench, kernels::isa_name(isas[i]), c.m, c.k, c.n, t,
                      c.flops / (t * 1e6), median(std::move(ratios))});
    }
  }

  std::FILE* out = stdout;
  if (!json_path.empty()) {
    out = std::fopen(json_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
  }
  json_escape_free_sweep(out, rows, bit_identical);
  if (out != stdout) std::fclose(out);

  // Human-readable recap on stderr so the JSON stream stays clean.
  for (const SweepRow& r : rows)
    if (r.isa != "scalar")
      std::fprintf(stderr, "%-20s %-6s %8.4f ms  %5.2fx vs scalar\n",
                   r.bench.c_str(), r.isa.c_str(), r.ms, r.speedup);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - started;
  std::fprintf(stderr, "%d rounds in %.1f s\n", kRounds, took.count());
  if (!bit_identical) {
    std::fprintf(stderr,
                 "ERROR: kernel outputs diverged across ISAs (see "
                 "test_kernel_equivalence)\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --json[=FILE]: machine-readable kernel-ISA sweep only (no
  // google-benchmark suite). Handled before benchmark::Initialize, which
  // would reject the flag.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") return run_kernel_sweep("");
    if (arg.rfind("--json=", 0) == 0) return run_kernel_sweep(arg.substr(7));
  }
  print_thread_sweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
