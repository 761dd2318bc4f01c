#include "probes.h"

#include <functional>
#include <vector>

#include "nn/gemm.h"
#include "nn/ops.h"
#include "nn/quant.h"
#include "nn/rng.h"
#include "runtime/tf_cache.h"
#include "sc/softmax_iter.h"

namespace perfbench {

namespace {

using namespace ascend;

/// Median seconds per call of `fn`, over `reps` timed batches of `calls`.
double seconds_per_call(const std::function<void()>& fn, int calls, int reps = 7) {
  fn();  // warm caches, lazy tables, thread pools
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(seconds_between(t0, Clock::now()) / calls);
  }
  return median(per_call);
}

/// Receives the GELU lookups so the compiler cannot drop them.
volatile double g_sink = 0;

nn::Tensor random_tensor(int rows, int cols, std::uint64_t seed) {
  nn::Rng rng(seed);
  nn::Tensor t({rows, cols});
  rng.fill_normal(t, 0.0f, 1.0f);
  return t;
}

}  // namespace

void kernel_probes(Outcome& out) {
  // Dense GEMM through nn::matmul — the wrapper Linear::infer uses, with the
  // shipped threading heuristic — at the vit-mixed model's shapes: a batch of
  // 16 images x 64 tokens against the qkv (64 -> 192) and fc1 (64 -> 128)
  // weights.
  {
    const nn::Tensor x = random_tensor(16 * 64, 64, 11);
    const nn::Tensor w_qkv = random_tensor(64, 192, 12);
    const nn::Tensor w_fc1 = random_tensor(64, 128, 13);
    const double s = seconds_per_call(
        [&] {
          nn::matmul(x, w_qkv);
          nn::matmul(x, w_fc1);
        },
        50);
    const double flops = 2.0 * 1024 * 64 * (192 + 128);
    out.add("nn.gemm_gflops", flops / s / 1e9, "GFLOP/s");
  }
  {
    const nn::Tensor a = random_tensor(512, 512, 14);
    const nn::Tensor b = random_tensor(512, 512, 15);
    const double s = seconds_per_call([&] { nn::matmul(a, b); }, 5);
    out.add("nn.gemm_peak_gflops", 2.0 * 512 * 512 * 512 / s / 1e9, "GFLOP/s");
  }
  // Packed-ternary W2A2 matmul at the qkv shape, counted as the 2*M*N*K
  // operations the dense product would take.
  {
    const nn::Tensor w = random_tensor(64, 192, 16);
    nn::LsqQuantizer wq(nn::QuantSpec::ternary());
    wq.forward(w);  // initialises the LSQ step from the weights
    const nn::PackedTernary& packed = wq.frozen_packed_ternary(w);
    if (packed.rows != 64 || packed.cols != 192) out.fail("ternary probe: unexpected packing");
    const nn::Tensor x = random_tensor(1024, 64, 17);
    std::vector<float> y(1024 * 192);
    const double s = seconds_per_call(
        [&] {
          std::fill(y.begin(), y.end(), 0.0f);
          nn::gemm::ternary_matmul_ternary_x(x.data(), 1024, 64, 0.5f, packed, y.data(), 192);
        },
        50);
    out.add("nn.ternary_gops", 2.0 * 1024 * 64 * 192 / s / 1e9, "GOP/s");
  }

  // tf_cache reads: the vit-mixed SC softmax (m = 64) per attention row, and
  // the GELU LUT per element, exactly as the sc-lut servable looks them up.
  {
    const vit::ScInferenceConfig sc_cfg = serving_sc_config();
    sc::SoftmaxIterConfig cfg = sc_cfg.softmax;
    cfg.m = 64;
    runtime::TfCache cache;
    const runtime::SoftmaxLut& lut = cache.softmax(cfg);
    const std::vector<std::vector<double>> rows = sc::sample_attention_logits(64, 64, 21);
    std::vector<double> y(64);
    for (int r = 0; r < 4; ++r) {
      lut(rows[static_cast<std::size_t>(r)].data(), y.data());
      if (y != sc::softmax_iterative_sc(rows[static_cast<std::size_t>(r)], cfg))
        out.fail("tf_cache probe: SoftmaxLut disagrees with the circuit emulator");
    }
    ++out.attempted;
    const double s = seconds_per_call(
        [&] {
          for (const std::vector<double>& row : rows) lut(row.data(), y.data());
        },
        20);
    out.add("tf_cache.softmax_row_us", 1e6 * s / static_cast<double>(rows.size()), "us");

    const runtime::GateSiLut& gelu =
        cache.gelu(sc_cfg.gelu_bsl, -sc_cfg.gelu_range, sc_cfg.gelu_range, 16);
    std::vector<double> xs(4096);
    for (std::size_t i = 0; i < xs.size(); ++i)
      xs[i] = -5.0 + 10.0 * static_cast<double>(i) / static_cast<double>(xs.size());
    const double g = seconds_per_call(
        [&] {
          double sum = 0;
          for (const double v : xs) sum += gelu(v);
          g_sink = sum;
        },
        50);
    out.add("tf_cache.gelu_ns", 1e9 * g / static_cast<double>(xs.size()), "ns");
  }
}

}  // namespace perfbench
