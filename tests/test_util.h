#pragma once
// test_util.h — shared helpers for the ASCEND test suite.

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.h"
#include "runtime/registry.h"
#include "sc/gate_si.h"
#include "sc/softmax_iter.h"
#include "vit/model.h"
#include "vit/sc_inference.h"
#include "vit/servable.h"

namespace ascend::testing {

/// Central-difference numerical gradient of a scalar function of a tensor,
/// compared element-by-element against `analytic`. Returns the max abs error.
inline double max_grad_error(nn::Tensor& x, const std::function<double()>& loss_fn,
                             const nn::Tensor& analytic, float eps = 1e-3f) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_fn();
    x[i] = orig - eps;
    const double lm = loss_fn();
    x[i] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    worst = std::max(worst, std::fabs(num - static_cast<double>(analytic[i])));
  }
  return worst;
}

/// Installs the SC softmax and GELU hooks of `cfg` (both must be enabled),
/// built directly on the circuit emulators with no LUT cache and no worker
/// pool, on `model` — the reference every serving SC path must match bit
/// for bit. Undo with model.clear_hooks().
inline void install_circuit_hooks(vit::VisionTransformer& model,
                                  const vit::ScInferenceConfig& cfg) {
  sc::SoftmaxIterConfig sm = cfg.softmax;
  sm.m = model.config().tokens();
  model.set_softmax_hook([sm](const nn::Tensor& scores) {
    nn::Tensor out({scores.dim(0), scores.dim(1)});
    std::vector<double> row(static_cast<std::size_t>(scores.dim(1)));
    for (int r = 0; r < scores.dim(0); ++r) {
      for (int c = 0; c < scores.dim(1); ++c) row[static_cast<std::size_t>(c)] = scores.at(r, c);
      const auto y = sc::softmax_iterative_sc(row, sm);
      for (int c = 0; c < scores.dim(1); ++c)
        out.at(r, c) = static_cast<float>(y[static_cast<std::size_t>(c)]);
    }
    return out;
  });
  auto block = std::make_shared<sc::GateAssistedSI>(
      sc::make_gelu_block(cfg.gelu_bsl, -cfg.gelu_range, cfg.gelu_range, 16));
  model.set_gelu_hook([block](const nn::Tensor& x) {
    nn::Tensor y(x.shape());
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = static_cast<float>(block->transfer(x[i]));
    return y;
  });
}

/// A registry holding one SC servable (variant "sc") cloned from `model`,
/// its per-activation work on a pool of `sc_threads` workers.
inline std::shared_ptr<runtime::ModelRegistry> sc_registry(vit::VisionTransformer& model,
                                                           const vit::ScInferenceConfig& cfg,
                                                           int sc_threads) {
  vit::ScServableOptions sopts;
  sopts.threads = sc_threads;
  auto reg = std::make_shared<runtime::ModelRegistry>();
  reg->publish(vit::make_sc_servable(model, cfg, sopts, "sc"));
  return reg;
}

}  // namespace ascend::testing
