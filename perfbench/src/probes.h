#pragma once
// probes.h — the traced run's per-layer measurements. Each one times calls
// into a layer's public functions from outside the library (nothing is
// traced inside src/) or reads the counters and histograms the program
// already exports.

#include <string>

#include "common.h"
#include "vit/sc_inference.h"

namespace perfbench {

/// The SC configuration the sc-lut variant serves: the one `serve_sc_vit`
/// uses (softmax m follows the model's token count).
ascend::vit::ScInferenceConfig serving_sc_config();

/// nn kernels (GEMM at the vit-mixed qkv/fc1 shapes and a peak shape, the
/// packed-ternary matmul) and tf_cache reads (SC softmax row, GELU element).
void kernel_probes(Outcome& out);

/// The DSE sweep at 1 thread and at the default thread count, with the
/// tf_cache build share, sc emulator and hw cost-model rates.
Outcome trace_dse(const Args& args);

/// One serving workload's compact traced and untraced phases, with registry
/// deltas per phase, cold-start times, vit span self times (vit-mixed) and
/// the tracing overhead.
Outcome trace_serving(const Args& args, const std::string& workload);

}  // namespace perfbench
