// perfbench — one workload run of the ASCEND end-to-end benchmark.
//
//   perfbench --workload <frontdoor-small|vit-mixed|dse-sweep> --seed N
//             --seconds S --trace <0|1> --workdir DIR
//
// Untraced (--trace 0): runs the workload and reports every end-to-end
// metric. Traced (--trace 1): profiles every layer — the two serving
// workloads in compact traced and untraced phases, the DSE sweep and the
// kernel probes — and reports every per-layer metric, whichever workload is
// named. Both print a host fingerprint line, one line per metric, and as the
// last line the JSON result; the exit code is nonzero when any correctness,
// accounting or load-generator check failed. perfbench/run.py builds this
// binary and is the command to run.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "probes.h"

namespace {

/// Every layer, whichever workload was named: BENCHMARK.json declares one
/// per-layer metric set for all traced runs.
perfbench::Outcome run_traced(const perfbench::Args& args) {
  perfbench::Outcome out;
  perfbench::kernel_probes(out);
  out.merge(perfbench::trace_dse(args));
  out.merge(perfbench::trace_serving(args, "frontdoor-small"));
  out.merge(perfbench::trace_serving(args, "vit-mixed"));
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <frontdoor-small|vit-mixed|dse-sweep> --seed N "
               "--seconds S --trace <0|1> --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload")
      args.workload = v;
    else if (key == "--seed")
      args.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds")
      args.seconds = std::atof(v);
    else if (key == "--trace")
      args.trace = std::string(v) == "1";
    else if (key == "--workdir")
      args.workdir = v;
    else
      return usage();
  }
  const bool serving = args.workload == "frontdoor-small" || args.workload == "vit-mixed";
  if ((!serving && args.workload != "dse-sweep") || args.seconds <= 0 || args.workdir.empty())
    return usage();

  std::printf("# host %s\n", host_fingerprint_json().c_str());
  std::fflush(stdout);
  Outcome out;
  try {
    if (args.trace)
      out = run_traced(args);
    else
      out = serving ? run_serving(args) : run_dse(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  for (const Metric& m : out.metrics)
    std::printf("# %-56s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const double failed_pct =
      out.attempted ? 100.0 * static_cast<double>(out.failed) / out.attempted : 100.0;
  std::printf("# failed_pct %.6g %% (%llu of %llu attempts)\n", failed_pct,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  std::printf("%s\n", result_json(out).c_str());
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
