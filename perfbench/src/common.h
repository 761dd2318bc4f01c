#pragma once
// common.h — shared plumbing of the perfbench binaries: arguments, the metric
// report, order statistics and the host fingerprint.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for checkpoints (inside the checkout)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the metrics it measured and
/// the correctness tally. `failed` counts every lost request, typed error
/// other than kRetryAfter, wrong answer and failed invariant.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable reasons for each failed check (printed, never silent).
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why, std::uint64_t count = 1) {
    failed += count;
    errors.push_back(why);
  }
  void merge(Outcome other);
};

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Tail of a sample that one burst cannot move: the q-quantile of each run
/// of `chunk` consecutive samples (in the order given), then the median over
/// those runs. With chunk = 1000 and q = 0.99 every chunk's quantile has ten
/// samples beyond it.
double chunked_quantile(const std::vector<double>& ordered, double q, std::size_t chunk);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Host steal time so far: clock ticks, summed over all CPUs, in which the
/// hypervisor ran something else while this machine's CPUs had work
/// (/proc/stat). 0 where the kernel does not report it (bare metal).
long host_steal_ticks();
/// Ticks one second of wall time holds, summed over all CPUs.
double host_ticks_per_second();

/// Keeps the measurement samples taken while the host stole the least CPU:
/// given each sample's steal ticks, returns the indices whose steal is at or
/// below the median. On a host that reports no steal every sample is kept.
std::vector<std::size_t> quietest_half(const std::vector<long>& steal);

/// One-line JSON object describing the host and build: core count, ISA
/// flags, GEMM kernel tier, compiler, build type, OpenMP and ASCEND_*
/// environment.
std::string host_fingerprint_json();

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Outcome& out);

/// Untraced runs of the workloads, reporting the end-to-end metrics
/// (serving_workload.cpp, dse_workload.cpp; probes.h has the traced runs).
Outcome run_serving(const Args& args);
Outcome run_dse(const Args& args);

}  // namespace perfbench
