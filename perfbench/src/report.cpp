#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common.h"
#include "nn/gemm.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Outcome::merge(Outcome other) {
  for (Metric& m : other.metrics) metrics.push_back(std::move(m));
  attempted += other.attempted;
  failed += other.failed;
  for (std::string& e : other.errors) errors.push_back(std::move(e));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double chunked_quantile(const std::vector<double>& ordered, double q, std::size_t chunk) {
  const std::size_t n = std::max<std::size_t>(1, ordered.size() / chunk);
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < n; ++c) {
    const auto from = ordered.begin() + static_cast<std::ptrdiff_t>(c * ordered.size() / n);
    const auto to = ordered.begin() + static_cast<std::ptrdiff_t>((c + 1) * ordered.size() / n);
    per_chunk.push_back(quantile(std::vector<double>(from, to), q));
  }
  return median(per_chunk);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

long host_steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return 0;
  long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int got = std::fscanf(f, "cpu %ld %ld %ld %ld %ld %ld %ld %ld", &v[0], &v[1], &v[2],
                              &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

double host_ticks_per_second() {
  return static_cast<double>(sysconf(_SC_CLK_TCK)) *
         static_cast<double>(std::thread::hardware_concurrency());
}

std::vector<std::size_t> quietest_half(const std::vector<long>& steal) {
  std::vector<long> sorted(steal);
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> keep;
  if (sorted.empty()) return keep;
  const long threshold = sorted[(sorted.size() - 1) / 2];
  for (std::size_t i = 0; i < steal.size(); ++i)
    if (steal[i] <= threshold) keep.push_back(i);
  return keep;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_string_or_null(const char* s) {
  if (!s) return "null";
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

/// The ISA extensions the kernels can use, as /proc/cpuinfo names them.
std::string isa_flags() {
  static const char* kInteresting[] = {"sse4_2",      "avx",         "avx2",
                                       "fma",         "avx512f",     "avx512bw",
                                       "avx512vl",    "avx512_vnni", "avx512_bf16",
                                       "avx512_vpopcntdq", "amx_tile", "amx_bf16",
                                       "amx_int8"};
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::set<std::string> have;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string w;
    while (words >> w) have.insert(w);
    break;
  }
  std::string out;
  for (const char* f : kInteresting) {
    if (!have.count(f)) continue;
    if (!out.empty()) out += ' ';
    out += f;
  }
  return out;
}

}  // namespace

std::string host_fingerprint_json() {
  std::ostringstream o;
  o << "{\"cores\": " << std::thread::hardware_concurrency();
  o << ", \"isa\": \"" << isa_flags() << "\"";
  o << ", \"gemm_kernel\": \"" << ascend::nn::gemm::kernel_name() << "\"";
  o << ", \"compiler\": \"" << json_escape(__VERSION__) << "\"";
  o << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"";
#ifdef _OPENMP
  o << ", \"openmp\": " << _OPENMP << ", \"omp_max_threads\": " << omp_get_max_threads();
#else
  o << ", \"openmp\": null, \"omp_max_threads\": null";
#endif
  o << ", \"env\": {";
  static const char* kEnv[] = {"OMP_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES",
                               "OMP_WAIT_POLICY", "GOMP_SPINCOUNT"};
  bool first = true;
  for (const char* name : kEnv) {
    o << (first ? "" : ", ") << "\"" << name << "\": " << json_string_or_null(std::getenv(name));
    first = false;
  }
  // Every ASCEND_* variable present (ASCEND_GEMM, ASCEND_GEMM_KERNEL, ...).
  for (char** e = ::environ; *e; ++e) {
    const std::string kv(*e);
    if (kv.rfind("ASCEND_", 0) != 0) continue;
    const std::size_t eq = kv.find('=');
    o << ", \"" << json_escape(kv.substr(0, eq)) << "\": \"" << json_escape(kv.substr(eq + 1))
      << "\"";
  }
  o << "}}";
  return o.str();
}

std::string result_json(const Outcome& out) {
  std::ostringstream o;
  o << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
    << ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const Metric& m : out.metrics) {
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    o << (first ? "" : ", ") << "\"" << json_escape(m.name) << "\": {\"value\": " << num
      << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

}  // namespace perfbench
