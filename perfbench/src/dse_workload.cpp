// dse_workload.cpp — the offline Fig. 8 protocol as a workload.
//
// core::sweep_softmax_design_space at Bx = 2 and Bx = 4, m = 64, 16 MAE rows,
// default DseOptions (a fresh ThreadPool of hardware_concurrency workers and
// a sweep-local LUT cache per call), repeated over consecutive seeds. Here
// runtime/tf_cache *builds* one fresh table per design (writes), where the
// serving workloads only *look tables up* (reads); the sweep also exercises
// the sc emulators, the hw cost model and the ThreadPool, and bypasses the
// serving stack entirely. A change that speeds one use of tf_cache at the
// other's cost shows up between this workload and vit-mixed.
//
// One request is one seed's figure: the Bx = 2 sweep then the Bx = 4 sweep,
// issued back to back from one caller (the paper protocol).

#include <cstdio>
#include <random>
#include <thread>

#include "common.h"
#include "core/dse.h"
#include "hw/cost_model.h"
#include "probes.h"
#include "runtime/tf_cache.h"
#include "runtime/thread_pool.h"
#include "sc/softmax_iter.h"

namespace perfbench {

namespace {

using namespace ascend;

constexpr int kM = 64;
constexpr int kMaeRows = 16;
constexpr int kBx[] = {2, 4};
/// A run holds a few dozen figures, too few for a p99: the tail figure is the
/// median over runs of 10 consecutive figures of each run's slowest.
constexpr std::size_t kTailChunk = 10;

struct Figure {
  core::DseResult sweeps[2];
  double seconds = 0;
  long steal = 0;  ///< host steal ticks while it ran
  std::size_t designs() const { return sweeps[0].points.size() + sweeps[1].points.size(); }
};

Figure run_figure(std::uint64_t seed, const core::DseOptions& opts = {}) {
  Figure f;
  const long steal0 = host_steal_ticks();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 2; ++i)
    f.sweeps[i] = core::sweep_softmax_design_space(kBx[i], kM, kMaeRows, seed, opts);
  f.seconds = seconds_between(t0, Clock::now());
  f.steal = host_steal_ticks() - steal0;
  return f;
}

/// Outside any timed region: structural checks, and the cached MAE of a
/// seeded sample of designs against sc::softmax_sc_mae, bit for bit.
void check_figure(const Figure& f, std::uint64_t seed, int samples, Outcome& out) {
  std::mt19937_64 rng(seed ^ 0xD5Eull);
  for (int i = 0; i < 2; ++i) {
    const core::DseResult& r = f.sweeps[i];
    ++out.attempted;
    if (r.nominal_candidates != 2916 ||
        r.points.size() + static_cast<std::size_t>(r.infeasible) != 2916u || r.points.empty() ||
        r.pareto.empty())
      out.fail("dse: malformed sweep result at Bx=" + std::to_string(kBx[i]));
    if (r.points.empty()) continue;
    std::uniform_int_distribution<std::size_t> pick(0, r.points.size() - 1);
    for (int s = 0; s < samples; ++s) {
      const core::DsePoint& p = r.points[pick(rng)];
      ++out.attempted;
      if (sc::softmax_sc_mae(p.cfg, kMaeRows, seed) != p.mae)
        out.fail("dse: cached MAE differs from sc::softmax_sc_mae at Bx=" +
                 std::to_string(kBx[i]) + " seed " + std::to_string(seed));
    }
  }
}

}  // namespace

Outcome run_dse(const Args& args) {
  Outcome out;

  // Set-up: the pool and cache a default-options sweep creates.
  std::vector<double> setups;
  for (int rep = 0; rep < 15; ++rep) {
    const Clock::time_point t0 = Clock::now();
    {
      runtime::ThreadPool pool(static_cast<int>(std::thread::hardware_concurrency()));
      runtime::TfCache cache;
      setups.push_back(seconds_between(t0, Clock::now()));
    }
  }

  // One caller issues figures back to back until the run's time is spent in
  // timed sweeps; the MAE checks between figures are not timed.
  std::vector<double> ms;
  std::vector<std::size_t> designs;
  std::vector<long> steal;
  double busy_s = 0;
  for (std::uint64_t seed = args.seed * 1000; busy_s < args.seconds; ++seed) {
    const Figure f = run_figure(seed);
    busy_s += f.seconds;
    ms.push_back(1000 * f.seconds);
    designs.push_back(f.designs());
    steal.push_back(f.steal);
    check_figure(f, seed, 1, out);
  }

  // Figures taken while the host stole the least CPU (see quietest_half).
  std::vector<double> kept_ms;
  double kept_s = 0;
  std::size_t kept_designs = 0;
  for (const std::size_t i : quietest_half(steal)) {
    kept_ms.push_back(ms[i]);
    kept_s += ms[i] / 1000;
    kept_designs += designs[i];
  }
  const double designs_per_s = static_cast<double>(kept_designs) / kept_s;
  std::printf("# dse-sweep: %zu figures, %zu kept; designs_per_s %.1f\n", ms.size(),
              kept_ms.size(), designs_per_s);
  out.add("setup_s", median(setups), "s");
  out.add("p50_ms", quantile(kept_ms, 0.5), "ms");
  out.add("p99_ms", chunked_quantile(kept_ms, 0.99, kTailChunk), "ms");
  out.add("goodput_rps", designs_per_s, "1/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

Outcome trace_dse(const Args& args) {
  Outcome out;
  const std::uint64_t seed = args.seed * 1000;
  core::DseOptions serial;
  serial.threads = 1;
  const Figure one = run_figure(seed, serial);
  const Figure many = run_figure(seed);
  const unsigned threads = std::thread::hardware_concurrency();
  out.add("pool.parallel_efficiency", one.seconds / many.seconds / threads, "ratio");

  // Results must not depend on the thread count.
  for (int i = 0; i < 2; ++i) {
    ++out.attempted;
    const auto& a = one.sweeps[i].points;
    const auto& b = many.sweeps[i].points;
    bool same = a.size() == b.size();
    for (std::size_t k = 0; same && k < a.size(); ++k)
      same = a[k].mae == b[k].mae && a[k].adp() == b[k].adp();
    if (!same) out.fail("dse: sweep differs between 1 thread and the default pool");
  }
  check_figure(many, seed, 2, out);

  // tf_cache writes: build every feasible design's table once, serially, the
  // way the sweep does per point; their share of the serial sweep.
  double build_s = 0, cost_s = 0;
  std::size_t n = 0;
  for (const core::DseResult& r : one.sweeps)
    for (const core::DsePoint& p : r.points) {
      runtime::TfCache cache;
      const Clock::time_point t0 = Clock::now();
      (void)cache.softmax(p.cfg);
      const Clock::time_point t1 = Clock::now();
      (void)hw::cost_softmax_iter(p.cfg);
      build_s += seconds_between(t0, t1);
      cost_s += seconds_between(t1, Clock::now());
      ++n;
    }
  out.add("tf_cache.softmax_build_us", 1e6 * build_s / static_cast<double>(n), "us");
  out.add("dse.build_share_pct", 100.0 * build_s / one.seconds, "%");
  out.add("hw.cost_us", 1e6 * cost_s / static_cast<double>(n), "us");

  // The circuit emulator the LUTs replace, per attention row, over a seeded
  // sample of the sweep's designs.
  std::mt19937_64 rng(seed);
  const auto& points = one.sweeps[0].points;
  std::uniform_int_distribution<std::size_t> pick(0, points.size() - 1);
  const std::vector<std::vector<double>> rows = sc::sample_attention_logits(kM, 4, seed);
  double emu_s = 0;
  int emu_rows = 0;
  for (int s = 0; s < 8; ++s) {
    const sc::SoftmaxIterConfig& cfg = points[pick(rng)].cfg;
    const Clock::time_point t0 = Clock::now();
    for (const std::vector<double>& row : rows) (void)sc::softmax_iterative_sc(row, cfg);
    emu_s += seconds_between(t0, Clock::now());
    emu_rows += static_cast<int>(rows.size());
  }
  out.add("sc.softmax_emu_row_us", 1e6 * emu_s / emu_rows, "us");
  return out;
}

}  // namespace perfbench
