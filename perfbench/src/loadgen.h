#pragma once
// loadgen.h — open-loop Poisson load generator for the TCP front door.
//
// Independent users: each generator thread runs its own Poisson process
// (superposed, the threads offer one Poisson stream at the target rate) over
// its own connections, and never waits for a response before the next send.
// Every request is timed from its *scheduled* send time, so a stall in the
// server or in the generator shows up in the latency of everything due
// behind it. The generator checks itself: each phase records how many
// scheduled requests it actually sent before the phase closed and how late
// each send ran, and a phase whose generator fell behind is invalid.
//
// The hot path allocates nothing: request frames are encoded before the
// phase starts (only the request id is patched per send), responses decode
// into a reused frame, and all per-request bookkeeping is preallocated — so
// the process-wide allocation counter of a traced run counts the server.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// One request the generator can send: an encoded frame (request id 0) and
/// the label the variant's own Servable::infer gave for its payload.
struct PreparedRequest {
  std::vector<std::uint8_t> frame;
  int expected_label = -1;
};

struct PhaseSpec {
  std::uint16_t port = 0;
  double rate_rps = 0.0;
  double duration_s = 0.0;
  /// Arrivals due before this offset are sent and checked but not measured
  /// (the queues fill in the first moments of an overload phase).
  double warmup_s = 0.0;
  int threads = 2;
  int conns_per_thread = 2;
  std::uint64_t seed = 0;
  /// [variant][payload] requests; arrivals draw a variant from
  /// `variant_weights` (same order) and a payload uniformly.
  const std::vector<std::vector<PreparedRequest>>* requests = nullptr;
  std::vector<double> variant_weights;
};

struct PhaseResult {
  std::uint64_t scheduled = 0;  ///< arrivals due inside the phase
  std::uint64_t sent = 0;       ///< of those, sent before the phase closed (+ grace)
  std::uint64_t ok = 0;         ///< kOk with the expected label
  std::uint64_t wrong = 0;      ///< kOk with another label
  std::uint64_t rejected = 0;   ///< kRetryAfter (admission control)
  std::uint64_t typed = 0;      ///< any other typed status
  std::uint64_t lost = 0;       ///< sent, never answered
  std::uint64_t unexpected = 0; ///< answers to ids this phase never sent
  double rate_rps = 0.0;               ///< offered rate
  double warmup_s = 0.0;               ///< the measured window starts here
  double measured_s = 0.0;             ///< length of the measured window
  std::vector<double> latency_ms;      ///< correct ok responses, measured window
  std::vector<double> latency_due_s;   ///< scheduled send offset of each latency_ms sample
  std::vector<double> lag_us;          ///< send time minus scheduled time, every send
  /// Host steal ticks sampled during the phase: (seconds since the phase
  /// started, cumulative ticks).
  std::vector<std::pair<double, long>> steal;

  /// Steal ticks between two offsets from the phase start.
  long steal_between(double from_s, double to_s) const;

  double sent_pct() const {
    return scheduled ? 100.0 * static_cast<double>(sent) / static_cast<double>(scheduled) : 0.0;
  }
  /// The generator kept its schedule (see kMinSentPct / kMaxLagP99Us).
  bool generator_kept_up() const;
};

/// The generator fell behind — and the phase is invalid — when it sent less
/// than this share of its schedule before the phase closed, or when its
/// median send ran later than this. Single late sends (the host descheduling
/// the generator) are not falling behind: they are reported as the p99 lag,
/// and the latency of every request already counts from its scheduled time.
inline constexpr double kMinSentPct = 99.9;
inline constexpr double kMaxLagP50Us = 500.0;
/// How late past the end of the phase a due request may still be sent.
inline constexpr double kSendGraceS = 0.1;

/// Latency and goodput of one or more runs of a phase. Their measured parts
/// are cut into 0.1 s windows; the windows in which the host stole the least
/// CPU (quietest_half) are kept, and the figures are taken over the requests
/// due in them: p50 over all of them, p99 as the chunked_quantile over runs
/// of 1000 consecutive requests. Host steal on a shared machine comes in
/// bursts that stall every thread for milliseconds; keeping the quieter half
/// measures the program rather than its neighbours, and the share of CPU
/// stolen is reported beside every figure.
struct WindowStats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double goodput_rps = 0.0;  ///< correct ok responses per second
  std::size_t samples = 0;   ///< latencies the figures rest on
  int windows = 0;
  int kept = 0;
  double steal_pct_all = 0.0;   ///< CPU share stolen over all windows
  double steal_pct_kept = 0.0;  ///< ... over the kept ones
};
WindowStats window_stats(const std::vector<PhaseResult>& phases);

/// Run one open-loop phase against 127.0.0.1:spec.port; returns once every
/// sent request was answered or a drain timeout passed (the rest are lost).
PhaseResult run_phase(const PhaseSpec& spec);

/// Encode `frame` for the generator (request id patched per send).
std::vector<std::uint8_t> encode_request(const std::string& variant,
                                         const std::vector<float>& payload);

}  // namespace perfbench
