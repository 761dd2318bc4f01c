#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "serve/protocol.h"

namespace perfbench {

namespace {

namespace serve = ascend::serve;

/// Byte offset of the request id inside an encoded request frame, found by
/// encoding two frames that differ only in their id.
std::size_t request_id_offset() {
  static const std::size_t offset = [] {
    serve::RequestFrame a, b;
    a.request_id = 0;
    b.request_id = ~0ull;
    std::vector<std::uint8_t> ea, eb;
    serve::append_request(ea, a);
    serve::append_request(eb, b);
    std::size_t first = ea.size();
    std::size_t count = 0;
    for (std::size_t i = 0; i < ea.size(); ++i)
      if (ea[i] != eb[i]) {
        first = std::min(first, i);
        ++count;
      }
    if (count != sizeof(std::uint64_t)) throw std::logic_error("loadgen: request id not found");
    return first;
  }();
  return offset;
}

/// One client connection: blocking sends, non-blocking receives into a
/// reused buffer.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::system_error(errno, std::generic_category(), "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const int err = errno;
      ::close(fd_);
      throw std::system_error(err, std::generic_category(), "connect");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    rbuf_.resize(1 << 20);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  void send_all(const std::uint8_t* data, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
      const ssize_t n = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::system_error(errno, std::generic_category(), "send");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  /// Read whatever is ready and hand every complete response to `on_frame`.
  /// Returns false when the server closed the connection.
  template <typename OnFrame>
  bool reap(OnFrame&& on_frame) {
    for (;;) {
      if (end_ == rbuf_.size()) {
        // Compact; a frame larger than the buffer cannot occur (responses
        // carry a handful of logits).
        std::memmove(rbuf_.data(), rbuf_.data() + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
      }
      const ssize_t n = ::recv(fd_, rbuf_.data() + end_, rbuf_.size() - end_, MSG_DONTWAIT);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        throw std::system_error(errno, std::generic_category(), "recv");
      }
      end_ += static_cast<std::size_t>(n);
      const Clock::time_point now = Clock::now();
      for (;;) {
        std::size_t consumed = 0;
        serve::Status error{};
        const serve::DecodeResult r = serve::decode_response(rbuf_.data() + begin_, end_ - begin_,
                                                             consumed, frame_, error);
        if (r == serve::DecodeResult::kNeedMore) break;
        if (r == serve::DecodeResult::kError)
          throw std::runtime_error(std::string("loadgen: undecodable response: ") +
                                   serve::status_name(error));
        begin_ += consumed;
        on_frame(frame_, now);
      }
      if (begin_ == end_) begin_ = end_ = 0;
    }
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> rbuf_;
  std::size_t begin_ = 0, end_ = 0;
  serve::ResponseFrame frame_;
};

struct Arrival {
  double due_s = 0.0;
  std::uint32_t variant = 0;
  std::uint32_t payload = 0;
};

/// The thread's id space: ids encode (thread, arrival index).
constexpr int kThreadShift = 40;

void run_thread(const PhaseSpec& spec, int t, std::vector<std::unique_ptr<Conn>>& conns,
                const std::vector<Arrival>& arrivals, Clock::time_point start,
                PhaseResult& out) {
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake within microseconds of a due send
  const auto& requests = *spec.requests;
  const std::size_t id_off = request_id_offset();
  const std::size_t n = arrivals.size();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  // A request due at the very end still goes out if the generator is at
  // most kSendGraceS late; one still unsent after that counts as unsent.
  const Clock::time_point end_send = at(spec.duration_s + kSendGraceS);
  const Clock::time_point drain_deadline = at(spec.duration_s + 10.0);

  std::vector<char> answered(n, 0);
  std::vector<std::uint8_t> scratch;
  std::size_t max_frame = 0;
  for (const auto& per_variant : requests)
    for (const PreparedRequest& r : per_variant) max_frame = std::max(max_frame, r.frame.size());
  scratch.resize(max_frame);
  out.latency_ms.reserve(n);
  out.latency_due_s.reserve(n);
  out.lag_us.reserve(n);
  std::vector<pollfd> pfds(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) pfds[c] = {conns[c]->fd(), POLLIN, 0};

  std::size_t next = 0;
  std::uint64_t outstanding = 0;
  const auto on_frame = [&](const serve::ResponseFrame& f, Clock::time_point now) {
    const std::uint64_t local = f.request_id & ((1ull << kThreadShift) - 1);
    if ((f.request_id >> kThreadShift) != static_cast<std::uint64_t>(t) || local >= next ||
        answered[local]) {
      ++out.unexpected;
      return;
    }
    answered[local] = 1;
    --outstanding;
    const Arrival& a = arrivals[local];
    if (f.status == serve::Status::kRetryAfter) {
      ++out.rejected;
    } else if (f.status != serve::Status::kOk) {
      ++out.typed;
    } else if (f.label != requests[a.variant][a.payload].expected_label) {
      ++out.wrong;
    } else {
      ++out.ok;
      if (a.due_s >= spec.warmup_s) {
        out.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(now - at(a.due_s)).count());
        out.latency_due_s.push_back(a.due_s);
      }
    }
  };

  for (;;) {
    Clock::time_point now = Clock::now();
    while (next < n && now < end_send) {
      const Clock::time_point due = at(arrivals[next].due_s);
      if (due > now) break;
      const Arrival& a = arrivals[next];
      const std::vector<std::uint8_t>& frame = requests[a.variant][a.payload].frame;
      std::memcpy(scratch.data(), frame.data(), frame.size());
      const std::uint64_t id = (static_cast<std::uint64_t>(t) << kThreadShift) | next;
      std::memcpy(scratch.data() + id_off, &id, sizeof(id));
      conns[next % conns.size()]->send_all(scratch.data(), frame.size());
      now = Clock::now();
      out.lag_us.push_back(std::chrono::duration<double, std::micro>(now - due).count());
      ++out.sent;
      ++outstanding;
      ++next;
    }
    const bool sending_done = next >= n || now >= end_send;
    if (sending_done && outstanding == 0) break;
    if (sending_done && now >= drain_deadline) break;
    std::chrono::nanoseconds wait = std::chrono::milliseconds(5);
    if (!sending_done) wait = std::max(std::chrono::nanoseconds(0), at(arrivals[next].due_s) - now);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait.count() / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait.count() % 1'000'000'000);
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR)
      throw std::system_error(errno, std::generic_category(), "ppoll");
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!conns[c]->reap(on_frame)) pfds[c].fd = -1;  // closed: its requests end up lost
    }
  }
  out.scheduled = n;
  out.lost = outstanding;
}

}  // namespace

bool PhaseResult::generator_kept_up() const {
  return sent_pct() >= kMinSentPct && quantile(lag_us, 0.5) <= kMaxLagP50Us;
}

long PhaseResult::steal_between(double from_s, double to_s) const {
  const auto at = [&](double t) {
    long ticks = steal.empty() ? 0 : steal.front().second;
    for (const auto& [when, cumulative] : steal) {
      if (when > t) break;
      ticks = cumulative;
    }
    return ticks;
  };
  return at(to_s) - at(from_s);
}

WindowStats window_stats(const std::vector<PhaseResult>& phases) {
  constexpr double kWindowS = 0.1;
  struct Window {
    const PhaseResult* phase;
    double from_s;
  };
  std::vector<Window> windows;
  std::vector<long> steal;
  for (const PhaseResult& r : phases) {
    const int n = std::max(1, static_cast<int>(r.measured_s / kWindowS));
    const double len = r.measured_s / n;
    for (int k = 0; k < n; ++k) {
      const double from = r.warmup_s + k * len;
      windows.push_back({&r, from});
      steal.push_back(r.steal_between(from, from + len));
    }
  }
  WindowStats w;
  w.windows = static_cast<int>(windows.size());
  const std::vector<std::size_t> keep = quietest_half(steal);
  w.kept = static_cast<int>(keep.size());

  std::vector<std::pair<double, double>> kept;  // (phase, due) order, latency
  double kept_s = 0, all_s = 0;
  long kept_steal = 0, all_steal = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const PhaseResult& r = *windows[i].phase;
    const double len = r.measured_s / std::max(1, static_cast<int>(r.measured_s / kWindowS));
    all_s += len;
    all_steal += steal[i];
    if (!std::binary_search(keep.begin(), keep.end(), i)) continue;
    kept_s += len;
    kept_steal += steal[i];
    const double from = windows[i].from_s;
    const double phase_offset = 1e6 * static_cast<double>(windows[i].phase - phases.data());
    for (std::size_t s = 0; s < r.latency_ms.size(); ++s)
      if (r.latency_due_s[s] >= from && r.latency_due_s[s] < from + len)
        kept.emplace_back(phase_offset + r.latency_due_s[s], r.latency_ms[s]);
  }
  std::sort(kept.begin(), kept.end());
  std::vector<double> latency;
  latency.reserve(kept.size());
  for (const auto& k : kept) latency.push_back(k.second);
  w.samples = latency.size();
  w.p50_ms = quantile(latency, 0.5);
  w.p99_ms = chunked_quantile(latency, 0.99, 1000);
  w.goodput_rps = kept_s > 0 ? static_cast<double>(latency.size()) / kept_s : 0.0;
  const double tps = host_ticks_per_second();
  w.steal_pct_all = all_s > 0 ? 100.0 * static_cast<double>(all_steal) / (all_s * tps) : 0.0;
  w.steal_pct_kept = kept_s > 0 ? 100.0 * static_cast<double>(kept_steal) / (kept_s * tps) : 0.0;
  return w;
}

std::vector<std::uint8_t> encode_request(const std::string& variant,
                                         const std::vector<float>& payload) {
  serve::RequestFrame f;
  f.options.variant = variant;
  f.payload = payload;
  std::vector<std::uint8_t> bytes;
  serve::append_request(bytes, f);
  return bytes;
}

PhaseResult run_phase(const PhaseSpec& spec) {
  if (spec.threads < 1 || spec.conns_per_thread < 1 || spec.rate_rps <= 0 || !spec.requests)
    throw std::invalid_argument("run_phase: bad phase spec");
  const int threads = spec.threads;

  // Everything the hot loop needs exists before the clock starts: the
  // schedule, the connections and the per-thread result buffers.
  double total_weight = 0;
  for (const double w : spec.variant_weights) total_weight += w;
  std::vector<std::vector<Arrival>> arrivals(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    std::mt19937_64 rng(spec.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(t) + 1);
    std::exponential_distribution<double> gap(spec.rate_rps / threads);
    std::uniform_real_distribution<double> pick(0.0, total_weight);
    double due = gap(rng);
    while (due < spec.duration_s) {
      Arrival a;
      a.due_s = due;
      double u = pick(rng);
      while (a.variant + 1 < spec.variant_weights.size() && u >= spec.variant_weights[a.variant])
        u -= spec.variant_weights[a.variant++];
      std::uniform_int_distribution<std::uint32_t> payload(
          0, static_cast<std::uint32_t>((*spec.requests)[a.variant].size() - 1));
      a.payload = payload(rng);
      arrivals[static_cast<std::size_t>(t)].push_back(a);
      due += gap(rng);
    }
  }
  std::vector<std::vector<std::unique_ptr<Conn>>> conns(static_cast<std::size_t>(threads));
  for (auto& per_thread : conns)
    for (int c = 0; c < spec.conns_per_thread; ++c)
      per_thread.push_back(std::make_unique<Conn>(spec.port));
  std::vector<PhaseResult> parts(static_cast<std::size_t>(threads));

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::atomic<int> running{threads};
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      try {
        run_thread(spec, t, conns[i], arrivals[i], start, parts[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      --running;
    });
  // The coordinating thread samples host steal while the generator runs.
  std::vector<std::pair<double, long>> steal;
  steal.reserve(static_cast<std::size_t>(spec.duration_s * 50) + 1024);
  while (running.load() > 0) {
    steal.emplace_back(seconds_between(start, Clock::now()), host_steal_ticks());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  steal.emplace_back(seconds_between(start, Clock::now()), host_steal_ticks());
  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  PhaseResult r;
  for (PhaseResult& p : parts) {
    r.scheduled += p.scheduled;
    r.sent += p.sent;
    r.ok += p.ok;
    r.wrong += p.wrong;
    r.rejected += p.rejected;
    r.typed += p.typed;
    r.lost += p.lost;
    r.unexpected += p.unexpected;
    r.latency_ms.insert(r.latency_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
    r.latency_due_s.insert(r.latency_due_s.end(), p.latency_due_s.begin(), p.latency_due_s.end());
    r.lag_us.insert(r.lag_us.end(), p.lag_us.begin(), p.lag_us.end());
  }
  r.rate_rps = spec.rate_rps;
  r.warmup_s = spec.warmup_s;
  r.steal = std::move(steal);
  r.measured_s = spec.duration_s - spec.warmup_s;
  return r;
}

}  // namespace perfbench
