// Workload `serve_mix`: one request mix, open-loop and closed-loop,
// against a child `tokenring_tool serve --port=0` daemon over loopback TCP.
//
// The load models independent admission controllers: request k is due at
// t0 + k/rate whatever the daemon is doing, and its latency is measured
// from that due time, so a stall also charges every request queued behind
// it. About 80% of requests repeat a pre-warmed hot set of check and
// advise queries (cache hits); the rest are unique check and faultcheck
// scenarios of 16..512 streams over the three protocols, each a cache miss
// that inserts an entry and, past the cache's capacity, evicts one.
//
// Flow: launch the daemon kLaunches times. Each launch measures set-up
// (launch until the hot set is warm), fills the result cache with
// untimed traffic, runs one segment of the nominal rung, and then a
// closed-loop saturation pass that measures the daemon's capacity on the
// same mix, in slices between host probes (common.hpp); the other rungs
// run on the last launch. Then read its `stats`, stop it, check every
// served answer byte for byte against serve::Engine::compute_*, and time
// those compute handlers offline on a pinned mix. With --trace=1 there is
// one launch, only the nominal rung (so the daemon's stats describe that
// load), and the in-process layer timings are added.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/obs/json.hpp"
#include "tokenring/serve/engine.hpp"
#include "tokenring/serve/wire.hpp"

namespace perfbench {

using namespace tokenring;

namespace {

// ---- request mix ------------------------------------------------------------

constexpr const char* kProtocols[] = {"fddi", "ieee8025", "modified8025"};
constexpr std::uint64_t kHotStream = 0x4854;     // "HT": hot-set draws
constexpr std::uint64_t kUniqueStream = 0x554e;  // "UN": unique draws
constexpr std::uint64_t kPinnedSeed = 0;         // the offline timing mix
constexpr std::size_t kHotChecks = 30;
constexpr std::size_t kLaunches = 6;
constexpr double kLimitMs = 100.0;   // p99 a passing rung must stay within
constexpr double kMaxLagMs = 10.0;   // generator lag that invalidates a rung
constexpr double kDrainS = 10.0;     // wait for answers after the last send
// Closed loop: unanswered requests kept per connection. Enough to keep
// the daemon's busiest thread saturated (fewer leaves it waiting on round
// trips); the misses among them stay far below its shedding high-water
// mark (512 queued jobs).
constexpr std::size_t kSaturateWindow = 32;
// Slices of each saturation pass, and of each offline compute pass, timed
// between host probes; passes of the offline mix.
constexpr std::size_t kSaturateChunks = 10;
constexpr std::size_t kComputeChunks = 4;
constexpr std::size_t kComputePasses = 5;
// Threads of the host probes around set-up and saturation: the two that
// are busy then (the daemon's compute jobs warming the hot set, or its
// reactor and this load generator).
constexpr std::size_t kBusyThreads = 2;
// 16 shards x 16 entries: the hot set (32) stays resident while unique
// misses fill the rest within the fill phase and then evict.
constexpr int kCachePerShard = 16;

/// One scenario body (everything but the id): `n` streams drawn from `rng`
/// under the paper's period law, payloads scaled to a random utilization.
std::string scenario_body(Rng& rng, int n, const char* protocol,
                          bool faultcheck) {
  const double bw_mbps = rng.bernoulli(0.5) ? 16.0 : 100.0;
  msg::GeneratorConfig g;
  g.num_streams = n;
  const msg::MessageSet drawn = msg::MessageSetGenerator(g).generate(rng);
  const double target_u = rng.uniform(0.05, 0.6);
  const msg::MessageSet set =
      drawn.scaled(target_u / drawn.utilization(mbps(bw_mbps)));

  std::string body = std::string("\"type\":\"") +
                     (faultcheck ? "faultcheck" : "check") +
                     "\",\"protocol\":\"" + protocol +
                     "\",\"bandwidth_mbps\":" + obs::json_number(bw_mbps) +
                     ",\"streams\":[";
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto& s = set[i];
    if (i) body += ',';
    body += "{\"station\":" + std::to_string(s.station) +
            ",\"period_ms\":" + obs::json_number(s.period * 1e3) +
            ",\"payload_bits\":" + obs::json_number(s.payload_bits) + '}';
  }
  return body + ']';
}

/// Unique scenario j: 16..512 streams (log-uniform), any protocol, check
/// or faultcheck.
std::string unique_body(std::uint64_t seed, std::uint64_t j) {
  Rng rng = exec::make_trial_rng(seed ^ (kUniqueStream << 48), j);
  const double log_n = rng.uniform(std::log(16.0), std::log(512.0));
  const int n = std::clamp(static_cast<int>(std::lround(std::exp(log_n))), 16, 512);
  const char* protocol = kProtocols[rng.uniform_int(0, 2)];
  const bool faultcheck = rng.bernoulli(0.5);
  return scenario_body(rng, n, protocol, faultcheck);
}

/// Hot set: checks of 16..128 streams on a fixed log-spaced grid, protocols
/// in rotation, so the cost of a hit does not depend on the seed; plus two
/// advise profiles (the cold advise is what makes warming cost real time).
std::vector<std::string> hot_bodies(std::uint64_t seed, std::size_t checks) {
  std::vector<std::string> out;
  for (std::size_t h = 0; h < checks; ++h) {
    Rng rng = exec::make_trial_rng(seed ^ (kHotStream << 48), h);
    const double frac =
        checks > 1 ? static_cast<double>(h) / static_cast<double>(checks - 1) : 0.0;
    const int n = static_cast<int>(std::lround(16.0 * std::pow(8.0, frac)));
    out.push_back(scenario_body(rng, n, kProtocols[h % 3], false));
  }
  for (std::uint64_t a = 0; a < 2; ++a) {
    out.push_back("\"type\":\"advise\",\"seed\":" +
                  std::to_string(seed * 2 + a + 1));
  }
  return out;
}

std::string request_line(std::uint64_t id, const std::string& body) {
  return "{\"id\":" + std::to_string(id) + ',' + body + "}\n";
}

/// The `result` JSON of a success envelope (wire.cpp success_response puts
/// it last), or empty when the line is not a 200 for request `id`.
std::string_view result_of(std::string_view line, std::uint64_t id) {
  const std::string id_field = "\"id\":" + std::to_string(id) + ',';
  if (line.find(id_field) == std::string_view::npos) return {};
  if (line.find("\"status\":200,") == std::string_view::npos) return {};
  const auto at = line.find("\"result\":");
  if (at == std::string_view::npos || line.back() != '}') return {};
  const auto start = at + 9;
  return line.substr(start, line.size() - 1 - start);
}

// ---- daemon process ---------------------------------------------------------

struct Daemon;
int stop_daemon(Daemon& d);

/// A running daemon child; stopped (and reaped) on destruction, so no
/// exit path of the driver leaves it behind.
struct Daemon {
  pid_t pid = -1;
  int err_fd = -1;
  int port = 0;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop_daemon(*this); }
};

std::unique_ptr<Daemon> launch_daemon(const std::vector<std::string>& argv_strings) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::vector<char*> argv;
  for (const auto& s : argv_strings) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // The daemon must not outlive the driver, however the driver ends.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(pipefd[1], 2);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, 1);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  auto owned = std::make_unique<Daemon>();
  Daemon& d = *owned;
  d.pid = pid;
  d.err_fd = pipefd[0];

  // Wait for "... listening on HOST:PORT".
  std::string text;
  const double give_up = now_s() + 30.0;
  while (now_s() < give_up) {
    pollfd p{d.err_fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(d.err_fd, buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
    const auto at = text.find("listening on ");
    const auto eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      const auto colon = text.rfind(':', eol);
      d.port = std::stoi(text.substr(colon + 1, eol - colon - 1));
      return owned;
    }
  }
  throw std::runtime_error("daemon did not announce its port: " + text);
}

/// SIGTERM (the daemon drains and exits 0), escalating to SIGKILL.
int stop_daemon(Daemon& d) {
  if (d.pid <= 0) return 0;
  ::kill(d.pid, SIGTERM);
  int status = 0;
  const double give_up = now_s() + 10.0;
  while (::waitpid(d.pid, &status, WNOHANG) == 0) {
    if (now_s() > give_up) {
      ::kill(d.pid, SIGKILL);
      ::waitpid(d.pid, &status, 0);
      break;
    }
    ::usleep(2000);
  }
  ::close(d.err_fd);
  d.err_fd = -1;
  d.pid = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

// ---- connections ------------------------------------------------------------

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::uint64_t> pending;  // request indices, in send order

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

std::unique_ptr<Conn> connect_to(int port) {
  auto c = std::make_unique<Conn>();
  c->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
  return c;
}

/// Write what the socket takes now; false on a broken connection.
bool flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      return true;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

/// Read what has arrived and hand each complete line to `on_line`.
template <typename OnLine>
bool drain_input(Conn& c, OnLine&& on_line) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      break;
    } else {
      return false;
    }
  }
  std::size_t start = 0;
  for (auto eol = c.in.find('\n'); eol != std::string::npos;
       eol = c.in.find('\n', start)) {
    if (c.pending.empty()) return false;  // a response nobody asked for
    const std::uint64_t idx = c.pending.front();
    c.pending.pop_front();
    on_line(idx, std::string_view(c.in).substr(start, eol - start));
    start = eol + 1;
  }
  c.in.erase(0, start);
  return true;
}

// ---- one open-loop run ------------------------------------------------------

struct Request {
  std::uint64_t id = 0;
  std::int64_t hot = -1;      // index into the hot set, or -1
  std::uint64_t unique = 0;   // unique scenario index when hot < 0
  double due = 0.0, sent = 0.0, done = 0.0;
  bool ok = false;
};

struct Step {
  double rate = 0.0;
  std::vector<Request> reqs;
  std::vector<double> backlog;  // outstanding requests, sampled per send
  double t0 = 0.0, last_done = 0.0;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Every answer the daemons served, keyed by query; shared by the daemon
/// launches of one run, which replay the same query sequence, so each
/// launch must also agree byte for byte with the ones before it.
struct Served {
  std::vector<std::string> hot;
  std::map<std::uint64_t, std::string> unique;
  std::size_t wrong = 0;  // answers that differ from an earlier one
};

class Load {
 public:
  Load(std::uint64_t seed, std::vector<std::string> hot, int port,
       std::size_t conns, Served& served)
      : seed_(seed), hot_(std::move(hot)), port_(port), served_(served) {
    served_.hot.resize(hot_.size());
    for (std::size_t i = 0; i < conns; ++i) conns_.push_back(connect_to(port));
  }

  /// Send every hot query once and wait for all answers (set-up).
  bool warm() {
    Step step;
    for (std::size_t h = 0; h < hot_.size(); ++h) {
      Request r;
      r.hot = static_cast<std::int64_t>(h);
      step.reqs.push_back(r);
    }
    run(step, 0.0, 0, 120.0, true);
    return std::all_of(step.reqs.begin(), step.reqs.end(),
                       [](const Request& r) { return r.ok; });
  }

  /// Run one open-loop ladder step: `seconds` of requests at `rate`.
  Step step(double rate, double seconds) {
    Step step = mix(static_cast<std::size_t>(std::llround(rate * seconds)));
    step.rate = rate;
    run(step, rate, 0, kDrainS, false);
    return step;
  }

  /// Closed loop: `n` requests of the same mix, each sent as soon as its
  /// connection has fewer than kSaturateWindow unanswered, so the daemon
  /// sets the pace and the achieved rate is its capacity.
  Step saturate(std::size_t n) {
    Step step = mix(n);
    run(step, 0.0, kSaturateWindow, 60.0, false);
    return step;
  }

  std::string stats() {
    reconnect_stale();
    Conn& c = *conns_.front();
    c.out = "{\"type\":\"stats\",\"id\":0}\n";
    c.out_off = 0;
    std::string line;
    const double give_up = now_s() + 10.0;
    c.pending.push_back(0);
    while (line.empty() && now_s() < give_up) {
      flush(c);
      pollfd p{c.fd, POLLIN, 0};
      ::poll(&p, 1, 50);
      drain_input(c, [&](std::uint64_t, std::string_view l) { line = l; });
    }
    return line;
  }

 private:
  /// A connection still owing answers from an earlier step would match
  /// them to the next step's requests. Those requests were already counted
  /// as failed, so such a connection is replaced by a fresh one.
  void reconnect_stale() {
    for (auto& c : conns_) {
      if (!c->pending.empty() || !c->in.empty() || !c->out.empty()) {
        c = connect_to(port_);
      }
    }
  }

  /// `n` requests, 80% drawn from the hot set, the rest unique.
  Step mix(std::size_t n) {
    Step step;
    Rng pick = exec::make_trial_rng(seed_, 0x5354'0000ULL + steps_run_++);
    for (std::size_t k = 0; k < n; ++k) {
      Request r;
      if (pick.bernoulli(0.8)) {
        r.hot = pick.uniform_int(0, static_cast<std::int64_t>(hot_.size()) - 1);
      } else {
        r.unique = next_unique_++;
      }
      step.reqs.push_back(r);
    }
    return step;
  }

  std::string body(const Request& r) const {
    return r.hot >= 0 ? hot_[static_cast<std::size_t>(r.hot)]
                      : unique_body(seed_, r.unique);
  }

  /// The connection with the fewest unanswered requests, scanning from
  /// k mod conns so ties rotate: a client multiplexing its controllers over
  /// a small pool does not queue a request behind a slow one when another
  /// connection is idle.
  Conn& least_loaded(std::size_t k) {
    Conn* best = nullptr;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = *conns_[(k + i) % conns_.size()];
      if (!best || c.pending.size() < best->pending.size()) best = &c;
    }
    return *best;
  }

  /// Open loop (window 0): request k is due at t0 + k/rate (all at once
  /// when rate is 0), whatever has been answered so far. Closed loop
  /// (window > 0): a request is due when its connection has fewer than
  /// `window` unanswered. Gives up `drain_s` after the last due time.
  void run(Step& step, double rate, std::size_t window, double drain_s,
           bool warming) {
    reconnect_stale();
    // Render before the clock starts so the generator only copies bytes.
    std::vector<std::string> lines;
    lines.reserve(step.reqs.size());
    for (auto& r : step.reqs) {
      r.id = next_id_++;
      lines.push_back(request_line(r.id, body(r)));
    }
    const std::size_t n = step.reqs.size();
    step.t0 = now_s() + 0.005;
    for (std::size_t k = 0; k < n; ++k) {
      step.reqs[k].due =
          rate > 0.0 ? step.t0 + static_cast<double>(k) / rate : step.t0;
    }
    const double end = (n ? step.reqs.back().due : step.t0) + drain_s;
    std::size_t next = 0, answered = 0;
    std::vector<pollfd> fds(conns_.size());
    bool broken = false;
    while (answered < n && !broken) {
      double now = now_s();
      if (now > end) break;
      while (next < n) {
        Conn& c = least_loaded(next);
        if (window > 0) {
          if (c.pending.size() >= window) break;
          step.reqs[next].due = now;
        } else if (step.reqs[next].due > now) {
          break;
        }
        c.out += lines[next];
        c.pending.push_back(next);
        step.reqs[next].sent = now;
        step.backlog.push_back(static_cast<double>(next + 1 - answered));
        ++next;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        broken |= !flush(*conns_[i]);
        fds[i] = {conns_[i]->fd,
                  static_cast<short>(POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT)),
                  0};
      }
      // Open loop: spin while requests remain to be sent: on a virtual
      // machine a timed sleep can overshoot by milliseconds, which would
      // show up as generator lag; the generator owns one core of the thread
      // budget. Closed loop: only an answer frees a slot, so block.
      now = now_s();
      const double wait = next < n && window == 0
                              ? 0.0
                              : std::min(0.05, std::max(0.0, end - now));
      timespec ts{static_cast<time_t>(wait),
                  static_cast<long>((wait - std::floor(wait)) * 1e9)};
      if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        broken |= !drain_input(*conns_[i], [&](std::uint64_t k,
                                               std::string_view line) {
          Request& r = step.reqs[k];
          r.done = now_s();
          step.last_done = r.done;
          ++answered;
          const std::string_view result = result_of(line, r.id);
          if (result.empty()) return;
          // Verified against the library after the run; here each answer
          // must equal every earlier answer to the same query.
          if (r.hot >= 0) {
            std::string& expect = served_.hot[static_cast<std::size_t>(r.hot)];
            if (warming && expect.empty()) expect = result;
            r.ok = result == expect;
          } else {
            const auto [it, fresh] = served_.unique.try_emplace(r.unique, result);
            r.ok = fresh || it->second == result;
          }
          if (!r.ok) ++served_.wrong;
        });
      }
    }
    if (broken) throw std::runtime_error("connection to the daemon broke");
  }

  std::uint64_t seed_;
  std::vector<std::string> hot_;
  int port_;
  Served& served_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_unique_ = 0;
  std::uint64_t steps_run_ = 0;
};

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Print the step's summary. Latency and lag quantiles are taken
/// per one-second window of due times and the median window is reported:
/// on a shared virtual machine a thread stalls for milliseconds now and
/// then, and the median window keeps one stall from deciding a run. A step
/// passes when the generator kept its schedule (median-window lag p99
/// within kMaxLagMs), no request failed, the median-window p99 is within
/// kLimitMs, and the backlog did not grow.
void emit_step(const Step& step, const char* phase,
               const std::vector<double>& probe_s = {}) {
  constexpr double kWindowS = 1.0;
  std::vector<std::vector<double>> lat(1), hit(1), lag(1);
  std::vector<double> miss, all_lag;
  std::size_t ok = 0;
  for (const auto& r : step.reqs) {
    const auto w = static_cast<std::size_t>((r.due - step.t0) / kWindowS);
    for (auto* v : {&lat, &hit, &lag}) {
      if (v->size() <= w) v->resize(w + 1);
    }
    lag[w].push_back((r.sent - r.due) * 1e3);
    all_lag.push_back(lag[w].back());
    if (!r.ok) continue;
    ++ok;
    const double ms = (r.done - r.due) * 1e3;
    lat[w].push_back(ms);
    if (r.hot >= 0) {
      hit[w].push_back(ms);
    } else {
      miss.push_back(ms);
    }
  }
  const auto per_window = [](const std::vector<std::vector<double>>& windows,
                             double q) {
    std::vector<double> out;
    for (const auto& w : windows) {
      if (!w.empty()) out.push_back(quantile(w, q));
    }
    return median(out);
  };
  // Growing backlog: the mean number of outstanding requests over the
  // step's second half exceeds the first half's by more than half and by
  // more than 20 ms worth of arrivals. Overload grows the backlog by the
  // excess rate times the half-step (seconds); a stall or a slow request
  // only lifts it for milliseconds.
  const auto& b = step.backlog;
  const std::size_t half = b.size() / 2;
  double first = 0.0, second = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) (i < half ? first : second) += b[i];
  first /= static_cast<double>(std::max<std::size_t>(1, half));
  second /= static_cast<double>(std::max<std::size_t>(1, b.size() - half));
  const bool growing = second > 1.5 * first && second - first > 0.02 * step.rate;
  const double p99 = per_window(lat, 0.99);
  const double lag_p99 = per_window(lag, 0.99);
  const std::size_t failed = step.reqs.size() - ok;
  const bool valid = lag_p99 <= kMaxLagMs;
  const double span = step.last_done - step.t0;
  Line()
      .str("event", "step")
      .str("phase", phase)
      .num("rate", step.rate)
      .u64("attempted", step.reqs.size())
      .u64("failed", failed)
      .u64("windows", lat.size())
      .num("achieved_qps", span > 0 ? static_cast<double>(ok) / span : 0.0)
      .num("p50_ms", per_window(lat, 0.50))
      .num("p99_ms", p99)
      .num("hit_p50_us", per_window(hit, 0.50) * 1e3)
      .num("miss_p99_ms", quantile(miss, 0.99))
      .num("gen_lag_ms", lag_p99)
      .num("gen_lag_max_ms", quantile(all_lag, 1.0))
      .num("backlog_first", first)
      .num("backlog_second", second)
      .flag("growing", growing)
      .flag("valid", valid)
      .flag("pass", valid && failed == 0 && p99 <= kLimitMs && !growing)
      .nums("probe_s", probe_s)
      .emit();
}

// ---- verification and in-process layer timings ------------------------------

struct Timing {
  double sum_ms = 0.0;
  std::size_t count = 0;
  double mean() const { return count ? sum_ms / static_cast<double>(count) : 0.0; }
};

struct Verdicts {
  std::size_t checked = 0, mismatched = 0;
  Timing advise;  // compute_advise calls, for the cold-advise layer metric
};

/// A request line and the `result` the daemon answered it with.
struct Item {
  std::string line;
  const std::string* served;
};

/// The library's answer to one parsed request.
std::string compute(const serve::Request& req) {
  switch (req.type) {
    case serve::RequestType::kCheck:
      return serve::Engine::compute_check(req.check);
    case serve::RequestType::kFaultcheck:
      return serve::Engine::compute_faultcheck(req.check);
    default:
      return serve::Engine::compute_advise(req.advise);
  }
}

/// Run body(i) for i in [0, n) on `threads` threads (work-stealing by an
/// atomic index) and return the wall time.
template <typename Body>
double run_on_threads(std::size_t n, std::size_t threads, Body&& body) {
  std::atomic<std::size_t> next{0};
  const double t0 = now_s();
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = next++; i < n; i = next++) body(t, i);
      });
    }
  }
  return now_s() - t0;
}

/// Recompute every answer with the library (parse + compute) and count
/// byte mismatches against what was served.
Verdicts verify(const std::vector<Item>& items, std::size_t threads) {
  std::vector<Verdicts> part(threads);
  run_on_threads(items.size(), threads, [&](std::size_t t, std::size_t i) {
    Verdicts& v = part[t];
    ++v.checked;
    const auto doc = obs::parse_json(items[i].line);
    serve::Request req;
    std::string error;
    if (!doc.ok || !serve::parse_request(doc.value, req, error)) {
      ++v.mismatched;
      return;
    }
    const double t0 = now_s();
    const std::string result = compute(req);
    if (req.type == serve::RequestType::kAdvise) {
      v.advise.sum_ms += (now_s() - t0) * 1e3;
      ++v.advise.count;
    }
    if (result != *items[i].served) ++v.mismatched;
  });
  Verdicts all;
  for (const auto& v : part) {
    all.checked += v.checked;
    all.mismatched += v.mismatched;
    all.advise.sum_ms += v.advise.sum_ms;
    all.advise.count += v.advise.count;
  }
  return all;
}

/// Per-call compute time by kind and size class (large = > 256 streams).
struct Timings {
  Timing pdp, pdp_large, ttp, ttp_large, fault, fault_large;
};

/// Compute every query `threads` times over, on `threads` threads (the
/// same work per thread as one pass on one thread); fills `timings`
/// (meaningful for one thread) and returns the wall time.
double compute_all(const std::vector<serve::Request>& queries,
                   std::size_t threads, Timings& timings) {
  std::vector<Timings> part(threads);
  const double wall = run_on_threads(
      queries.size() * threads, threads, [&](std::size_t t, std::size_t i) {
        const serve::Request& req = queries[i % queries.size()];
        const double t0 = now_s();
        compute(req);
        const double ms = (now_s() - t0) * 1e3;
        Timings& tm = part[t];
        const bool ttp = req.check.protocol == "fddi";
        const bool fault = req.type == serve::RequestType::kFaultcheck;
        Timing& all = fault ? tm.fault : ttp ? tm.ttp : tm.pdp;
        Timing& large = fault ? tm.fault_large : ttp ? tm.ttp_large : tm.pdp_large;
        all.sum_ms += ms;
        ++all.count;
        if (req.check.set.size() > 256) {
          large.sum_ms += ms;
          ++large.count;
        }
      });
  for (const auto& p : part) {
    for (auto [dst, src] :
         {std::pair{&timings.pdp, &p.pdp}, std::pair{&timings.pdp_large, &p.pdp_large},
          std::pair{&timings.ttp, &p.ttp}, std::pair{&timings.ttp_large, &p.ttp_large},
          std::pair{&timings.fault, &p.fault},
          std::pair{&timings.fault_large, &p.fault_large}}) {
      dst->sum_ms += src->sum_ms;
      dst->count += src->count;
    }
  }
  return wall;
}

/// Mean wire-stage cost per line: parse_json + parse_request + cache_key.
double wire_us(const std::vector<std::string>& lines) {
  const double t0 = now_s();
  std::size_t keys = 0;
  for (const auto& line : lines) {
    const auto doc = obs::parse_json(line);
    serve::Request req;
    std::string error;
    if (doc.ok && serve::parse_request(doc.value, req, error)) {
      keys += serve::cache_key(req).size();
    }
  }
  const double us = (now_s() - t0) * 1e6 / static_cast<double>(lines.size());
  return keys > 0 ? us : 0.0;
}

/// Mean Engine::handle_line_async time for warm (cached) hot check lines:
/// the reactor's calling convention, where a ready hit completes inline.
double engine_hit_us(const std::vector<std::string>& hot_checks) {
  serve::Engine::Options opt;
  opt.jobs = 1;
  serve::Engine engine(opt);
  std::atomic<std::size_t> answered{0};
  const serve::Engine::Completion count = [&answered](std::string&&) {
    ++answered;
  };
  for (const auto& line : hot_checks) engine.handle_line_async(line, "bench", count);
  engine.drain();
  const int rounds = 20;
  const double t0 = now_s();
  for (int r = 0; r < rounds; ++r) {
    for (const auto& line : hot_checks) {
      engine.handle_line_async(line, "bench", count);
    }
  }
  const double us = (now_s() - t0) * 1e6 /
                    static_cast<double>(rounds * hot_checks.size());
  engine.drain();
  return answered == (rounds + 1) * hot_checks.size() ? us : 0.0;
}

std::uint64_t stat_field(const obs::JsonValue& result, const char* group,
                         const char* name) {
  const obs::JsonValue* g = result.find(group);
  const obs::JsonValue* v = g ? g->find(name) : nullptr;
  return v && v->is_number() ? v->as_uint64() : 0;
}

double latency_field(const obs::JsonValue& result, const char* name) {
  const obs::JsonValue* g = result.find("latency_us");
  const obs::JsonValue* v = g ? g->find(name) : nullptr;
  return v && v->is_number() ? v->as_double() : 0.0;
}

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start < csv.size()) {
    const auto comma = csv.find(',', start);
    out.push_back(std::stod(csv.substr(start, comma - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int run_serve_mode(const Args& args) {
  const std::string tool = args.str("tool");
  const std::uint64_t seed = args.u64("seed");
  const std::size_t nproc = args.u64("nproc");
  // The nominal rung and its total length, then the other rungs and theirs.
  const double nominal = args.num("nominal");
  const double nominal_s = args.num("nominal-s");
  const std::vector<double> rates = parse_list(args.str("rates"));
  const std::vector<double> rate_s = parse_list(args.str("rate-s"));
  const bool trace = args.u64("trace") != 0;
  const double fill_s = args.num("fill-s");
  const std::uint64_t saturate = args.u64("saturate");
  const std::uint64_t pinned = args.u64("pinned");
  if (rates.size() != rate_s.size()) {
    throw std::invalid_argument("--rates and --rate-s differ in length");
  }

  // Thread budget: compute jobs + one reactor + this generator = nproc.
  const std::size_t jobs = nproc >= 3 ? nproc - 2 : 1;
  const std::size_t conns = std::max<std::size_t>(1, nproc);
  const std::vector<std::string> argv = {
      tool, "serve", "--port=0", "--jobs=" + std::to_string(jobs),
      "--reactors=1", "--cache-capacity=" + std::to_string(kCachePerShard)};
  const std::vector<std::string> hot = hot_bodies(seed, kHotChecks);
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // Offline single-verdict compute: Engine::compute_check/compute_faultcheck
  // over a pinned mix drawn like the unique misses but from a fixed seed,
  // so its cost does not move with --seed (a few heavy faultchecks
  // dominate a seeded mix's total). Parsing happens once, untimed: it is
  // allocation-bound and swings with neighbours on a shared host, and the
  // wire stage has its own layer metric. Timed on one thread and on nproc
  // threads, in slices between host probes; each pass is short, so it
  // repeats and run.py takes each slice's median. The nproc-thread pass
  // computes the mix nproc times over, so both passes last about as long.
  // This runs first, in a fresh process: after the load phases the heap
  // holds the served answers, and the compute handlers allocate.
  std::vector<serve::Request> pinned_queries;
  for (std::uint64_t j = 0; j < pinned; ++j) {
    const auto doc = obs::parse_json(request_line(j, unique_body(kPinnedSeed, j)));
    serve::Request req;
    std::string error;
    if (!doc.ok || !serve::parse_request(doc.value, req, error)) {
      throw std::runtime_error("pinned query does not parse: " + error);
    }
    pinned_queries.push_back(std::move(req));
  }
  // Each pass runs the mix in kComputeChunks slices with a host probe
  // between slices.
  std::vector<std::vector<serve::Request>> slices(kComputeChunks);
  for (std::size_t j = 0; j < pinned_queries.size(); ++j) {
    slices[j * kComputeChunks / pinned_queries.size()].push_back(
        pinned_queries[j]);
  }
  Timings serial;
  std::vector<Probed> serial_passes, parallel_passes;
  for (std::size_t pass = 0; pass < kComputePasses; ++pass) {
    for (const std::size_t threads : {std::size_t{1}, nproc}) {
      Timings t;
      const Probed wall = probed(kComputeChunks, threads, [&](std::size_t c) {
        compute_all(slices[c], threads, t);
      });
      (threads == 1 ? serial_passes : parallel_passes).push_back(wall);
      if (threads == 1 && pass == 0) serial = t;
    }
  }

  // Each launch: set-up (launch until the hot set is warm), a cache fill,
  // one segment of the nominal rung, then the saturation pass. Latency and
  // capacity on this kind of virtual machine shift from one daemon process
  // to the next, so both are spread over every launch. The other rungs run
  // on the last one.
  Served served;
  std::vector<double> setup_s, setup_probe_s, launch_rss_mb;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Load> load;
  bool warm_ok = true;
  const std::size_t runs = trace ? 1 : kLaunches;
  for (std::size_t i = 0; i < runs; ++i) {
    load.reset();
    daemon.reset();
    const double setup_probe = host_probe_s(kBusyThreads);
    const double t0 = now_s();
    daemon = launch_daemon(argv);
    load = std::make_unique<Load>(seed, hot, daemon->port, conns, served);
    warm_ok &= load->warm();
    setup_s.push_back(now_s() - t0);
    setup_probe_s.push_back((setup_probe + host_probe_s(kBusyThreads)) / 2.0);
    // Fill, untimed but checked: traffic until the result cache is full
    // and evicting, so the rungs see the steady state (on a fresh VM the
    // first touches of new memory also stall).
    emit_step(load->step(nominal, fill_s), "fill");
    emit_step(load->step(nominal, nominal_s / static_cast<double>(runs)),
              "nominal");
    if (trace) continue;
    // The saturation pass in slices, a host probe between slices (the
    // daemon is idle while it runs).
    double probe = host_probe_s(kBusyThreads);
    for (std::size_t c = 0; c < kSaturateChunks; ++c) {
      const Step step = load->saturate(saturate / kSaturateChunks);
      const double next = host_probe_s(kBusyThreads);
      emit_step(step, "saturate", {probe, next});
      probe = next;
    }
    launch_rss_mb.push_back(peak_rss_mb(daemon->pid));
  }
  Line()
      .str("event", "setup")
      .nums("setup_s", setup_s)
      .nums("setup_probe_s", setup_probe_s)
      .flag("warm_ok", warm_ok)
      .u64("jobs", jobs)
      .u64("reactors", 1)
      .u64("connections", conns)
      .emit();

  for (std::size_t i = 0; i < rates.size() && !trace; ++i) {
    emit_step(load->step(rates[i], rate_s[i]), "rung");
  }

  const std::string stats_line = load->stats();
  // Peak memory: the median over launches, each read after its saturation
  // pass (malloc's per-thread arenas make one launch's figure jitter).
  if (trace) launch_rss_mb.push_back(peak_rss_mb(daemon->pid));
  const double daemon_rss = median(launch_rss_mb);
  const int exit_code = stop_daemon(*daemon);
  const std::string_view stats_result = result_of(stats_line, 0);
  const auto stats_doc = obs::parse_json(stats_result);
  Line daemon_line;
  daemon_line.str("event", "daemon")
      .num("peak_rss_mb", daemon_rss)
      .u64("exit_code", static_cast<std::uint64_t>(exit_code))
      .flag("stats_ok", stats_doc.ok);
  if (stats_doc.ok) {
    const auto& r = stats_doc.value;
    const double hits = stat_field(r, "counters", "serve.cache.hits");
    const double misses = stat_field(r, "counters", "serve.cache.misses");
    daemon_line.num("serve.hit_ratio", hits / std::max(1.0, hits + misses))
        .u64("serve.cache.evictions",
             stat_field(r, "counters", "serve.cache.evictions"))
        .u64("serve.shed", stat_field(r, "counters", "serve.shed"))
        .u64("serve.batch.peak_depth",
             stat_field(r, "gauges", "serve.batch.peak_depth"))
        .u64("serve.ratelimit.rejected",
             stat_field(r, "counters", "serve.ratelimit.rejected"))
        .num("request_p50_us", latency_field(r, "p50"))
        .num("request_p99_us", latency_field(r, "p99"));
  }
  daemon_line.emit();

  // The byte-equality gate: every served answer against the library.
  std::vector<Item> served_items, hot_items;
  for (const auto& [j, result] : served.unique) {
    served_items.push_back({request_line(j, unique_body(seed, j)), &result});
  }
  std::vector<std::string> hot_check_lines;
  for (std::size_t h = 0; h < hot.size(); ++h) {
    hot_items.push_back({request_line(h, hot[h]), &served.hot[h]});
    if (hot[h].find("\"advise\"") == std::string::npos) {
      hot_check_lines.push_back(hot_items.back().line);
    }
  }
  const Verdicts served_v = verify(served_items, nproc);
  const Verdicts hot_v = verify(hot_items, nproc);

  Line verdict;
  verdict.str("event", "verify")
      .u64("checked", served_v.checked + hot_v.checked)
      .u64("mismatched",
           served_v.mismatched + hot_v.mismatched + served.wrong)
      .u64("unique_requests", served_items.size())
      .u64("pinned_queries", pinned_queries.size())
      .u64("jobs", nproc);
  if (trace) {
    std::vector<std::string> lines;
    for (const auto& item : hot_items) lines.push_back(item.line);
    for (const auto& item : served_items) lines.push_back(item.line);
    verdict.num("serve.wire_us", wire_us(lines))
        .num("serve.engine_hit_us", engine_hit_us(hot_check_lines))
        .num("analysis.check_pdp_ms", serial.pdp.mean())
        .num("analysis.check_pdp_large_ms", serial.pdp_large.mean())
        .num("analysis.check_ttp_ms", serial.ttp.mean())
        .num("analysis.check_ttp_large_ms", serial.ttp_large.mean())
        .num("fault.faultcheck_ms", serial.fault.mean())
        .num("fault.faultcheck_large_ms", serial.fault_large.mean())
        .num("planner.advise_s", hot_v.advise.mean() * 1e-3);
  }
  verdict.emit();
  for (std::size_t pass = 0; pass < kComputePasses; ++pass) {
    Line()
        .str("event", "compute")
        .probed("wall", serial_passes[pass])
        .probed("wall_par", parallel_passes[pass])
        .emit();
  }
  return 0;
}

}  // namespace perfbench
