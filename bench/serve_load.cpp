// Load benchmark for the admission-control daemon: an in-process Server on
// a loopback ephemeral port, hammered by pipelined client connections.
//
// The workload is the pattern the serve/ cache is designed for: a hot set
// of distinct advise queries (operators tune a config, then re-ask), all
// pre-warmed so the steady state measures the service path — framing,
// parse, canonicalization, cache hit, envelope — not the Monte Carlo
// sweep. Each client keeps `--pipeline` requests in flight, so the
// syscall cost amortizes and the daemon sees the concurrency it was built
// for. Per-request latency is measured send-to-receive at the client
// (responses on one connection return in order).
//
// Emits the usual run manifest with a google-benchmark-shaped
// "benchmarks" table so scripts/check_perf_baseline.py can gate it:
//   BM_ServeAdviseThroughput  aggregate wall ns per completed query
//   BM_ServeAdviseLatencyP50  median client-observed latency [ns]
//   BM_ServeAdviseLatencyP99  tail latency [ns]
//   BM_ServeAdviseLatencyP999 far-tail latency [ns]
//   BM_ServeOverload          ns per structured refusal on a saturated
//                             server (the 503 shed fast path: parse,
//                             watermark check, envelope — no compute)
//   BM_ServeManyConnsReactor  ns per connection to open, serve, and park
//                             --connections mostly-idle peers; the run
//                             fails when each adds more resident memory
//                             than kMaxParkedRssPerConn
//   BM_ServeWireDecode        ns per line for the reactor's decode
//                             (parse_json + parse_request + cache_key) of
//                             check lines of 16..128 streams, in process
//                             and without a socket
// A "connection_sweep" table records client-observed p50/p99/p99.9 for
// the pipelined hot mix while 64..--connections idle peers are parked on
// the same server (the scaling curve in EXPERIMENTS.md).
// --min-qps turns the throughput target into a hard failure (CI smoke
// runs use a modest floor; the tentpole claim is >= 100k queries/s on a
// development machine). --deadline-ms attaches a per-request deadline to
// every hot-set query; shed/timeout totals are reported either way.
//
// All client connects are nonblocking with bounded retries, and the
// parked pool opens in waves smaller than the listen backlog: a naive
// connect() flood at --connections=4096 overruns the accept queue, the
// kernel drops SYNs, and the bench ends up timing 1 s SYN-retransmit
// stalls instead of the server.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/obs/json.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/obs/report.hpp"
#include "tokenring/planner/protocol.hpp"
#include "tokenring/serve/backoff.hpp"
#include "tokenring/serve/server.hpp"
#include "tokenring/serve/wire.hpp"

namespace {

using namespace tokenring;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One advise request line from the hot set; `slot` varies the seed so the
/// hot set holds distinct cache entries, not one. `deadline_ms` > 0
/// attaches a per-request deadline (expired ones come back as 504s).
std::string advise_line(int slot, int sets, double deadline_ms) {
  std::string line =
      "{\"type\":\"advise\",\"id\":" + std::to_string(slot) +
      ",\"stations\":20,\"mean_period_ms\":100,\"period_ratio\":10,"
      "\"bandwidths_mbps\":[16,100],\"sets\":" + std::to_string(sets) +
      ",\"seed\":" + std::to_string(slot + 1);
  if (deadline_ms > 0.0) {
    line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  return line + "}";
}

/// A cold check query per slot for the overload phase: every one is a
/// distinct cache miss, so a zero-high-water server sheds it.
std::string cold_check_line(int slot) {
  return "{\"type\":\"check\",\"id\":" + std::to_string(slot) +
         ",\"protocol\":\"fddi\",\"bandwidth_mbps\":100,\"streams\":["
         "{\"station\":0,\"period_ms\":" + std::to_string(50 + slot) +
         ",\"payload_bits\":10000}]}";
}

/// A check line of `n` streams under the paper's period law, numbers in
/// shortest round-trip form: the shape of a daemon's recurring queries.
std::string sized_check_line(int slot, int n, const char* protocol) {
  Rng rng(0x5e12'0000ULL + static_cast<std::uint64_t>(slot));
  msg::GeneratorConfig g;
  g.num_streams = n;
  const msg::MessageSet set = msg::MessageSetGenerator(g).generate(rng);
  std::string line = "{\"id\":" + std::to_string(slot) +
                     ",\"type\":\"check\",\"protocol\":\"" + protocol +
                     "\",\"bandwidth_mbps\":100,\"streams\":[";
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto& stream = set[i];
    if (i) line += ',';
    line += "{\"station\":" + std::to_string(stream.station) +
            ",\"period_ms\":" + obs::json_number(stream.period * 1e3) +
            ",\"payload_bits\":" + obs::json_number(stream.payload_bits) +
            '}';
  }
  return line + "]}";
}

/// BM_ServeWireDecode: mean ns per line to decode check lines of 16..128
/// streams (log-spaced, protocols in rotation) the way the reactor does
/// before it can answer from cache. Best of five passes of >= 50 ms each,
/// so a preempted pass does not decide the row.
double wire_decode_ns(std::size_t& decoded) {
  using planner::Protocol;
  constexpr Protocol kRotation[] = {Protocol::kFddi, Protocol::kIeee8025,
                                    Protocol::kModified8025};
  std::vector<std::string> lines;
  for (int n = 16, slot = 0; n <= 128; n = n * 3 / 2, ++slot) {
    lines.push_back(sized_check_line(
        slot, n, planner::protocol_key(kRotation[slot % 3])));
  }
  lines.push_back(
      sized_check_line(static_cast<int>(lines.size()), 128,
                       planner::protocol_key(kRotation[lines.size() % 3])));
  double best = 0.0;
  std::size_t key_bytes = 0;
  decoded = 0;
  for (int pass = 0; pass < 5; ++pass) {
    std::size_t count = 0;
    const std::uint64_t t0 = now_ns();
    std::uint64_t elapsed = 0;
    do {
      for (const auto& line : lines) {
        const obs::JsonParseResult doc = obs::parse_json(line);
        serve::Request request;
        std::string error;
        if (!doc.ok || !serve::parse_request(doc.value, request, error)) {
          std::fprintf(stderr, "wire decode: line %zu rejected: %s\n", count,
                       doc.ok ? error.c_str() : doc.error.c_str());
          std::exit(1);
        }
        key_bytes += serve::cache_key(request).size();
        ++count;
      }
      elapsed = now_ns() - t0;
    } while (elapsed < 50'000'000);
    const double ns = static_cast<double>(elapsed) / static_cast<double>(count);
    if (pass == 0 || ns < best) best = ns;
    decoded += count;
  }
  if (key_bytes == 0) std::exit(1);  // keeps the decode observable
  return best;
}

/// Start a nonblocking connect to 127.0.0.1:port. Returns the fd with the
/// connect in flight (or already established), -1 on immediate failure.
int begin_connect(int port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
          0 ||
      errno == EINPROGRESS) {
    return fd;
  }
  ::close(fd);
  return -1;
}

/// Wait for an in-flight nonblocking connect to resolve; true only when
/// the socket connected cleanly (SO_ERROR == 0) within the timeout.
bool finish_connect(int fd, int timeout_ms) {
  pollfd p{fd, POLLOUT, 0};
  const int rc = ::poll(&p, 1, timeout_ms);
  if (rc <= 0) return false;
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return false;
  return err == 0;
}

bool set_blocking(int fd, bool blocking) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl < 0) return false;
  const int want = blocking ? (fl & ~O_NONBLOCK) : (fl | O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

/// Nonblocking connect with bounded retries, handed back in blocking mode
/// for the closed-loop clients. Refused or stalled attempts back off
/// briefly instead of failing the whole run.
int connect_loopback(int port) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const int fd = begin_connect(port);
    if (fd >= 0) {
      if (finish_connect(fd, 2000) && set_blocking(fd, true)) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return fd;
      }
      ::close(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
  }
  return -1;
}

/// One numeric field of /proc/self/status ("VmRSS:" in kB, "Threads:"),
/// 0 if unreadable.
std::uint64_t proc_status_field(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t len = std::strlen(field);
  char line[256];
  std::uint64_t value = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      value = std::strtoull(line + len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

std::uint64_t vm_rss_bytes() { return proc_status_field("VmRSS:") * 1024; }

/// Resident memory a parked connection may add to the process, client
/// and server side together. The reactor's per-connection state (a table
/// entry, an FSM, timers, an epoll registration) measures ~0.72 KiB on a
/// 4-vCPU x86-64 Linux host; a thread per connection costs ~25 KiB
/// (~103 MiB at 4096) and would trip it. Enforced from
/// kMinConnsForRssBound parked connections up: below that, page
/// granularity makes the per-connection figure too coarse to gate on.
constexpr std::uint64_t kMaxParkedRssPerConn = 1024;
constexpr std::size_t kMinConnsForRssBound = 1024;

/// Lift the soft fd limit toward the hard limit when a run needs more
/// descriptors than the default soft cap allows (2 per parked connection
/// plus slack for the servers and clients).
void raise_fd_limit(std::size_t needed) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  if (rl.rlim_cur >= needed) return;
  rl.rlim_cur = std::min<rlim_t>(rl.rlim_max,
                                 std::max<rlim_t>(needed, rl.rlim_cur));
  ::setrlimit(RLIMIT_NOFILE, &rl);
}

/// A pool of parked, mostly-idle connections. Grown in waves well under
/// the listen backlog, and each wave is pinged (and the responses read)
/// before the next wave connects — so connections sitting established but
/// un-accepted never pile up to the backlog limit, and the kernel never
/// silently drops SYNs into 1 s retransmit stalls. What the growth time
/// measures is the server's real per-connection cost: accept, epoll
/// registration, and one served request.
class ParkedPool {
 public:
  static constexpr std::size_t kWave = 256;

  ~ParkedPool() { close_all(); }

  std::size_t size() const { return fds_.size(); }

  /// Grow to `target` parked connections; each new connection has served
  /// exactly one ping before this returns. False on connect/ping failure.
  bool grow(int port, std::size_t target) {
    std::vector<int> wave;
    while (fds_.size() < target) {
      const std::size_t want = std::min(kWave, target - fds_.size());
      wave.clear();
      for (std::size_t i = 0; i < want; ++i) {
        const int fd = begin_connect(port);
        if (fd < 0) {
          for (int open : wave) ::close(open);
          return false;
        }
        wave.push_back(fd);
      }
      for (std::size_t i = 0; i < wave.size(); ++i) {
        int fd = wave[i];
        for (int attempt = 0; !finish_connect(fd, 2000); ++attempt) {
          ::close(fd);
          fd = -1;
          if (attempt >= 8) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
          fd = begin_connect(port);
          if (fd < 0) break;
        }
        wave[i] = fd;
        if (fd < 0) {
          for (int open : wave) {
            if (open >= 0) ::close(open);
          }
          return false;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      if (!ping_wave(wave)) {
        for (int open : wave) ::close(open);
        return false;
      }
      fds_.insert(fds_.end(), wave.begin(), wave.end());
    }
    return true;
  }

  void close_all() {
    for (int fd : fds_) ::close(fd);
    fds_.clear();
  }

 private:
  /// One ping per connection, then wait until every connection has
  /// answered with a full response line.
  bool ping_wave(const std::vector<int>& wave) {
    static const std::string ping = "{\"type\":\"ping\",\"id\":0}\n";
    for (int fd : wave) {
      // The line is a fraction of the send buffer on a fresh socket, so a
      // short write here means the connection is already broken.
      if (::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(ping.size())) {
        return false;
      }
    }
    struct Waiting {
      int fd;
      std::string buf;
    };
    std::vector<Waiting> waiting;
    waiting.reserve(wave.size());
    for (int fd : wave) waiting.push_back({fd, {}});
    std::vector<pollfd> pfds;
    char chunk[4096];
    while (!waiting.empty()) {
      pfds.clear();
      for (const Waiting& w : waiting) pfds.push_back({w.fd, POLLIN, 0});
      const int rc =
          ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 10000);
      if (rc <= 0 && errno != EINTR) return false;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < waiting.size(); ++i) {
        bool done = false;
        if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
          const ssize_t n = ::recv(waiting[i].fd, chunk, sizeof(chunk), 0);
          if (n <= 0) {
            if (n == 0 || (errno != EAGAIN && errno != EINTR)) return false;
          } else {
            waiting[i].buf.append(chunk, static_cast<std::size_t>(n));
            done = waiting[i].buf.find('\n') != std::string::npos;
          }
        }
        if (!done) {
          if (kept != i) waiting[kept] = std::move(waiting[i]);
          ++kept;
        }
      }
      waiting.resize(kept);
    }
    return true;
  }

  std::vector<int> fds_;
};

/// Open, serve one request, and park `n` connections against a dedicated
/// server; reports the per-connection cost (accept + epoll registration +
/// one served ping), the resident memory each connection past the first
/// quarter adds, and how many threads parking started.
struct ManyConnsResult {
  bool ok = false;
  double per_conn_ns = 0.0;
  double rss_per_conn = 0.0;  // bytes
  std::int64_t threads_delta = 0;
};

ManyConnsResult run_many_conns(std::size_t n, std::size_t jobs) {
  ManyConnsResult out;
  serve::Server::Options opt;
  opt.engine.jobs = jobs;
  serve::Server server(opt);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "many-conns server: %s\n", error.c_str());
    return out;
  }
  // The first quarter of the pool pays the one-time costs (allocator
  // arenas, reactor stacks); the memory figure is what each further
  // connection adds.
  const std::size_t first = n / 4;
  ParkedPool pool;
  const std::uint64_t threads_before = proc_status_field("Threads:");
  const std::uint64_t t0 = now_ns();
  bool parked = pool.grow(server.port(), first);
  const std::uint64_t rss_first = vm_rss_bytes();
  parked = parked && pool.grow(server.port(), n);
  if (!parked) {
    std::fprintf(stderr, "many-conns: failed to park %zu connections\n", n);
    server.request_stop();
    server.wait();
    return out;
  }
  const std::uint64_t t1 = now_ns();
  const std::uint64_t rss_parked = vm_rss_bytes();
  out.per_conn_ns =
      static_cast<double>(t1 - t0) / static_cast<double>(n);
  out.rss_per_conn =
      rss_parked > rss_first
          ? static_cast<double>(rss_parked - rss_first) /
                static_cast<double>(n - first)
          : 0.0;
  out.threads_delta =
      static_cast<std::int64_t>(proc_status_field("Threads:")) -
      static_cast<std::int64_t>(threads_before);
  out.ok = true;
  pool.close_all();
  server.request_stop();
  server.wait();
  return out;
}

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

struct ClientResult {
  std::vector<std::uint64_t> latencies_ns;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool ok = false;
  /// Client-observed response statuses (200 / 429 / 503 / 504 / other).
  std::uint64_t served = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
};

/// Pull the "status" code out of one response line without a full JSON
/// parse (the envelope always spells it "status":NNN).
int response_status(std::string_view line) {
  const auto at = line.find("\"status\":");
  if (at == std::string_view::npos) return -1;
  int status = 0;
  for (std::size_t i = at + 9; i < line.size() && line[i] >= '0' &&
                               line[i] <= '9';
       ++i) {
    status = status * 10 + (line[i] - '0');
  }
  return status;
}

void tally_status(ClientResult& out, std::string_view line) {
  switch (response_status(line)) {
    case 200:
      ++out.served;
      break;
    case 429:
      ++out.rate_limited;
      break;
    case 503:
      ++out.shed;
      break;
    case 504:
      ++out.timed_out;
      break;
    default:
      break;
  }
}

/// Closed loop with a fixed pipeline depth: prime `depth` requests, then
/// send one more for every response line read.
void run_client(int port, const std::vector<std::string>& lines,
                std::size_t requests, std::size_t depth, ClientResult& out) {
  const int fd = connect_loopback(port);
  if (fd < 0) return;
  out.latencies_ns.reserve(requests);
  std::vector<std::uint64_t> sent_at;
  sent_at.reserve(requests);

  std::size_t sent = 0;
  std::size_t received = 0;
  std::string buffer;
  char chunk[16384];
  out.start_ns = now_ns();

  const auto push_one = [&] {
    const std::string& line = lines[sent % lines.size()];
    sent_at.push_back(now_ns());
    ++sent;
    std::string wire = line;
    wire.push_back('\n');
    return send_all(fd, wire.data(), wire.size());
  };

  for (std::size_t i = 0; i < std::min(depth, requests); ++i) {
    if (!push_one()) {
      ::close(fd);
      return;
    }
  }
  while (received < requests) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      tally_status(out, std::string_view(buffer).substr(start, nl - start));
      start = nl + 1;
      out.latencies_ns.push_back(now_ns() - sent_at[received]);
      ++received;
      if (sent < requests && !push_one()) break;
    }
    buffer.erase(0, start);
  }
  out.end_ns = now_ns();
  ::close(fd);
  out.ok = received == requests;
}

/// The retry_after_ms hint from a 429/503 envelope, in nanoseconds.
std::uint64_t parse_retry_after_ns(const std::string& line) {
  const auto at = line.find("\"retry_after_ms\":");
  if (at == std::string::npos) return 0;
  const double ms = std::strtod(line.c_str() + at + 17, nullptr);
  return ms > 0.0 ? static_cast<std::uint64_t>(ms * 1e6) : 0;
}

/// Warm the cache one request at a time, retrying structured refusals
/// (429 rate-limited, 503 shed) with the shared backoff policy — the same
/// hint-plus-full-jitter discipline scripts/serve_client.py implements.
bool warm_with_retries(int port, const std::vector<std::string>& lines) {
  const int fd = connect_loopback(port);
  if (fd < 0) return false;
  Rng rng(0x5eedu);
  const serve::BackoffPolicy policy;
  std::string buffer;
  char chunk[4096];
  for (const std::string& line : lines) {
    for (int attempt = 0;; ++attempt) {
      std::string wire = line;
      wire.push_back('\n');
      if (!send_all(fd, wire.data(), wire.size())) {
        ::close(fd);
        return false;
      }
      std::size_t nl;
      while ((nl = buffer.find('\n')) == std::string::npos) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          ::close(fd);
          return false;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
      }
      const std::string response = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      const int status = response_status(response);
      if (status != 429 && status != 503) break;
      if (attempt >= 10) {
        ::close(fd);
        return false;
      }
      const std::uint64_t delay = serve::retry_delay_ns(
          policy, attempt, parse_retry_after_ns(response), rng);
      std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
    }
  }
  ::close(fd);
  return true;
}

std::uint64_t percentile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("clients", "8", "concurrent client connections");
  flags.declare("requests", "20000", "requests per client");
  flags.declare("pipeline", "64", "requests kept in flight per client");
  flags.declare("hot-set", "64", "distinct advise queries in the hot set");
  flags.declare("sets", "8", "Monte Carlo sets per advise query");
  flags.declare("min-qps", "0",
                "fail unless aggregate throughput reaches this [queries/s]");
  flags.declare("deadline-ms", "0",
                "attach this deadline to every hot-set query [ms]; 0 = none");
  flags.declare("connections", "1024",
                "parked-connection count for the sweep and "
                "BM_ServeManyConnsReactor (0 = skip both)");
  obs::RunReport report("serve_load");
  if (auto rc = obs::bootstrap_run(report, flags, argc, argv)) return *rc;

  serve::Server::Options opt;
  opt.engine.jobs = get_jobs(flags);
  serve::Server server(opt);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  const auto clients = static_cast<std::size_t>(flags.get_int("clients"));
  const auto requests = static_cast<std::size_t>(flags.get_int("requests"));
  const auto depth =
      std::max<std::size_t>(1, static_cast<std::size_t>(flags.get_int("pipeline")));
  const auto hot_set = std::max<std::size_t>(
      1, static_cast<std::size_t>(flags.get_int("hot-set")));
  const int sets = static_cast<int>(flags.get_int("sets"));
  const double deadline_ms = flags.get_double("deadline-ms");
  const auto connections =
      static_cast<std::size_t>(flags.get_int("connections"));

  // 2 fds per parked connection (client + server side) plus slack for the
  // servers, clients, and engine plumbing.
  raise_fd_limit(2 * connections + 256);

  // Many-connections run: park N idle peers on a server of their own and
  // bound the resident memory each adds. First, before the load phases
  // warm the allocator, so reused free pages cannot hide the growth.
  ManyConnsResult parked_conns;
  if (connections > 0) {
    parked_conns = run_many_conns(connections, get_jobs(flags));
    if (!parked_conns.ok) return 1;
    report.note(
        "%zu parked connections: %.1f us/conn, %.0f bytes resident per "
        "connection (bound %llu from %zu connections), %lld threads started "
        "while parking\n",
        connections, parked_conns.per_conn_ns * 1e-3,
        parked_conns.rss_per_conn,
        static_cast<unsigned long long>(kMaxParkedRssPerConn),
        kMinConnsForRssBound,
        static_cast<long long>(parked_conns.threads_delta));
  }

  // Deadlines are not part of the cache identity, so warming without one
  // still turns the measured phase into cache hits even when --deadline-ms
  // marks every measured query.
  std::vector<std::string> warm_lines;
  std::vector<std::string> lines;
  warm_lines.reserve(hot_set);
  lines.reserve(hot_set);
  for (std::size_t i = 0; i < hot_set; ++i) {
    warm_lines.push_back(advise_line(static_cast<int>(i), sets, 0.0));
    lines.push_back(advise_line(static_cast<int>(i), sets, deadline_ms));
  }

  // Warm every hot-set entry through one connection so the measured phase
  // is all cache hits (the recurring-query steady state). Refusals are
  // retried with the shared backoff policy rather than failing the run.
  if (!warm_with_retries(server.port(), warm_lines)) {
    std::fprintf(stderr, "warmup failed\n");
    return 1;
  }

  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      run_client(server.port(), lines, requests, depth, results[c]);
    });
  }
  for (auto& t : threads) t.join();

  std::vector<std::uint64_t> latencies;
  std::uint64_t first_start = UINT64_MAX;
  std::uint64_t last_end = 0;
  std::uint64_t served = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  bool all_ok = true;
  for (const ClientResult& r : results) {
    all_ok = all_ok && r.ok;
    latencies.insert(latencies.end(), r.latencies_ns.begin(),
                     r.latencies_ns.end());
    first_start = std::min(first_start, r.start_ns);
    last_end = std::max(last_end, r.end_ns);
    served += r.served;
    rate_limited += r.rate_limited;
    shed += r.shed;
    timed_out += r.timed_out;
  }
  if (!all_ok || latencies.empty()) {
    std::fprintf(stderr, "load run failed: a client lost its connection\n");
    return 1;
  }

  const std::uint64_t wall_ns = last_end - first_start;
  const auto total = static_cast<double>(latencies.size());
  const double ns_per_query = static_cast<double>(wall_ns) / total;
  const double qps = 1e9 / ns_per_query;
  const std::uint64_t p50 = percentile(latencies, 0.50);
  const std::uint64_t p90 = percentile(latencies, 0.90);
  const std::uint64_t p99 = percentile(latencies, 0.99);
  const std::uint64_t p999 = percentile(latencies, 0.999);

  // Connection-count sweep: park growing tiers of idle connections on the
  // still-warm server and re-measure the pipelined hot mix at each tier.
  // The tier rows go in their own manifest table (not "benchmarks"): they
  // are the EXPERIMENTS.md scaling curve, not baseline-gated timings.
  Table sweep({"connections", "qps", "p50_us", "p99_us", "p999_us"});
  if (connections > 0) {
    ParkedPool parked;
    const std::size_t sweep_requests = std::min<std::size_t>(requests, 10000);
    std::vector<std::size_t> tiers;
    for (std::size_t tier = 64; tier < connections; tier *= 4) {
      tiers.push_back(tier);
    }
    tiers.push_back(connections);
    for (const std::size_t tier : tiers) {
      if (!parked.grow(server.port(), tier)) {
        std::fprintf(stderr, "sweep: failed to park %zu connections\n", tier);
        return 1;
      }
      ClientResult r;
      run_client(server.port(), lines, sweep_requests, depth, r);
      if (!r.ok) {
        std::fprintf(stderr, "sweep: client lost its connection at %zu "
                             "parked\n", tier);
        return 1;
      }
      const double tier_wall = static_cast<double>(r.end_ns - r.start_ns);
      const double tier_qps =
          1e9 * static_cast<double>(sweep_requests) / tier_wall;
      sweep.add_row(
          {fmt(static_cast<long long>(tier)), fmt(tier_qps, 0),
           fmt(static_cast<double>(percentile(r.latencies_ns, 0.50)) * 1e-3, 1),
           fmt(static_cast<double>(percentile(r.latencies_ns, 0.99)) * 1e-3, 1),
           fmt(static_cast<double>(percentile(r.latencies_ns, 0.999)) * 1e-3,
               1)});
    }
  }

  server.request_stop();
  server.wait();

  const auto metrics = obs::Registry::global().snapshot();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  };

  report.note(
      "%zu clients x %zu requests (pipeline %zu, hot set %zu, deadline %.3g "
      "ms): %.0f queries/s, p50 %.1f us, p99 %.1f us, p99.9 %.1f us\n",
      clients, requests, depth, hot_set, deadline_ms, qps,
      static_cast<double>(p50) * 1e-3, static_cast<double>(p99) * 1e-3,
      static_cast<double>(p999) * 1e-3);
  report.note("cache hits %llu / misses %llu, batch groups %llu\n",
              static_cast<unsigned long long>(counter("serve.cache.hits")),
              static_cast<unsigned long long>(counter("serve.cache.misses")),
              static_cast<unsigned long long>(counter("serve.batch.groups")));
  report.note(
      "statuses: %llu served, %llu rate-limited (429), %llu shed (503), "
      "%llu past-deadline (504); server counters: shed %llu, "
      "deadline_expired %llu\n",
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(rate_limited),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(timed_out),
      static_cast<unsigned long long>(counter("serve.shed")),
      static_cast<unsigned long long>(counter("serve.deadline_expired")));

  // Overload phase: a fresh server with high_water = 0 sheds every cold
  // miss, so driving it with distinct check queries measures the refusal
  // fast path end to end (frame, parse, watermark check, 503 envelope —
  // no compute). This is the latency floor a client sees under shed.
  const std::size_t overload_requests =
      std::max<std::size_t>(1, std::min<std::size_t>(requests, 20000));
  double overload_ns = 0.0;
  {
    serve::Server::Options oopt;
    oopt.engine.jobs = get_jobs(flags);
    oopt.engine.high_water = 0;
    serve::Server overload_server(oopt);
    if (!overload_server.start(error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::vector<std::string> cold;
    cold.reserve(hot_set);
    for (std::size_t i = 0; i < hot_set; ++i) {
      cold.push_back(cold_check_line(static_cast<int>(i)));
    }
    ClientResult refusals;
    run_client(overload_server.port(), cold, overload_requests, depth,
               refusals);
    overload_server.request_stop();
    overload_server.wait();
    if (!refusals.ok) {
      std::fprintf(stderr, "overload phase failed: connection lost\n");
      return 1;
    }
    overload_ns = static_cast<double>(refusals.end_ns - refusals.start_ns) /
                  static_cast<double>(overload_requests);
    report.note(
        "overload phase (high-water 0): %zu cold queries, %llu shed (503), "
        "%.0f refusals/s\n",
        overload_requests, static_cast<unsigned long long>(refusals.shed),
        1e9 / overload_ns);
  }

  std::size_t decoded_lines = 0;
  const double decode_ns = wire_decode_ns(decoded_lines);
  report.note("wire decode (parse_json + parse_request + cache_key, 16..128 "
              "streams): %.2f us per line\n",
              decode_ns * 1e-3);

  Table table({"name", "iterations", "real_time", "cpu_time", "time_unit"});
  const auto add_row = [&](const std::string& name, double ns,
                           std::size_t iterations) {
    table.add_row({name, fmt(static_cast<long long>(iterations)), fmt(ns, 1),
                   fmt(ns, 1), "ns"});
  };
  add_row("BM_ServeAdviseThroughput", ns_per_query, latencies.size());
  add_row("BM_ServeAdviseLatencyP50", static_cast<double>(p50),
          latencies.size());
  add_row("BM_ServeAdviseLatencyP90", static_cast<double>(p90),
          latencies.size());
  add_row("BM_ServeAdviseLatencyP99", static_cast<double>(p99),
          latencies.size());
  add_row("BM_ServeAdviseLatencyP999", static_cast<double>(p999),
          latencies.size());
  add_row("BM_ServeOverload", overload_ns, overload_requests);
  if (connections > 0) {
    add_row("BM_ServeManyConnsReactor", parked_conns.per_conn_ns,
            connections);
    report.record_table("connection_sweep", sweep);
  }
  add_row("BM_ServeWireDecode", decode_ns, decoded_lines);
  report.record_table("benchmarks", table);
  if (report.verbose()) table.print(std::cout);
  if (report.format() == obs::OutputFormat::kCsv) table.print_csv(std::cout);

  if (connections >= kMinConnsForRssBound &&
      parked_conns.rss_per_conn >
          static_cast<double>(kMaxParkedRssPerConn)) {
    std::fprintf(stderr,
                 "FAIL: each parked connection added %.0f bytes resident, "
                 "above the %llu-byte bound\n",
                 parked_conns.rss_per_conn,
                 static_cast<unsigned long long>(kMaxParkedRssPerConn));
    return 1;
  }
  const double min_qps = flags.get_double("min-qps");
  if (min_qps > 0.0 && qps < min_qps) {
    std::fprintf(stderr, "FAIL: %.0f queries/s below the %.0f floor\n", qps,
                 min_qps);
    return 1;
  }
  return report.finish();
}
