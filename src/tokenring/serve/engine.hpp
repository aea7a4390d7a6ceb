// Request engine of the admission-control service.
//
// handle_line_async() is the whole per-request pipeline, transport-free so
// tests drive it without sockets:
//
//   size gate (413) -> parse_json (400 + byte offset) -> parse_request
//   (400 naming the field) -> ping/stats answered inline -> deadline
//   pre-check (504) -> load shed (503, cache hits exempt) -> rate limit
//   (429 + retry hint) -> ready cache hits inline -> batcher job
//   (single-flight cache, deadline re-check 504) -> compute.
//
// Everything up to and including the ready-hit probe runs on the calling
// thread and never blocks, which is what lets a reactor thread multiplex
// thousands of connections through here. The batcher job owns a copy of
// the request and the completion callback: pool threads call `done`, and
// the reactor posts the response back to the connection's owning shard.
// handle_line() is a blocking wrapper over the same pipeline for
// in-process callers and the tests.
//
// Overload policy (see DESIGN.md §4h): a request that cannot be answered
// usefully is refused as early and as cheaply as possible. Expired
// deadlines are detected before any queueing (the client has already
// given up; computing would be pure waste), then misses are shed against
// the batcher's high-water mark (hits and in-flight joins cost no
// compute, so they keep flowing even under overload), and only then does
// the rate limiter charge the client. Inside the batcher each job
// re-checks its deadline at compute start, so work that expired while
// queued is skipped, not executed.
//
// Compute handlers and the offline `tokenring_tool` subcommands share the
// protocol table (planner/protocol.hpp: ring sizing, analysis parameters,
// fault-margin rows), so a daemon verdict is the one the CLI prints for
// the same query — the service is a faster path to the same answer, never
// a different answer (tool_test's OfflineEqualsServed.* checks it).
//
// Compute runs on the Batcher's executor group dispatch; handlers
// themselves are sequential (nested parallel_for on one pool would
// deadlock), so the parallelism is across queries: the advise handler's
// saturation searches run one scalar kernel after another inside its job.
//
// Every compute result is checked to be valid JSON once, on the pool
// thread, before it enters the cache; the ready-hit path then wraps it in
// the success envelope by plain string appends.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "tokenring/exec/executor.hpp"
#include "tokenring/serve/batcher.hpp"
#include "tokenring/serve/cache.hpp"
#include "tokenring/serve/rate_limit.hpp"
#include "tokenring/serve/wire.hpp"

namespace tokenring::serve {

class Engine {
 public:
  struct Options {
    /// Worker threads for batched compute; 0 picks exec::default_jobs().
    std::size_t jobs = 0;
    /// Max compute jobs fanned out per batch group; 0 matches the pool
    /// width.
    std::size_t max_group = 0;
    /// Requests longer than this are rejected with a 413.
    std::size_t max_request_bytes = 1 << 20;
    /// Load-shedding watermark: a compute request that would miss the
    /// cache is refused with a 503 once this many jobs are queued or in
    /// flight. 0 sheds every miss (serve-from-cache-only mode).
    std::size_t high_water = 512;
    ResultCache::Options cache;
    RateLimiter::Options limit;
  };

  /// `clock` returns monotonic nanoseconds; the default reads
  /// std::chrono::steady_clock. Injected so rate-limit tests control time.
  explicit Engine(const Options& options,
                  std::function<std::uint64_t()> clock = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Invoked exactly once with the finished response line. May run inline
  /// on the calling thread (refusals, ping/stats, cache hits) or later on
  /// a batcher pool thread (compute); callers that need thread affinity
  /// (the reactor) re-route from inside the callback.
  using Completion = std::function<void(std::string&&)>;

  /// Process one request line (no trailing newline) and return the
  /// response line. Never throws: every failure becomes a structured
  /// error response. `fallback_client` is the rate-limit key for requests
  /// without a "client" field (the server passes the peer address).
  /// Blocking wrapper over handle_line_async for in-process callers and
  /// tests — one pipeline, two calling conventions.
  std::string handle_line(std::string_view line,
                          const std::string& fallback_client);

  /// Asynchronous form for the reactor: the event-loop thread
  /// runs only the cheap gates (size/parse, ping/stats, deadline
  /// pre-check, load shed, rate limit, ready cache hits) and never blocks;
  /// anything needing compute — including single-flight joins on an
  /// in-flight key — is handed to the batcher, whose pool thread invokes
  /// `done`. The request is copied into the job, so the caller's line
  /// buffer may be reused the moment this returns.
  void handle_line_async(std::string_view line,
                         const std::string& fallback_client, Completion done);

  /// Block until every accepted compute job has finished (graceful
  /// shutdown: the server stops reading first, then drains).
  void drain();

  /// Ready entries currently cached.
  std::size_t cache_size() const { return cache_.size(); }

  /// The admission queue, public so overload tests can wedge it with a
  /// gated job and observe shedding deterministically (same precedent as
  /// the public compute handlers below).
  Batcher& batcher() { return batcher_; }

  // Compute handlers, public so tests can compare a daemon response's
  // "result" byte-for-byte against a direct library call.
  static std::string compute_check(const CheckQuery& query);
  static std::string compute_faultcheck(const CheckQuery& query);
  static std::string compute_advise(const AdviseQuery& query);

 private:
  void dispatch_async(Request request, const std::string& fallback_client,
                      std::uint64_t start_ns, Completion done);
  std::string render_stats();
  /// Back-off hint for a shed response: EWMA job cost scaled by the
  /// backlog ahead of the request, floored so a cold server still hints
  /// a sane pause.
  std::uint64_t shed_retry_after_ns() const;

  Options options_;
  std::function<std::uint64_t()> clock_;
  exec::Executor executor_;
  ResultCache cache_;
  RateLimiter limiter_;
  Batcher batcher_;
  /// EWMA of one compute job's wall time [ns], relaxed atomics (an
  /// approximate hint, not a synchronized quantity).
  std::atomic<std::uint64_t> job_ewma_ns_{0};
};

}  // namespace tokenring::serve
