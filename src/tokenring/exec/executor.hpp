// Parallel-for / map-reduce driver over the thread pool.
//
// `Executor` is the object the library threads through its hot paths: it
// owns a `ThreadPool` when jobs > 1 and degenerates to a plain inline loop
// when jobs == 1, so sequential execution stays a first-class, dependency-
// free code path. Determinism contract: `parallel_for` promises nothing
// about execution order, so callers that need reproducible results must
// make every index self-contained (e.g. per-index seed streams, see
// seed_stream.hpp) and reduce in index order — which `map_reduce` does.
// Under that discipline results are bit-identical for any jobs value.

#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "tokenring/exec/thread_pool.hpp"

namespace tokenring::exec {

/// Worker count to use when the caller does not specify one: the hardware
/// concurrency, or 1 when the runtime cannot report it.
std::size_t default_jobs();

/// Cooperative cancellation: hand the same token to a running sweep and to
/// whoever may abort it; `request_cancel` makes the sweep stop scheduling
/// new indices and throw `Cancelled` once in-flight ones finish.
class CancellationToken {
 public:
  CancellationToken() : cancelled_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const { cancelled_->store(true); }
  bool cancel_requested() const { return cancelled_->load(); }

 private:
  std::shared_ptr<std::atomic<bool>> cancelled_;
};

/// Thrown by parallel_for/map_reduce when their token was cancelled.
class Cancelled : public std::runtime_error {
 public:
  Cancelled() : std::runtime_error("execution cancelled") {}
};

/// Optional hooks for one parallel_for/map_reduce call.
struct ParallelForOptions {
  /// Called after each index completes, as (done, total). Serialized by the
  /// driver; may be invoked from worker threads.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Checked before each index starts.
  std::optional<CancellationToken> cancel;
};

/// Execution policy: jobs == 1 runs inline on the calling thread; jobs > 1
/// runs on an owned ThreadPool. Create one per sweep and reuse it for every
/// point — pool startup is paid once, not per estimate.
class Executor {
 public:
  /// `jobs` == 0 picks default_jobs().
  explicit Executor(std::size_t jobs = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t jobs() const { return jobs_; }

  /// Run body(i) for every i in [0, n). Blocks until all indices finished.
  /// The first exception thrown by a body (lowest index wins when several
  /// throw) is rethrown here; remaining indices are skipped once a failure
  /// or cancellation is observed. Throws `Cancelled` if the token fired.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    const ParallelForOptions& options = {}) const;

 private:
  std::size_t jobs_;
  std::unique_ptr<ThreadPool> pool_;  // null iff jobs_ == 1
};

/// Deterministic parallel map + ordered fold: results[i] = map_fn(i) are
/// computed in parallel, then folded left-to-right in index order as
/// acc = reduce_fn(acc, results[i]). The fold order (and therefore any
/// floating-point rounding) is independent of the jobs count. The mapped
/// type may differ from the accumulator type.
template <typename T, typename MapFn, typename ReduceFn>
T map_reduce(const Executor& executor, std::size_t n, T init, MapFn&& map_fn,
             ReduceFn&& reduce_fn, const ParallelForOptions& options = {}) {
  using Mapped = std::decay_t<std::invoke_result_t<MapFn&, std::size_t>>;
  std::vector<std::optional<Mapped>> results(n);
  executor.parallel_for(
      n, [&](std::size_t i) { results[i].emplace(map_fn(i)); }, options);
  T acc = std::move(init);
  for (auto& r : results) acc = reduce_fn(std::move(acc), std::move(*r));
  return acc;
}

}  // namespace tokenring::exec
