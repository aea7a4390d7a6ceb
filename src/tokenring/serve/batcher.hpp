// Request batching onto the exec/ thread pool.
//
// Connection threads do not compute; they enqueue a job and block on its
// future. A single dispatcher thread drains whatever has accumulated —
// up to `max_group` jobs — and runs the whole group as one
// Executor::parallel_for, so a burst of N admission queries costs one
// group dispatch fanned across the pool lanes instead of N uncoordinated
// wakeups. There is no artificial batching window: while one group runs,
// new arrivals pile up and form the next group, which is exactly the
// load-adaptive behaviour wanted — singleton groups under light load,
// wide groups under burst.
//
// Jobs must not recursively use the group executor (nested parallel_for
// on one pool deadlocks); compute handlers run their internal work
// sequentially and get their parallelism across queries.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "tokenring/exec/executor.hpp"

namespace tokenring::serve {

class Batcher {
 public:
  /// `executor` outlives the Batcher and is reserved for group dispatch.
  /// `max_group` bounds one group (>= 1); `max_queue` bounds accepted-but-
  /// undispatched jobs so producers cannot balloon memory.
  Batcher(const exec::Executor& executor, std::size_t max_group,
          std::size_t max_queue = 4096);

  /// Drains every accepted job, then stops the dispatcher.
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueue one job; blocks while the queue is full. The future carries
  /// the job's return value or its exception.
  std::future<std::string> submit(std::function<std::string()> job);

  /// Non-blocking admission: enqueue unless the undispatched queue is at
  /// capacity, in which case nullopt comes back immediately (the caller
  /// sheds with a structured 503 instead of queueing behind an overload).
  std::optional<std::future<std::string>> try_submit(
      std::function<std::string()> job);

  /// Jobs accepted but not yet finished (queued + in flight). The
  /// admission depth the load-shedding watermark compares against.
  std::size_t depth() const;

  /// Block until every job accepted so far has completed. New submissions
  /// during the drain are still accepted (the server stops feeding the
  /// batcher before draining on shutdown).
  void drain();

 private:
  struct Job {
    std::function<std::string()> fn;
    std::promise<std::string> promise;
  };

  void dispatch_loop();

  const exec::Executor& executor_;
  std::size_t max_group_;
  std::size_t max_queue_;

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable idle_;
  std::deque<Job> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::thread dispatcher_;
};

}  // namespace tokenring::serve
