#include "tokenring/serve/engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/common/clock.hpp"
#include "tokenring/obs/json.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/planner/advisor.hpp"
#include "tokenring/planner/protocol.hpp"

namespace tokenring::serve {

namespace {

/// Thrown by a batched job that found its deadline already expired at
/// compute start; dispatch turns it into a 504.
struct DeadlineExceeded {
  double elapsed_ms = 0.0;
};

/// The scenario config for a check query; the wire validated the name.
planner::PlannerConfig query_config(const CheckQuery& query) {
  return planner::scenario_config(
      planner::parse_protocol(query.protocol).value(),
      mbps(query.bandwidth_mbps), query.set);
}

/// Request latency buckets [us], log-spaced from sub-cache-hit to
/// multi-second Monte Carlo sweeps.
const std::vector<double>& latency_bounds_us() {
  static const std::vector<double> bounds = {
      1,    2,    5,     10,    20,    50,     100,    200,     500,
      1000, 2000, 5000,  10000, 20000, 50000,  100000, 200000,  500000,
      1000000, 2000000, 5000000};
  return bounds;
}

}  // namespace

Engine::Engine(const Options& options, std::function<std::uint64_t()> clock)
    : options_(options),
      clock_(clock ? std::move(clock) : steady_now_ns),
      executor_(options.jobs),
      cache_(options.cache),
      limiter_(options.limit),
      // The queue bound tracks the shed watermark so the blocking-submit
      // path can never build a backlog the watermark would have refused;
      // high_water == 0 (cache-only mode) still needs a 1-slot queue for
      // the batcher's invariants.
      batcher_(executor_,
               options.max_group > 0 ? options.max_group : executor_.jobs(),
               std::max<std::size_t>(1, options.high_water)) {}

void Engine::drain() { batcher_.drain(); }

std::string Engine::handle_line(std::string_view line,
                                const std::string& fallback_client) {
  std::mutex mutex;
  std::condition_variable done_cv;
  std::string response;
  bool done = false;
  handle_line_async(line, fallback_client, [&](std::string&& r) {
    std::lock_guard<std::mutex> lock(mutex);
    response = std::move(r);
    done = true;
    done_cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mutex);
  done_cv.wait(lock, [&] { return done; });
  return response;
}

void Engine::handle_line_async(std::string_view line,
                               const std::string& fallback_client,
                               Completion done) {
  static const obs::Counter requests("serve.requests");
  requests.add();
  const std::uint64_t start_ns = clock_();

  // Every exit path reports its latency at completion time, wherever the
  // response was produced (inline refusal or pool-thread compute).
  Completion finish = [this, start_ns,
                       done = std::move(done)](std::string&& response) {
    static const obs::Histogram latency("serve.request_us",
                                        latency_bounds_us());
    latency.observe(static_cast<double>(clock_() - start_ns) * 1e-3);
    done(std::move(response));
  };

  if (line.size() > options_.max_request_bytes) {
    finish(error_response(
        "", 413,
        "request exceeds " + std::to_string(options_.max_request_bytes) +
            " bytes"));
    return;
  }
  const obs::JsonParseResult parsed = obs::parse_json(line);
  if (!parsed.ok) {
    finish(parse_error_response(parsed.error_offset, parsed.error));
    return;
  }
  Request request;
  std::string error;
  if (!parse_request(parsed.value, request, error)) {
    finish(error_response(request.id_token, 400, error));
    return;
  }
  dispatch_async(std::move(request), fallback_client, start_ns,
                 std::move(finish));
}

std::uint64_t Engine::shed_retry_after_ns() const {
  // A cold server has no job history; 25 ms is long enough to let one
  // batch group clear and short enough not to stall an interactive
  // client.
  constexpr std::uint64_t kFloorNs = 25'000'000;
  const std::uint64_t ewma = job_ewma_ns_.load(std::memory_order_relaxed);
  const std::size_t lanes = std::max<std::size_t>(1, executor_.jobs());
  const std::uint64_t backlog_ns =
      ewma * static_cast<std::uint64_t>(batcher_.depth() + 1) / lanes;
  return std::max(kFloorNs, backlog_ns);
}

void Engine::dispatch_async(Request request, const std::string& fallback_client,
                            std::uint64_t start_ns, Completion done) {
  // ping and stats are control-plane traffic: answered inline, never rate
  // limited, never shed, never cached.
  if (request.type == RequestType::kPing) {
    done(success_response(request.id_token, request.type, false,
                          "{\"message\":\"pong\"}"));
    return;
  }
  if (request.type == RequestType::kStats) {
    done(success_response(request.id_token, request.type, false,
                          render_stats()));
    return;
  }

  static const obs::Counter deadline_expired("serve.deadline_expired");
  static const obs::Counter shed("serve.shed");

  // Overload gates, cheapest refusal first (DESIGN.md §4h).
  const std::uint64_t deadline_ns =
      request.deadline_ms > 0.0
          ? static_cast<std::uint64_t>(request.deadline_ms * 1e6)
          : 0;
  if (deadline_ns > 0) {
    const std::uint64_t elapsed = clock_() - start_ns;
    if (elapsed >= deadline_ns) {
      deadline_expired.add();
      done(timeout_response(request.id_token,
                            static_cast<double>(elapsed) * 1e-6));
      return;
    }
  }

  std::string key = cache_key(request);
  if (batcher_.depth() >= options_.high_water && !cache_.likely_present(key)) {
    // The watermark only refuses work that would *add* compute: cached
    // (or already-in-flight) answers keep flowing under overload.
    shed.add();
    done(shed_response(request.id_token, shed_retry_after_ns()));
    return;
  }

  const std::string& client =
      request.client.empty() ? fallback_client : request.client;
  const RateLimiter::Verdict verdict = limiter_.check(client, clock_());
  if (!verdict.allowed) {
    done(rate_limited_response(request.id_token, verdict.retry_after_ns));
    return;
  }

  // Ready hits are answered on the calling thread: no queueing, no copy
  // of the compute pipeline, and — for the reactor — no thread hop.
  if (std::optional<std::string> hit = cache_.try_get(key)) {
    done(success_response(request.id_token, request.type, true,
                          std::move(*hit)));
    return;
  }

  // Miss or in-flight: the batcher job owns the request and the
  // completion. The single-flight join happens inside the job, so a
  // reactor thread never waits on another request's compute; if the
  // computing job fails, a waiting joiner wakes and retries the compute
  // itself under its own deadline (cache.hpp semantics).
  const std::string id_token = request.id_token;
  Completion done_if_refused = done;  // survives the job being rejected
  auto job = [this, request = std::move(request), key = std::move(key),
              start_ns, deadline_ns, done = std::move(done)]() -> std::string {
    std::string response;
    try {
      const ResultCache::Outcome outcome = cache_.get_or_compute(
          key, [this, &request, start_ns, deadline_ns] {
            // The queue wait may have consumed the whole budget; skip
            // the compute rather than produce an answer nobody reads.
            const std::uint64_t begun = clock_();
            if (deadline_ns > 0 && begun - start_ns >= deadline_ns) {
              throw DeadlineExceeded{
                  static_cast<double>(begun - start_ns) * 1e-6};
            }
            std::string value;
            switch (request.type) {
              case RequestType::kCheck:
                value = compute_check(request.check);
                break;
              case RequestType::kFaultcheck:
                value = compute_faultcheck(request.check);
                break;
              default:
                value = compute_advise(request.advise);
                break;
            }
            // Validated once, here on the pool thread: a result that is
            // not valid JSON becomes this request's 500 and never enters
            // the cache, so every hit can be enveloped unchecked.
            TR_EXPECTS_MSG(obs::is_valid_json(value),
                           "compute result is not valid JSON");
            // EWMA (alpha 1/8) of job cost feeds the shed back-off
            // hint; relaxed is fine, it is an estimate.
            const std::uint64_t took = clock_() - begun;
            const std::uint64_t old =
                job_ewma_ns_.load(std::memory_order_relaxed);
            job_ewma_ns_.store(old == 0 ? took : old - old / 8 + took / 8,
                               std::memory_order_relaxed);
            return value;
          });
      response = success_response(request.id_token, request.type, outcome.hit,
                                  outcome.value);
    } catch (const DeadlineExceeded& e) {
      deadline_expired.add();
      response = timeout_response(request.id_token, e.elapsed_ms);
    } catch (const std::exception& e) {
      static const obs::Counter failures("serve.compute_failures");
      failures.add();
      response = error_response(request.id_token, 500, e.what());
    }
    done(std::move(response));
    return std::string();  // the future's value is unused; done() is the
                           // delivery path
  };
  // Admission can race: the watermark passed above, but the queue filled
  // before this submit. Shed instead of blocking.
  if (!batcher_.try_submit(std::move(job))) {
    shed.add();
    done_if_refused(shed_response(id_token, shed_retry_after_ns()));
    return;
  }
}

std::string Engine::compute_check(const CheckQuery& query) {
  const planner::PlannerConfig config = query_config(query);

  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("protocol").value_string(query.protocol);
  if (config.protocol == planner::Protocol::kFddi) {
    const auto v = analysis::ttp_schedulable(
        query.set, planner::ttp_params(config), config.bandwidth);
    w.key("schedulable").value_bool(v.schedulable);
    w.key("ttrt_ms").value_number(to_milliseconds(v.ttrt));
    w.key("allocated_ms").value_number(to_milliseconds(v.allocated));
    w.key("available_ms").value_number(to_milliseconds(v.available));
  } else {
    const auto v = analysis::pdp_schedulable(
        query.set, planner::pdp_params(config), config.bandwidth);
    w.key("schedulable").value_bool(v.schedulable);
    w.key("blocking_us").value_number(to_microseconds(v.blocking));
    w.key("misses").begin_array();
    for (const auto& r : v.reports) {
      if (r.schedulable) continue;
      w.begin_object();
      w.key("station").value_int(r.stream.station);
      w.key("augmented_ms").value_number(to_milliseconds(r.augmented_length));
      w.key("period_ms").value_number(to_milliseconds(r.stream.period));
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return os.str();
}

std::string Engine::compute_faultcheck(const CheckQuery& query) {
  const auto rows = planner::fault_margin_rows(
      query.set, query_config(query), milliseconds(query.noise_ms));

  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("protocol").value_string(query.protocol);
  w.key("noise_ms").value_number(query.noise_ms);
  w.key("schedulable").value_bool(rows.back().report.fault_free_schedulable);
  w.key("margins").begin_array();
  for (const auto& [kind, fmr] : rows) {
    w.begin_object();
    w.key("fault_kind").value_string(fault::to_string(kind));
    w.key("recovery_us").value_number(to_microseconds(fmr.recovery_per_fault));
    if (fmr.margin < 0) {
      w.key("margin").value_null();
    } else {
      w.key("margin").value_int(fmr.margin);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

std::string Engine::compute_advise(const AdviseQuery& query) {
  planner::TrafficProfile profile;
  profile.num_stations = query.stations;
  profile.mean_period = milliseconds(query.mean_period_ms);
  profile.period_ratio = query.period_ratio;

  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("recommendations").begin_array();
  for (double bw : query.bandwidths_mbps) {
    // The inline overload: batch jobs must not re-enter the group
    // executor, and the recommendation is identical for every jobs
    // count, so this matches `tokenring_tool advise`.
    const auto rec = planner::recommend_protocol(
        profile, mbps(bw), static_cast<std::size_t>(query.sets), query.seed);
    w.begin_object();
    w.key("bandwidth_mbps").value_number(bw);
    w.key("ieee8025").value_number(rec.ieee8025);
    w.key("modified8025").value_number(rec.modified8025);
    w.key("fddi").value_number(rec.fddi);
    w.key("resil_8025").value_number(rec.modified8025_resilience);
    w.key("resil_fddi").value_number(rec.fddi_resilience);
    w.key("recommend").value_string(planner::to_string(rec.best));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

std::string Engine::render_stats() {
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("cache_entries").value_uint(cache_.size());
  w.key("batch_depth").value_uint(batcher_.depth());
  w.key("counters").begin_object();
  for (const auto& [name, value] : snapshot.counters) {
    w.key(name).value_uint(value);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snapshot.gauges) {
    w.key(name).value_uint(value);
  }
  w.end_object();
  const auto it = snapshot.histograms.find("serve.request_us");
  w.key("latency_us").begin_object();
  if (it != snapshot.histograms.end()) {
    w.key("count").value_uint(it->second.total);
    w.key("p50").value_number(histogram_percentile(it->second, 0.50));
    w.key("p90").value_number(histogram_percentile(it->second, 0.90));
    w.key("p99").value_number(histogram_percentile(it->second, 0.99));
  } else {
    w.key("count").value_uint(0);
  }
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace tokenring::serve
