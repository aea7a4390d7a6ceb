// PDP simulator golden cases: the configurations whose metrics and traces
// are pinned in tests/fixtures/sim/pdp_*.txt (see the README there), and
// the one record format both the fixtures and sim_pdp_test use.
//
// A record is one block of text per case: `case <name>`, then one
// `name value` line per metric (integers in decimal, doubles as C hex
// floats, so a text comparison is a bit comparison), then the trace's
// record count and the FNV-1a 64-bit digest of its records, each rendered
// as `<at %a> <kind> <station> <detail %a>`. A fault-free case also
// records the events the run executed (the sim.events counter).

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "tokenring/fault/plan.hpp"
#include "tokenring/fault/recovery.hpp"
#include "tokenring/msg/message_set.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/trace.hpp"

namespace tokenring::sim::pdp_golden {

struct Case {
  std::string name;
  msg::MessageSet set;
  SimConfig cfg;
};

inline constexpr int kStations = 12;

/// Twelve streams on ten of the twelve stations (station 4 hosts two,
/// stations 6 and 11 none), each loading a 10 Mbit/s ring by 3%: an
/// overload at 4 Mbit/s, light at 100.
inline msg::MessageSet golden_set() {
  const double periods_ms[] = {5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43};
  const int stations[] = {0, 1, 2, 3, 4, 4, 5, 7, 8, 9, 10, 3};
  msg::MessageSet set;
  for (int i = 0; i < 12; ++i) {
    const Seconds period = milliseconds(periods_ms[i]);
    set.add({.period = period,
             .payload_bits = 0.03 * period * 10e6,
             .station = stations[i]});
  }
  return set;
}

inline SimConfig base_config(analysis::PdpVariant variant, double bw_mbps,
                             AsyncModel async) {
  SimConfig cfg;
  cfg.protocol = Protocol::kPdp;
  cfg.pdp.ring = net::ieee8025_ring(kStations);
  cfg.pdp.frame = net::paper_frame_format();
  cfg.pdp.variant = variant;
  cfg.bandwidth = mbps(bw_mbps);
  cfg.horizon = milliseconds(3 * 43);
  cfg.worst_case_phasing = true;
  cfg.async_model = async;
  cfg.async_frames_per_second = 2000.0;
  cfg.seed = 7;
  return cfg;
}

inline const char* variant_name(analysis::PdpVariant v) {
  return v == analysis::PdpVariant::kStandard8025 ? "ieee8025"
                                                  : "modified8025";
}

inline const char* async_name(AsyncModel m) {
  switch (m) {
    case AsyncModel::kNone:
      return "none";
    case AsyncModel::kSaturating:
      return "saturating";
    case AsyncModel::kPoisson:
      return "poisson";
  }
  return "?";
}

inline std::string case_name(analysis::PdpVariant v, double bw_mbps,
                             AsyncModel m, const char* suffix) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s/%gMbps/%s/%s", variant_name(v), bw_mbps,
                async_name(m), suffix);
  return buf;
}

constexpr analysis::PdpVariant kVariants[] = {
    analysis::PdpVariant::kStandard8025, analysis::PdpVariant::kModified8025};
constexpr AsyncModel kAsyncModels[] = {
    AsyncModel::kSaturating, AsyncModel::kPoisson, AsyncModel::kNone};

/// Fault-free grid: both variants, four bandwidths, three async models,
/// worst-case phasing and random phasing with 30% arrival jitter.
inline std::vector<Case> grid_cases() {
  std::vector<Case> out;
  for (const auto v : kVariants) {
    for (const double bw : {4.0, 10.0, 16.0, 100.0}) {
      for (const auto m : kAsyncModels) {
        auto cfg = base_config(v, bw, m);
        out.push_back({case_name(v, bw, m, "worst"), golden_set(), cfg});
        cfg.worst_case_phasing = false;
        cfg.arrival_jitter = 0.3;
        out.push_back({case_name(v, bw, m, "random-jitter"), golden_set(), cfg});
      }
    }
  }
  return out;
}

/// Faulted runs: random plans of every kind (crashes paired with rejoins),
/// plus scripted ones: a token loss at t=0, a crash and rejoin, and every
/// station down at once before one rejoins.
inline std::vector<Case> fault_cases() {
  std::vector<Case> out;
  fault::FaultRates rates;
  rates.token_loss = 20.0;
  rates.frame_corruption = 60.0;
  rates.noise_burst = 10.0;
  rates.station_crash = 15.0;
  rates.duplicate_token = 10.0;
  rates.noise_duration = microseconds(500);
  rates.crash_downtime = milliseconds(5);
  std::uint64_t seed = 100;
  for (const auto v : kVariants) {
    for (const double bw : {4.0, 16.0, 100.0}) {
      for (const auto m : kAsyncModels) {
        auto cfg = base_config(v, bw, m);
        cfg.worst_case_phasing = (seed % 2) == 0;
        cfg.faults =
            fault::FaultPlan::random(rates, cfg.horizon, seed++, kStations);
        out.push_back({case_name(v, bw, m, "random-faults"), golden_set(), cfg});
      }
    }
  }
  for (const auto v : kVariants) {
    for (const auto m : kAsyncModels) {
      auto cfg = base_config(v, 16.0, m);
      cfg.faults.add_token_loss(0.0);
      out.push_back({case_name(v, 16.0, m, "token-loss-t0"), golden_set(), cfg});

      cfg = base_config(v, 16.0, m);
      cfg.faults.add_station_crash(milliseconds(20), 4, milliseconds(20));
      cfg.faults.add_station_crash(milliseconds(30), 0, milliseconds(25));
      out.push_back({case_name(v, 16.0, m, "crash-rejoin"), golden_set(), cfg});

      cfg = base_config(v, 16.0, m);
      for (int s = 0; s < kStations; ++s) {
        cfg.faults.add_station_crash(milliseconds(10 + s * 0.5), s);
      }
      cfg.faults.add_station_rejoin(milliseconds(40), 7);
      out.push_back({case_name(v, 16.0, m, "all-down-one-back"), golden_set(),
                     cfg});
    }
  }
  return out;
}

/// A token loss at t=0 whose recovery falls at exactly 2P, the instant of
/// a release of period P that was pushed (at P) after the fault.
inline Case recovery_tie_case() {
  auto cfg = base_config(analysis::PdpVariant::kStandard8025, 16.0,
                         AsyncModel::kNone);
  const Seconds outage = fault::pdp_monitor_outage(cfg.pdp, cfg.bandwidth);
  const Seconds period = outage / 2.0;
  cfg.faults.add_token_loss(0.0);
  cfg.horizon = 40.0 * period;
  msg::MessageSet set;
  set.add({.period = period, .payload_bits = 512.0, .station = 3});
  set.add({.period = 3.0 * period, .payload_bits = 1024.0, .station = 9});
  return {"ieee8025/16Mbps/none/recovery-tie", set, cfg};
}

/// Time the first synchronous frame of `set` under `cfg` completes: its
/// start plus its medium occupancy, the sum the simulator itself forms.
inline Seconds first_frame_done(const msg::MessageSet& set, SimConfig cfg) {
  Seconds done = -1.0;
  CallbackSink sink([&done](const TraceRecord& r) {
    if (r.kind == TraceEventKind::kSyncFrameStart && done < 0.0) {
      done = r.at + r.frame_time();
    }
  });
  cfg.trace = &sink;
  run_simulation(set, cfg);
  return done;
}

/// One stream whose single-frame message completes at exactly 2P, the
/// instant of its own release pushed (at P) after the frame started.
inline Case frame_tie_case(analysis::PdpVariant v) {
  auto cfg = base_config(v, 16.0, AsyncModel::kNone);
  const auto one_stream = [&cfg](Seconds period) {
    msg::MessageSet set;
    set.add({.period = period,
             .payload_bits = cfg.pdp.frame.info_bits,
             .station = 5});
    return set;
  };
  const Seconds done = first_frame_done(one_stream(1.0), cfg);
  const Seconds period = done / 2.0;
  cfg.horizon = 30.0 * period;
  return {case_name(v, 16.0, AsyncModel::kNone, "frame-tie"),
          one_stream(period), cfg};
}

/// Completion time of the fifth asynchronous frame after the first
/// synchronous message of `set` completes under `cfg`.
inline Seconds async_done_after_first_message(const msg::MessageSet& set,
                                              SimConfig cfg) {
  Seconds first_complete = -1.0;
  std::vector<Seconds> async_done;
  CallbackSink sink([&](const TraceRecord& r) {
    if (r.kind == TraceEventKind::kMessageComplete && first_complete < 0.0) {
      first_complete = r.at;
    } else if (r.kind == TraceEventKind::kAsyncFrame && first_complete >= 0.0) {
      async_done.push_back(r.at);
    }
  });
  cfg.trace = &sink;
  run_simulation(set, cfg);
  return async_done.size() >= 5 ? async_done[4] : -1.0;
}

/// Saturating async: a release of period P, queued at t=0, lands at
/// exactly the completion of an async frame that started after it was
/// queued, in the middle of a run of async frames.
inline Case async_tie_case(analysis::PdpVariant v) {
  auto cfg = base_config(v, 16.0, AsyncModel::kSaturating);
  const auto one_stream = [&cfg](Seconds period) {
    msg::MessageSet set;
    set.add({.period = period,
             .payload_bits = cfg.pdp.frame.info_bits,
             .station = 5});
    return set;
  };
  const Seconds period = async_done_after_first_message(one_stream(1.0), cfg);
  cfg.horizon = 10.0 * period;
  return {case_name(v, 16.0, AsyncModel::kSaturating, "async-tie"),
          one_stream(period), cfg};
}

inline std::vector<Case> tie_cases() {
  return {recovery_tie_case(),
          frame_tie_case(analysis::PdpVariant::kStandard8025),
          frame_tie_case(analysis::PdpVariant::kModified8025),
          async_tie_case(analysis::PdpVariant::kStandard8025),
          async_tie_case(analysis::PdpVariant::kModified8025)};
}

inline std::uint64_t fnv1a64(const std::string& bytes,
                             std::uint64_t h = 14695981039346656037ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t sim_events_counter() {
  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find("sim.events");
  return it == snap.counters.end() ? 0 : it->second;
}

/// Run `c` once and render its record block.
inline std::string record(const Case& c) {
  std::size_t trace_records = 0;
  std::uint64_t digest = fnv1a64("");
  CallbackSink sink([&](const TraceRecord& r) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%a %d %d %a\n", r.at,
                  static_cast<int>(r.kind), r.station, r.detail);
    digest = fnv1a64(buf, digest);
    ++trace_records;
  });
  auto cfg = c.cfg;
  cfg.trace = &sink;
  const std::uint64_t events_before = sim_events_counter();
  const SimMetrics m = run_simulation(c.set, cfg);
  const std::uint64_t events = sim_events_counter() - events_before;

  std::string out = "case " + c.name + "\n";
  const auto line = [&out](const std::string& name, const char* fmt,
                           auto... values) {
    char buf[160];
    std::snprintf(buf, sizeof buf, fmt, values...);
    out += name + " " + buf + "\n";
  };
  line("messages_released", "%zu", m.messages_released);
  line("messages_completed", "%zu", m.messages_completed);
  line("deadline_misses", "%zu", m.deadline_misses);
  line("async_frames_sent", "%zu", m.async_frames_sent);
  line("max_queue_depth", "%zu", m.max_queue_depth);
  line("token_losses", "%zu", m.token_losses);
  line("response_time.count", "%zu", m.response_time.count());
  line("response_time.mean", "%a", m.response_time.mean());
  line("response_time.max", "%a", m.response_time.max());
  line("response_time.variance", "%a", m.response_time.variance());
  line("normalized_response.mean", "%a", m.normalized_response.mean());
  line("normalized_response.max", "%a", m.normalized_response.max());
  for (const auto& [station, st] : m.per_station) {
    line("station." + std::to_string(station), "%zu %zu %zu %a", st.released,
         st.completed, st.misses, st.response_time.max());
  }
  for (const auto& [kind, acct] : m.per_fault) {
    line(std::string("fault.") + fault::to_string(kind), "%zu %a %zu",
         acct.injected, acct.outage, acct.attributed_misses);
  }
  line("outages", "%zu", m.outages.size());
  line("trace_records", "%zu", trace_records);
  line("trace_fnv1a", "%016llx", static_cast<unsigned long long>(digest));
  if (c.cfg.faults.empty()) {
    line("events", "%llu", static_cast<unsigned long long>(events));
  }
  return out;
}

}  // namespace tokenring::sim::pdp_golden
