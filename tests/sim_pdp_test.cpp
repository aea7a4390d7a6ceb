#include "tokenring/sim/config.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "pdp_golden_cases.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::sim {
namespace {

SimConfig base_config(int stations, analysis::PdpVariant variant,
                      BitsPerSecond bw) {
  SimConfig cfg;
  cfg.protocol = Protocol::kPdp;
  cfg.pdp.ring = net::ieee8025_ring(stations);
  cfg.pdp.frame = net::paper_frame_format();
  cfg.pdp.variant = variant;
  cfg.bandwidth = bw;
  cfg.horizon = 0.5;
  cfg.worst_case_phasing = true;
  cfg.async_model = AsyncModel::kNone;
  return cfg;
}

msg::SyncStream stream(Seconds period, Bits payload, int station) {
  return msg::SyncStream{period, payload, station};
}

TEST(PdpSim, SingleStreamSingleFrameTiming) {
  // Two stations, one 512-bit message at station 0, no async: the token is
  // released at station 1 at t=0, walks one hop, and the frame (624 bits)
  // occupies max(F, Theta).
  const BitsPerSecond bw = mbps(1);
  auto cfg = base_config(2, analysis::PdpVariant::kStandard8025, bw);
  cfg.horizon = milliseconds(50);

  msg::MessageSet set;
  set.add(stream(milliseconds(100), 512.0, 0));
  const auto m = run_simulation(set, cfg);

  const Seconds walk =
      cfg.pdp.ring.hop_latency(bw) + cfg.pdp.ring.token_time(bw);
  const Seconds frame = cfg.pdp.frame.frame_time(bw);
  const Seconds theta = cfg.pdp.ring.theta(bw);
  const Seconds expected = walk + std::max(frame, theta);

  EXPECT_EQ(m.messages_completed, 1u);
  EXPECT_EQ(m.deadline_misses, 0u);
  ASSERT_EQ(m.response_time.count(), 1u);
  EXPECT_NEAR(m.response_time.mean(), expected, 1e-12);
}

TEST(PdpSim, HighBandwidthFrameOccupiesTheta) {
  // At 100 Mbps on a 100-station ring the frame is far shorter than Theta:
  // the effective slot is Theta (header-return wait).
  const BitsPerSecond bw = mbps(100);
  auto cfg = base_config(100, analysis::PdpVariant::kStandard8025, bw);
  cfg.horizon = milliseconds(50);

  msg::MessageSet set;
  set.add(stream(milliseconds(100), 512.0, 0));
  const auto m = run_simulation(set, cfg);

  const Seconds walk =
      cfg.pdp.ring.hop_latency(bw) + cfg.pdp.ring.token_time(bw);
  const Seconds theta = cfg.pdp.ring.theta(bw);
  ASSERT_GT(theta, cfg.pdp.frame.frame_time(bw));
  ASSERT_EQ(m.messages_completed, 1u);
  EXPECT_NEAR(m.response_time.mean(), walk + theta, 1e-12);
}

TEST(PdpSim, ModifiedSendsBackToBackFrames) {
  // A 3-frame message: the standard variant re-circulates the token after
  // every frame (full self-loop on a lone station), the modified one does
  // not -> strictly smaller response time.
  const BitsPerSecond bw = mbps(4);
  msg::MessageSet set;
  set.add(stream(milliseconds(100), 3 * 512.0, 0));

  // Horizon below the period: exactly one message, released at t=0 through
  // the deterministic busy-path arbitration (hand-timable).
  auto cfg_std = base_config(2, analysis::PdpVariant::kStandard8025, bw);
  cfg_std.horizon = milliseconds(50);
  auto cfg_mod = base_config(2, analysis::PdpVariant::kModified8025, bw);
  cfg_mod.horizon = milliseconds(50);
  const auto m_std = run_simulation(set, cfg_std);
  const auto m_mod = run_simulation(set, cfg_mod);

  ASSERT_EQ(m_std.messages_completed, m_mod.messages_completed);
  ASSERT_GT(m_std.messages_completed, 0u);
  EXPECT_LT(m_mod.response_time.mean(), m_std.response_time.mean());

  // Modified timing by hand: walk + 3 * max(F, Theta).
  const Seconds walk =
      cfg_mod.pdp.ring.hop_latency(bw) + cfg_mod.pdp.ring.token_time(bw);
  const Seconds slot = std::max(cfg_mod.pdp.frame.frame_time(bw),
                                cfg_mod.pdp.ring.theta(bw));
  EXPECT_NEAR(m_mod.response_time.min(), walk + 3.0 * slot, 1e-12);
}

TEST(PdpSim, RateMonotonicPriorityWins) {
  // Both messages pending at t=0; the shorter-period stream transmits
  // first even though it sits at a higher station index.
  const BitsPerSecond bw = mbps(4);
  auto cfg = base_config(4, analysis::PdpVariant::kStandard8025, bw);
  cfg.horizon = milliseconds(100);

  msg::MessageSet set;
  set.add(stream(milliseconds(100), 512.0, 0));  // low priority
  set.add(stream(milliseconds(10), 512.0, 3));   // high priority
  const auto m = run_simulation(set, cfg);

  ASSERT_GE(m.messages_completed, 2u);
  // The high-priority stream's normalized response must be small; the
  // low-priority one waited behind it. Check the high-priority message was
  // never pushed past its (much shorter) deadline.
  EXPECT_EQ(m.deadline_misses, 0u);
  // Response-time spread: the fastest completion belongs to the
  // high-priority frame which went first; the low-priority one ~2 slots.
  EXPECT_LT(m.response_time.min(), m.response_time.max());
}

TEST(PdpSim, OverloadedStreamMissesDeadlines) {
  // 15 ms of payload every 10 ms at 1 Mbps cannot fit.
  const BitsPerSecond bw = mbps(1);
  auto cfg = base_config(2, analysis::PdpVariant::kModified8025, bw);
  cfg.horizon = milliseconds(200);
  msg::MessageSet set;
  set.add(stream(milliseconds(10), 15'000.0, 0));
  const auto m = run_simulation(set, cfg);
  EXPECT_GT(m.deadline_misses, 0u);
}

TEST(PdpSim, SaturatingAsyncBlocksFirstSyncFrame) {
  // With saturating async, an async frame starts at t=0 before the queued
  // sync frame: the sync response includes that blocking (Lemma 4.1).
  const BitsPerSecond bw = mbps(1);
  auto cfg = base_config(2, analysis::PdpVariant::kStandard8025, bw);
  cfg.async_model = AsyncModel::kSaturating;
  cfg.horizon = milliseconds(50);

  msg::MessageSet set;
  set.add(stream(milliseconds(100), 512.0, 0));
  const auto m = run_simulation(set, cfg);

  const Seconds async_slot = std::max(cfg.pdp.frame.frame_time(bw),
                                      cfg.pdp.ring.theta(bw));
  ASSERT_EQ(m.messages_completed, 1u);
  EXPECT_GT(m.response_time.mean(), async_slot);
  EXPECT_GT(m.async_frames_sent, 0u);
}

TEST(PdpSim, NoAsyncWithoutSaturation) {
  const BitsPerSecond bw = mbps(10);
  auto cfg = base_config(2, analysis::PdpVariant::kStandard8025, bw);
  msg::MessageSet set;
  set.add(stream(milliseconds(50), 512.0, 0));
  const auto m = run_simulation(set, cfg);
  EXPECT_EQ(m.async_frames_sent, 0u);
}

TEST(PdpSim, ArrivalCountMatchesPeriods) {
  const BitsPerSecond bw = mbps(10);
  auto cfg = base_config(2, analysis::PdpVariant::kStandard8025, bw);
  cfg.horizon = milliseconds(100);
  msg::MessageSet set;
  set.add(stream(milliseconds(10), 512.0, 0));
  const auto m = run_simulation(set, cfg);
  // Arrivals at 0, 10, ..., 100 ms inclusive = 11 releases.
  EXPECT_EQ(m.messages_released, 11u);
  EXPECT_EQ(m.deadline_misses, 0u);
}

TEST(PdpSim, IdleTokenCaptureAfterQuietPeriod) {
  // Random phasing, no async: the ring goes idle between messages; the
  // idle-token capture path must still deliver every message.
  const BitsPerSecond bw = mbps(10);
  auto cfg = base_config(4, analysis::PdpVariant::kStandard8025, bw);
  cfg.worst_case_phasing = false;
  cfg.seed = 5;
  cfg.horizon = milliseconds(500);
  msg::MessageSet set;
  set.add(stream(milliseconds(40), 512.0, 0));
  set.add(stream(milliseconds(70), 1'024.0, 2));
  const auto m = run_simulation(set, cfg);
  EXPECT_GT(m.messages_completed, 10u);
  EXPECT_EQ(m.deadline_misses, 0u);
}

TEST(PdpSim, WorstCaseVsRandomPhasing) {
  // Random phasing can only improve (or equal) the worst-case response.
  const BitsPerSecond bw = mbps(4);
  msg::MessageSet set;
  for (int i = 0; i < 6; ++i) {
    set.add(stream(milliseconds(30 + 10 * i), 2'048.0, i));
  }
  auto wc = base_config(6, analysis::PdpVariant::kStandard8025, bw);
  wc.async_model = AsyncModel::kSaturating;
  wc.horizon = milliseconds(300);
  auto rnd = wc;
  rnd.worst_case_phasing = false;
  rnd.seed = 11;
  const auto m_wc = run_simulation(set, wc);
  const auto m_rnd = run_simulation(set, rnd);
  ASSERT_GT(m_wc.messages_completed, 0u);
  ASSERT_GT(m_rnd.messages_completed, 0u);
  EXPECT_GE(m_wc.response_time.max() + 1e-9, m_rnd.response_time.max() * 0.5)
      << "sanity: worst-case phasing should not be wildly better";
}

TEST(PdpSim, StationValidation) {
  auto cfg = base_config(2, analysis::PdpVariant::kStandard8025, mbps(10));
  msg::MessageSet bad;
  bad.add(stream(milliseconds(10), 512.0, 7));  // station out of range
  EXPECT_THROW(make_simulator(bad, cfg), PreconditionError);
}

TEST(PdpSim, MultipleStreamsPerStationSupported) {
  // Generalization beyond the paper's one-stream-per-node model: a station
  // hosting two streams contends with the higher priority of the two.
  const BitsPerSecond bw = mbps(16);
  auto cfg = base_config(4, analysis::PdpVariant::kModified8025, bw);
  cfg.horizon = milliseconds(200);
  msg::MessageSet set;
  set.add(stream(milliseconds(20), 2'048.0, 1));
  set.add(stream(milliseconds(50), 4'096.0, 1));  // same station
  set.add(stream(milliseconds(40), 2'048.0, 3));
  const auto m = run_simulation(set, cfg);
  // 11 + 5 + 6 releases by t = 200 ms inclusive.
  EXPECT_EQ(m.messages_released, 22u);
  EXPECT_EQ(m.deadline_misses, 0u);
  // Both streams at station 1 report under that station.
  ASSERT_TRUE(m.per_station.count(1));
  EXPECT_EQ(m.per_station.at(1).released, 16u);
}

TEST(PdpSim, ConfigValidation) {
  msg::MessageSet set;
  set.add(stream(milliseconds(10), 512.0, 0));
  auto cfg = base_config(2, analysis::PdpVariant::kStandard8025, mbps(10));
  cfg.bandwidth = 0.0;
  EXPECT_THROW(make_simulator(set, cfg), PreconditionError);
  cfg = base_config(2, analysis::PdpVariant::kStandard8025, mbps(10));
  cfg.horizon = 0.0;
  EXPECT_THROW(make_simulator(set, cfg), PreconditionError);
}

TEST(PdpSim, MetricsSummaryMentionsCounts) {
  const BitsPerSecond bw = mbps(10);
  auto cfg = base_config(2, analysis::PdpVariant::kStandard8025, bw);
  msg::MessageSet set;
  set.add(stream(milliseconds(50), 512.0, 0));
  const auto m = run_simulation(set, cfg);
  const std::string s = m.summary();
  EXPECT_NE(s.find("released="), std::string::npos);
  EXPECT_NE(s.find("misses="), std::string::npos);
}

// ---- goldens ---------------------------------------------------------------
//
// Metrics and trace digests recorded from the simulator that queued every
// medium action on the event heap (tests/fixtures/sim/README.md); the
// medium slot, the rank arbiter and the saturating-async fast-forward must
// reproduce them bit for bit.

/// The fixture's record blocks, keyed by case name.
std::map<std::string, std::string> read_blocks(const std::string& name) {
  const std::string path = std::string(TOKENRING_SIM_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::map<std::string, std::string> blocks;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find("\ncase ", at);
    end = end == std::string::npos ? text.size() : end + 1;
    const std::string block = text.substr(at, end - at);
    const std::size_t eol = block.find('\n');
    blocks[block.substr(5, eol - 5)] = block;
    at = end;
  }
  return blocks;
}

void expect_fixture(const std::vector<pdp_golden::Case>& cases,
                    const std::string& fixture) {
  const auto want = read_blocks(fixture);
  EXPECT_EQ(want.size(), cases.size());
  for (const auto& c : cases) {
    const auto it = want.find(c.name);
    ASSERT_NE(it, want.end()) << "no recording for " << c.name;
    EXPECT_EQ(pdp_golden::record(c), it->second) << c.name;
  }
}

TEST(PdpGoldens, FaultFreeGridIsBitIdentical) {
  expect_fixture(pdp_golden::grid_cases(), "pdp_grid.txt");
}

TEST(PdpGoldens, FaultedRunsAreBitIdentical) {
  expect_fixture(pdp_golden::fault_cases(), "pdp_faults.txt");
}

TEST(PdpGoldens, ExactTiesKeepSequenceOrder) {
  // The constructed ties are exact: the recovery from a t=0 token loss is
  // due at 0 + outage = P + P, and the first frame completes at P + P.
  const auto rec = pdp_golden::recovery_tie_case();
  const Seconds outage = fault::pdp_monitor_outage(rec.cfg.pdp,
                                                   rec.cfg.bandwidth);
  EXPECT_EQ(0.0 + outage, rec.set[0].period + rec.set[0].period);
  for (const auto v : pdp_golden::kVariants) {
    const auto c = pdp_golden::frame_tie_case(v);
    const Seconds p = c.set[0].period;
    EXPECT_EQ(pdp_golden::first_frame_done(c.set, c.cfg), p + p);
    // The completion was armed when the frame started, before the release
    // at 2P was queued (at P), so it fires first, as the recording shows.
    std::vector<TraceRecord> at_tie;
    CallbackSink sink([&](const TraceRecord& r) {
      if (r.at == p + p) at_tie.push_back(r);
    });
    auto cfg = c.cfg;
    cfg.trace = &sink;
    run_simulation(c.set, cfg);
    ASSERT_GE(at_tie.size(), 3u);  // complete, its miss, ..., the release
    EXPECT_EQ(at_tie.front().kind, TraceEventKind::kMessageComplete);
    EXPECT_EQ(at_tie.back().kind, TraceEventKind::kMessageArrival);
  }
  for (const auto v : pdp_golden::kVariants) {
    // Mid-run of async frames, the release queued at t=0 ties with an
    // async completion armed later: the release fires first, so the
    // fast-forward must hand that completion back to the slot.
    const auto c = pdp_golden::async_tie_case(v);
    const Seconds p = c.set[0].period;
    std::vector<TraceEventKind> at_tie;
    CallbackSink sink([&](const TraceRecord& r) {
      if (r.at == p) at_tie.push_back(r.kind);
    });
    auto cfg = c.cfg;
    cfg.trace = &sink;
    run_simulation(c.set, cfg);
    EXPECT_EQ(at_tie, (std::vector<TraceEventKind>{
                          TraceEventKind::kMessageArrival,
                          TraceEventKind::kAsyncFrame}));
  }
  expect_fixture(pdp_golden::tie_cases(), "pdp_ties.txt");
}

TEST(PdpSim, CorruptionOnADarkRingIsAbsorbed) {
  // With every station crashed nothing can be in flight, so a frame
  // corruption charges no recovery window (the queued-medium simulator
  // charged one to the first such fault; no golden covers a dark ring).
  auto cfg = pdp_golden::base_config(analysis::PdpVariant::kStandard8025,
                                     16.0, AsyncModel::kSaturating);
  for (int s = 0; s < pdp_golden::kStations; ++s) {
    cfg.faults.add_station_crash(milliseconds(10), s);
  }
  cfg.faults.add_frame_corruption(milliseconds(60));
  cfg.faults.add_frame_corruption(milliseconds(70));
  const auto m = run_simulation(pdp_golden::golden_set(), cfg);
  const auto& corruption = m.per_fault.at(fault::FaultKind::kFrameCorruption);
  EXPECT_EQ(corruption.injected, 2u);
  EXPECT_EQ(corruption.outage, 0.0);
  EXPECT_EQ(m.outages.size(), 12u);  // the crashes' beacon outages only
}

std::uint64_t counter(const char* name) {
  const auto snap = obs::Registry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(PdpSim, SaturatingMediumNeverTouchesTheHeap) {
  // Fault-free with saturating async, the only queued events are the
  // releases: every medium action runs in the frontier slot.
  for (const auto v : pdp_golden::kVariants) {
    for (const double bw : {4.0, 100.0}) {
      const auto cfg = pdp_golden::base_config(v, bw, AsyncModel::kSaturating);
      const std::uint64_t queued0 = counter("sim.queue_events");
      const std::uint64_t steps0 = counter("sim.frontier_steps");
      const std::uint64_t events0 = counter("sim.events");
      const auto m = run_simulation(pdp_golden::golden_set(), cfg);
      const std::uint64_t queued = counter("sim.queue_events") - queued0;
      const std::uint64_t steps = counter("sim.frontier_steps") - steps0;
      EXPECT_EQ(queued, m.messages_released);
      // Kickoff, then per async frame a walk and a completion, at least.
      EXPECT_GT(steps, 2 * m.async_frames_sent);
      EXPECT_EQ(counter("sim.events") - events0, queued + steps);
    }
  }
}

}  // namespace
}  // namespace tokenring::sim
