// Constrained-deadline (D <= P) extension tests. The paper's model has
// implicit deadlines (D = P); these tests pin both backwards compatibility
// (explicit D = P behaves identically) and the deadline-monotonic
// generalization across the analysis stack and the simulators.

#include <gtest/gtest.h>

#include "tokenring/analysis/latency.hpp"
#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/msg/io.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/workload.hpp"
#include "reference_search.hpp"

namespace tokenring {
namespace {

msg::SyncStream stream(Seconds period, Bits payload, int station,
                       Seconds deadline = 0.0) {
  msg::SyncStream s{period, payload, station};
  s.relative_deadline = deadline;
  return s;
}

analysis::PdpParams pdp_params(int n) {
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(n);
  p.frame = net::paper_frame_format();
  p.variant = analysis::PdpVariant::kModified8025;
  return p;
}

analysis::TtpParams ttp_params(int n) {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(n);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return p;
}

// ---- model ------------------------------------------------------------------

TEST(Deadline, DefaultsToThePeriod) {
  const auto s = stream(milliseconds(50), 100.0, 0);
  EXPECT_DOUBLE_EQ(s.deadline(), milliseconds(50));
  const auto d = stream(milliseconds(50), 100.0, 0, milliseconds(20));
  EXPECT_DOUBLE_EQ(d.deadline(), milliseconds(20));
}

TEST(Deadline, ValidationRejectsDeadlineBeyondPeriod) {
  auto s = stream(milliseconds(50), 100.0, 0, milliseconds(60));
  EXPECT_THROW(s.validate(), PreconditionError);
  s.relative_deadline = -1.0;
  EXPECT_THROW(s.validate(), PreconditionError);
  s.relative_deadline = milliseconds(50);  // D == P is fine
  EXPECT_NO_THROW(s.validate());
}

TEST(Deadline, SortOrderIsDeadlineMonotonic) {
  msg::MessageSet set;
  set.add(stream(milliseconds(100), 1.0, 0));                    // D = 100
  set.add(stream(milliseconds(200), 2.0, 1, milliseconds(30)));  // D = 30
  const auto sorted = set.rm_sorted();
  EXPECT_EQ(sorted[0].station, 1);  // tighter deadline first
  EXPECT_EQ(sorted[1].station, 0);
}

// ---- analysis ----------------------------------------------------------------

TEST(Deadline, ExplicitDeadlineEqualToPeriodMatchesImplicit) {
  Rng rng(3);
  msg::GeneratorConfig g;
  g.num_streams = 12;
  msg::MessageSetGenerator gen(g);
  const auto pdp = pdp_params(12);
  const auto ttp = ttp_params(12);
  for (int trial = 0; trial < 10; ++trial) {
    const auto base = gen.generate(rng).scaled(rng.uniform(1.0, 60.0));
    std::vector<msg::SyncStream> explicit_streams = base.streams();
    for (auto& s : explicit_streams) s.relative_deadline = s.period;
    const msg::MessageSet explicit_set{std::move(explicit_streams)};
    const BitsPerSecond bw = mbps(rng.uniform(4.0, 200.0));

    EXPECT_EQ(analysis::pdp_feasible(base, pdp, bw),
              analysis::pdp_feasible(explicit_set, pdp, bw));
    EXPECT_EQ(analysis::ttp_feasible(base, ttp, bw),
              analysis::ttp_feasible(explicit_set, ttp, bw));
  }
}

TEST(Deadline, TighteningDeadlinesOnlyRemovesFeasibility) {
  Rng rng(7);
  msg::GeneratorConfig g;
  g.num_streams = 10;
  msg::MessageSetGenerator gen(g);
  const auto pdp = pdp_params(10);
  const auto ttp = ttp_params(10);
  int flips = 0;
  for (int trial = 0; trial < 20; ++trial) {
    // Sit just inside the implicit-deadline boundary so that tightening
    // the deadlines has something to bite.
    const BitsPerSecond bw = mbps(20);
    auto base = gen.generate(rng);
    const auto sat = breakdown::find_saturation_scaled(
        base,
        reference::scaled_copy_kernel(
            base,
            [&](const msg::MessageSet& m) {
              return analysis::pdp_feasible(m, pdp, bw);
            }),
        bw);
    if (!sat.found) continue;
    base = base.scaled(sat.critical_scale * 0.9);
    std::vector<msg::SyncStream> tight_streams = base.streams();
    for (auto& s : tight_streams) s.relative_deadline = 0.6 * s.period;
    const msg::MessageSet tight{std::move(tight_streams)};

    if (analysis::pdp_feasible(tight, pdp, bw)) {
      EXPECT_TRUE(analysis::pdp_feasible(base, pdp, bw));
    } else if (analysis::pdp_feasible(base, pdp, bw)) {
      ++flips;  // tightened away — expected sometimes
    }
    if (analysis::ttp_feasible(tight, ttp, bw)) {
      EXPECT_TRUE(analysis::ttp_feasible(base, ttp, bw));
    }
  }
  EXPECT_GT(flips, 0) << "tightening never bit: test is vacuous";
}

TEST(Deadline, RtaComparesAgainstDeadlineNotPeriod) {
  // One task, cost 0.6, D = 0.5 < P = 1: infeasible; with D = 0.7 feasible.
  std::vector<analysis::FpTask> tasks = {{1.0, 0.6, 0.5}};
  EXPECT_FALSE(analysis::response_time_analysis(tasks, 0.0).schedulable);
  tasks[0].deadline = 0.7;
  EXPECT_TRUE(analysis::response_time_analysis(tasks, 0.0).schedulable);
  EXPECT_TRUE(analysis::lsd_point_test_all(tasks, 0.0).schedulable);
}

TEST(Deadline, LsdAgreesWithRtaUnderConstrainedDeadlines) {
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    std::vector<analysis::FpTask> tasks;
    for (int i = 0; i < n; ++i) {
      analysis::FpTask t;
      t.period = rng.uniform(1.0, 50.0);
      t.deadline = t.period * rng.uniform(0.3, 1.0);
      t.cost = rng.uniform(0.0, 0.25) * t.deadline;
      tasks.push_back(t);
    }
    std::sort(tasks.begin(), tasks.end(),
              [](const analysis::FpTask& a, const analysis::FpTask& b) {
                return a.effective_deadline() < b.effective_deadline();
              });
    const Seconds blocking = rng.uniform(0.0, 0.1);
    EXPECT_EQ(analysis::response_time_analysis(tasks, blocking).schedulable,
              analysis::lsd_point_test_all(tasks, blocking).schedulable)
        << "trial " << trial;
  }
}

TEST(Deadline, TtpVisitsCountedWithinDeadlineWindow) {
  // P = 100 ms but D = 20 ms, TTRT = 5 ms: q = floor(20/5) = 4, so the
  // local allocation spreads the message over 3 visits, not 19.
  const auto p = ttp_params(4);
  const BitsPerSecond bw = mbps(100);
  const auto s = stream(milliseconds(100), 30'000.0, 0, milliseconds(20));
  const auto h = analysis::ttp_local_bandwidth(s, p, bw, milliseconds(5));
  ASSERT_TRUE(h.has_value());
  EXPECT_NEAR(*h, s.payload_time(bw) / 3.0 + p.frame.overhead_time(bw), 1e-15);

  const auto b = analysis::ttp_response_bound(s, p, bw, milliseconds(5));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->visits, 3);
  EXPECT_NEAR(b->response_bound, milliseconds(20), 1e-12);
  EXPECT_NEAR(b->slack, 0.0, 1e-12);
}

TEST(Deadline, TtrtSelectionUsesDeadlines) {
  msg::MessageSet set;
  set.add(stream(milliseconds(100), 1.0, 0, milliseconds(10)));
  const auto ring = net::fddi_ring(2);
  const BitsPerSecond bw = mbps(100);
  // Bid is computed from D = 10 ms, not P = 100 ms.
  EXPECT_NEAR(analysis::select_ttrt(set, ring, bw),
              analysis::ttrt_bid(milliseconds(10), ring.theta(bw)), 1e-15);
  EXPECT_DOUBLE_EQ(analysis::max_valid_ttrt(set), milliseconds(5));
}

// ---- simulators ------------------------------------------------------------------

TEST(Deadline, PdpSimDetectsMissAgainstConstrainedDeadline) {
  // A message whose response (~0.9 ms) beats P = 100 ms comfortably but
  // violates D = 0.5 ms.
  const BitsPerSecond bw = mbps(1);
  sim::SimConfig cfg;
  cfg.protocol = sim::Protocol::kPdp;
  cfg.pdp = pdp_params(2);
  cfg.bandwidth = bw;
  cfg.horizon = milliseconds(50);
  cfg.async_model = sim::AsyncModel::kNone;

  msg::MessageSet loose;
  loose.add(stream(milliseconds(100), 512.0, 0));
  EXPECT_EQ(sim::run_simulation(loose, cfg).deadline_misses, 0u);

  msg::MessageSet tight;
  tight.add(stream(milliseconds(100), 512.0, 0, milliseconds(0.5)));
  const auto m = sim::run_simulation(tight, cfg);
  EXPECT_GT(m.deadline_misses, 0u);
}

TEST(Deadline, PdpSimPrefersTighterDeadlineAtEqualPeriods) {
  // Equal periods, different deadlines: the deadline-monotonic winner is
  // the D = 5 ms stream — it must never miss even though its station index
  // is higher.
  const BitsPerSecond bw = mbps(4);
  sim::SimConfig cfg;
  cfg.protocol = sim::Protocol::kPdp;
  cfg.pdp = pdp_params(4);
  cfg.bandwidth = bw;
  cfg.horizon = milliseconds(200);
  cfg.async_model = sim::AsyncModel::kNone;

  msg::MessageSet set;
  set.add(stream(milliseconds(50), 8'192.0, 0));                    // D = 50
  set.add(stream(milliseconds(50), 2'048.0, 3, milliseconds(5)));   // D = 5
  const auto m = sim::run_simulation(set, cfg);
  ASSERT_TRUE(m.per_station.count(3));
  EXPECT_EQ(m.per_station.at(3).misses, 0u);
  // The tight stream's responses stay within its 5 ms deadline.
  EXPECT_LE(m.per_station.at(3).response_time.max(), milliseconds(5) + 1e-9);
}

TEST(Deadline, TtpGuaranteeHoldsForConstrainedDeadlineSets) {
  // End-to-end: generate constrained-deadline sets, accept via Theorem 5.1
  // (deadline-window q), simulate adversarially — no misses allowed.
  Rng rng(19);
  msg::GeneratorConfig g;
  g.num_streams = 8;
  g.mean_period = milliseconds(60);
  g.deadline_fraction = 0.5;
  msg::MessageSetGenerator gen(g);
  const auto p = ttp_params(8);
  const BitsPerSecond bw = mbps(100);

  int validated = 0;
  for (int trial = 0; trial < 5; ++trial) {
    auto set = gen.generate(rng).scaled(10.0);
    // Shrink until feasible under the constrained deadlines.
    while (!analysis::ttp_feasible(set, p, bw)) set = set.scaled(0.5);
    auto cfg = sim::make_sim_config(set, p, bw, 4.0);
    cfg.async_model = sim::AsyncModel::kSaturating;
    const auto m = sim::run_simulation(set, cfg);
    EXPECT_EQ(m.deadline_misses, 0u) << "trial " << trial;
    EXPECT_GT(m.messages_completed, 0u);
    ++validated;
  }
  EXPECT_EQ(validated, 5);
}

// ---- scenario I/O -------------------------------------------------------------------

TEST(Deadline, CsvRoundTripsTheDeadlineColumn) {
  msg::MessageSet set;
  set.add(stream(milliseconds(50), 1'000.0, 0, milliseconds(20)));
  set.add(stream(milliseconds(80), 2'000.0, 1));
  const std::string csv = msg::to_csv(set);
  EXPECT_NE(csv.find("deadline_ms"), std::string::npos);
  const auto parsed = msg::message_set_from_csv(csv);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed[0].relative_deadline, milliseconds(20));
  EXPECT_DOUBLE_EQ(parsed[1].relative_deadline, 0.0);
  EXPECT_DOUBLE_EQ(parsed[1].deadline(), milliseconds(80));
}

TEST(Deadline, PaperModelCsvStaysThreeColumns) {
  msg::MessageSet set;
  set.add(stream(milliseconds(50), 1'000.0, 0));
  EXPECT_EQ(msg::to_csv(set).find("deadline_ms"), std::string::npos);
}

TEST(Deadline, FourColumnCsvParses) {
  const auto set = msg::message_set_from_csv(
      "station,period_ms,payload_bits,deadline_ms\n0,100,512,25\n");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set[0].relative_deadline, milliseconds(25));
}

TEST(Deadline, InvalidDeadlineInCsvRejected) {
  EXPECT_THROW(msg::message_set_from_csv(
                   "station,period_ms,payload_bits,deadline_ms\n0,100,512,150\n"),
               msg::ParseError);
}

TEST(Deadline, GeneratorAppliesFraction) {
  msg::GeneratorConfig g;
  g.num_streams = 20;
  g.deadline_fraction = 0.4;
  msg::MessageSetGenerator gen(g);
  Rng rng(2);
  const auto set = gen.generate(rng);
  for (const auto& s : set.streams()) {
    EXPECT_NEAR(s.deadline(), 0.4 * s.period, 1e-15);
  }
  g.deadline_fraction = 1.5;
  EXPECT_THROW(msg::MessageSetGenerator{g}, PreconditionError);
}

}  // namespace
}  // namespace tokenring
