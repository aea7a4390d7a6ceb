// Engine-layer tests: the event heap (exact (time, seq) order, SIM_CHECK
// key validation, randomized differential check against a stable-sort
// oracle), the simulator loop (clock, horizon, storm guard), the frontier
// work source, and the TTP frontier walk replayed against metrics and a
// JSONL trace recorded from the retired one-event-per-hop walk
// (tests/fixtures/sim/README.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/obs/trace_sinks.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/event_queue.hpp"
#include "tokenring/sim/simulator.hpp"
#include "tokenring/sim/workload.hpp"

namespace tokenring::sim {
namespace {

Event user_event(int index) {
  Event ev;
  ev.kind = EventKind::kUser;
  ev.index = index;
  return ev;
}

// ---- event queue ------------------------------------------------------------

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push(3.0, user_event(3));
  q.push(1.0, user_event(1));
  q.push(2.0, user_event(2));
  std::vector<int> fired;
  while (!q.empty()) fired.push_back(q.pop().index);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.push(1.0, user_event(i));
  for (int i = 0; i < 10; ++i) {
    const Event ev = q.pop();
    EXPECT_EQ(ev.index, i);
    EXPECT_EQ(ev.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(EventQueue, NextTimeAndSize) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push(5.0, user_event(0));
  q.push(2.0, user_event(1));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, EmptyAccessThrows) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), PreconditionError);
  EXPECT_THROW(q.pop(), PreconditionError);
}

TEST(EventQueue, NegativeTimeRejected) {
  EventQueue q;
  EXPECT_THROW(q.push(-1.0, user_event(0)), PreconditionError);
}

TEST(EventQueue, NonFiniteTimeRejectedNamingTheKind) {
  EventQueue q;
  Event retry;
  retry.kind = EventKind::kCorruptionRetry;
  try {
    q.push(std::numeric_limits<double>::quiet_NaN(), retry);
    FAIL() << "NaN key accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("corruption-retry"),
              std::string::npos)
        << e.what();
  }
  Event fault;
  fault.kind = EventKind::kFault;
  try {
    q.push(std::numeric_limits<double>::infinity(), fault);
    FAIL() << "inf key accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("fault"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(q.empty());  // nothing leaked into the queue
}

TEST(EventQueue, PushEarlierThanCurrentWindowStillPopsInOrder) {
  // Pop half the queue, then push an event earlier than everything left:
  // it must come out first.
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.push(1e-3 * (i + 1), user_event(i));
  for (int i = 0; i < 50; ++i) q.pop();
  q.push(1e-6, user_event(999));
  EXPECT_EQ(q.pop().index, 999);
  EXPECT_EQ(q.pop().index, 50);
}

TEST(EventQueue, FarFutureEventsMergeExactly) {
  // Keys fifteen orders of magnitude apart must still pop in exact order.
  EventQueue q;
  q.push(1e9, user_event(1));    // far future
  q.push(1e-6, user_event(0));   // near
  q.push(2e9, user_event(2));    // farther
  EXPECT_EQ(q.pop().index, 0);
  EXPECT_EQ(q.pop().index, 1);
  EXPECT_EQ(q.pop().index, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DifferentialAgainstReferenceHeap) {
  // 10k random operations against a trivially correct oracle: the pending
  // events in insertion order, stable-sorted by time before each pop, so
  // equal times come out first-in first-out. Times are drawn from a coarse
  // grid (plus exact repeats of pending times) so most pops break a tie.
  struct Ref {
    double at;
    std::uint64_t seq;
    int index;
  };
  const auto by_time = [](const Ref& a, const Ref& b) { return a.at < b.at; };

  EventQueue q;
  std::vector<Ref> pending;  // insertion order
  Rng rng(2024);
  std::uint64_t next_seq = 0;
  double low_water = 0.0;  // pops only move forward; pushes stay >= this
  int pushes = 0;

  for (int op = 0; op < 10'000; ++op) {
    if (rng.uniform(0.0, 1.0) < 0.55 || pending.empty()) {
      double at;
      const double kind = rng.uniform(0.0, 1.0);
      if (kind < 0.3 && !pending.empty()) {
        at = pending[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(pending.size()) - 1))]
                 .at;
      } else if (kind < 0.9) {
        at = low_water + 0.25e-3 * static_cast<double>(rng.uniform_int(0, 8));
      } else {
        at = low_water + rng.uniform(0.0, 1e6);
      }
      q.push(at, user_event(pushes));
      pending.push_back(Ref{at, next_seq++, pushes});
      ++pushes;
    } else {
      std::stable_sort(pending.begin(), pending.end(), by_time);
      const Ref want = pending.front();
      const Event got = q.pop();
      EXPECT_EQ(got.index, want.index) << "op " << op;
      EXPECT_EQ(got.seq, want.seq) << "op " << op;
      EXPECT_EQ(got.at, want.at) << "op " << op;
      low_water = want.at;
      pending.erase(pending.begin());
    }
    if (!pending.empty()) {
      const auto it = std::min_element(pending.begin(), pending.end(), by_time);
      EXPECT_EQ(q.next_time(), it->at) << "op " << op;
    }
  }
  // Drain: the tails must agree too.
  std::stable_sort(pending.begin(), pending.end(), by_time);
  for (const Ref& want : pending) {
    const Event got = q.pop();
    ASSERT_EQ(got.index, want.index);
    ASSERT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(q.empty());
}

// ---- simulator --------------------------------------------------------------

/// Test handler: records (time, index) of every delivered event and can
/// schedule follow-ups.
class RecordingHandler final : public EventHandler {
 public:
  explicit RecordingHandler(Simulator& sim) : sim_(sim) {}
  void on_event(const Event& ev) override {
    times.push_back(sim_.now());
    indices.push_back(ev.index);
    if (on_event_hook) on_event_hook(ev);
  }
  Simulator& sim_;
  std::vector<double> times;
  std::vector<int> indices;
  std::function<void(const Event&)> on_event_hook;
};

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  sim.schedule_at(1.0, user_event(0));
  sim.schedule_at(0.5, user_event(1));
  sim.run_until(2.0);
  EXPECT_EQ(h.times, (std::vector<double>{0.5, 1.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);  // clock lands on the horizon
}

TEST(Simulator, RelativeScheduling) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event& ev) {
    if (ev.index == 0) sim.schedule_in(0.25, user_event(1));
  };
  sim.schedule_at(1.0, user_event(0));
  sim.run_until(10.0);
  ASSERT_EQ(h.times.size(), 2u);
  EXPECT_DOUBLE_EQ(h.times[1], 1.25);
}

TEST(Simulator, HorizonIsInclusive) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  sim.schedule_at(2.0, user_event(0));
  sim.schedule_at(2.0 + 1e-9, user_event(1));
  sim.run_until(2.0);
  EXPECT_EQ(h.indices, (std::vector<int>{0}));
}

TEST(Simulator, EventsPastHorizonSurviveForNextRun) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  sim.schedule_at(5.0, user_event(0));
  sim.run_until(1.0);
  EXPECT_TRUE(h.indices.empty());
  sim.run_until(10.0);
  EXPECT_EQ(h.indices, (std::vector<int>{0}));
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event&) {
    EXPECT_THROW(sim.schedule_at(0.5, user_event(9)), PreconditionError);
    EXPECT_THROW(sim.schedule_in(-0.1, user_event(9)), PreconditionError);
  };
  sim.schedule_at(1.0, user_event(0));
  sim.run_until(2.0);
  ASSERT_EQ(h.indices.size(), 1u);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  for (int i = 0; i < 7; ++i) {
    sim.schedule_at(static_cast<double>(i), user_event(i));
  }
  const auto ran = sim.run_until(100.0);
  EXPECT_EQ(ran, 7u);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, CascadedEventChainsRun) {
  // A self-perpetuating chain (like token passing) runs to the horizon.
  Simulator sim;
  RecordingHandler h(sim);
  sim.set_handler(&h);
  h.on_event_hook = [&](const Event&) { sim.schedule_in(0.1, user_event(0)); };
  sim.schedule_at(0.0, user_event(0));
  sim.run_until(1.0);
  EXPECT_EQ(h.indices.size(), 11u);  // t = 0.0, 0.1, ..., 1.0 inclusive
}

// ---- frontier source --------------------------------------------------------

/// A frontier ticking every `step` seconds that logs its firing times.
class TickingFrontier final : public FrontierSource {
 public:
  TickingFrontier(Simulator& sim, double step) : sim_(sim), step_(step) {}
  Seconds frontier_time() const override { return next_; }
  std::size_t advance_frontier() override {
    fired.push_back(sim_.now());
    next_ += step_;
    return 1;
  }
  Simulator& sim_;
  double step_;
  Seconds next_ = 0.0;
  std::vector<double> fired;
};

TEST(Simulator, FrontierInterleavesWithQueueByTime) {
  Simulator sim;
  RecordingHandler h(sim);
  TickingFrontier f(sim, 0.4);
  sim.set_handler(&h);
  sim.set_frontier(&f);
  sim.schedule_at(0.5, user_event(0));
  sim.run_until(1.0);
  // Frontier at 0.0, 0.4, 0.8; queue at 0.5.
  EXPECT_EQ(f.fired, (std::vector<double>{0.0, 0.4, 0.8}));
  EXPECT_EQ(h.times, (std::vector<double>{0.5}));
  EXPECT_EQ(sim.events_executed(), 4u);  // frontier advances count
}

TEST(Simulator, QueueWinsTiesAgainstFrontier) {
  // A queued event at exactly the frontier time fires first — a fault
  // destroying the token at a visit instant must beat the visit.
  Simulator sim;
  std::vector<int> order;
  RecordingHandler h(sim);
  TickingFrontier f(sim, 1.0);
  h.on_event_hook = [&](const Event&) { order.push_back(0); };
  class Spy final : public FrontierSource {
   public:
    Spy(TickingFrontier& inner, std::vector<int>& order)
        : inner_(inner), order_(order) {}
    Seconds frontier_time() const override { return inner_.frontier_time(); }
    std::size_t advance_frontier() override {
      order_.push_back(1);
      return inner_.advance_frontier();
    }
    TickingFrontier& inner_;
    std::vector<int>& order_;
  } spy(f, order);
  sim.set_handler(&h);
  sim.set_frontier(&spy);
  sim.schedule_at(1.0, user_event(0));
  sim.run_until(1.0);
  // t=0 frontier, then at t=1 the queued event (0) before the frontier (1).
  EXPECT_EQ(order, (std::vector<int>{1, 0, 1}));
}

TEST(Simulator, SeqStampedFrontierKeepsArmOrderOnTies) {
  // A frontier that takes its sequence number from the queue when armed
  // ties with queued events in arm order: an event queued before the arm
  // fires first, one queued after fires second.
  class Slot final : public FrontierSource {
   public:
    explicit Slot(std::vector<int>& order) : order_(order) {}
    Seconds frontier_time() const override { return at_; }
    std::uint64_t frontier_seq() const override { return seq_; }
    std::size_t advance_frontier() override {
      order_.push_back(1);
      at_ = std::numeric_limits<Seconds>::infinity();
      return 3;  // one advance may take several steps
    }
    void arm(Simulator& sim, Seconds at) {
      at_ = at;
      seq_ = sim.take_seq();
    }
    std::vector<int>& order_;
    Seconds at_ = std::numeric_limits<Seconds>::infinity();
    std::uint64_t seq_ = 0;
  };
  Simulator sim;
  std::vector<int> order;
  RecordingHandler h(sim);
  h.on_event_hook = [&](const Event& ev) { order.push_back(ev.index); };
  Slot slot(order);
  sim.set_handler(&h);
  sim.set_frontier(&slot);
  sim.schedule_at(1.0, user_event(0));
  EXPECT_EQ(sim.next_queued_time(), 1.0);
  slot.arm(sim, 1.0);
  sim.schedule_at(1.0, user_event(2));
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.queue_events(), 2u);
  EXPECT_EQ(sim.frontier_steps(), 3u);
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(sim.next_queued_time(), std::numeric_limits<Seconds>::infinity());
}

TEST(Simulator, FrontierCountsTowardStormGuard) {
  Simulator sim;
  RecordingHandler h(sim);
  TickingFrontier f(sim, 1e-6);
  sim.set_handler(&h);
  sim.set_frontier(&f);
  sim.set_max_events(100);
  EXPECT_THROW(sim.run_until(1.0), EventStormError);
}

// ---- engine equivalence -----------------------------------------------------
//
// The TTP walk used to queue one event per token hop. The fixtures were
// recorded from that walk before it was deleted; the frontier walk must
// reproduce them bit for bit.

msg::MessageSet engine_set() {
  msg::MessageSet set;
  set.add({.period = milliseconds(5), .payload_bits = 30'000.0, .station = 1});
  set.add({.period = milliseconds(8), .payload_bits = 50'000.0, .station = 4});
  set.add({.period = milliseconds(13), .payload_bits = 20'000.0, .station = 4});
  return set;
}

SimConfig engine_config(double horizon_periods = 8.0) {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(8);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return make_sim_config(engine_set(), p, mbps(100), horizon_periods);
}

SimConfig poisson_jitter_config() {
  auto cfg = engine_config();
  cfg.async_model = AsyncModel::kPoisson;
  cfg.async_frames_per_second = 300.0;
  cfg.arrival_jitter = 0.3;
  cfg.worst_case_phasing = false;
  cfg.seed = 77;
  return cfg;
}

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(TOKENRING_SIM_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// One run's metrics in the fixtures' format: one `name value` line per
/// field, doubles as hex floats so equality is bit equality.
std::string metrics_record(const SimConfig& cfg) {
  const auto sim = make_simulator(engine_set(), cfg);
  const SimMetrics m = sim->run();
  std::string out;
  const auto line = [&out](const char* name, const char* fmt, auto value) {
    char buf[96];
    std::snprintf(buf, sizeof buf, fmt, value);
    out += std::string(name) + " " + buf + "\n";
  };
  line("messages_released", "%zu", m.messages_released);
  line("messages_completed", "%zu", m.messages_completed);
  line("deadline_misses", "%zu", m.deadline_misses);
  line("async_frames_sent", "%zu", m.async_frames_sent);
  line("max_queue_depth", "%zu", m.max_queue_depth);
  line("response_time.count", "%zu", m.response_time.count());
  line("response_time.mean", "%a", m.response_time.mean());
  line("response_time.max", "%a", m.response_time.max());
  line("response_time.variance", "%a", m.response_time.variance());
  line("normalized_response.mean", "%a", m.normalized_response.mean());
  line("normalized_response.max", "%a", m.normalized_response.max());
  line("token_rotation.count", "%zu", m.token_rotation.count());
  line("token_rotation.mean", "%a", m.token_rotation.mean());
  line("token_rotation.min", "%a", m.token_rotation.min());
  line("token_rotation.max", "%a", m.token_rotation.max());
  line("max_intervisit", "%a", sim->max_intervisit());
  return out;
}

std::string trace_of(const SimConfig& base) {
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  auto cfg = base;
  cfg.trace = &sink;
  run_simulation(engine_set(), cfg);
  sink.flush();
  return os.str();
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(EngineEquivalence, FrontierMatchesEagerBitForBit) {
  EXPECT_EQ(metrics_record(engine_config()),
            read_fixture("eager_metrics_plain.txt"));
}

TEST(EngineEquivalence, HoldsUnderPoissonAsyncAndJitter) {
  EXPECT_EQ(metrics_record(poisson_jitter_config()),
            read_fixture("eager_metrics_poisson_jitter.txt"));
}

TEST(EngineEquivalence, GoldenJsonlTracesAreByteIdentical) {
  // The full JSONL trace stream — every record, every field, formatted —
  // must not differ by a single byte from the recording. The short run is
  // stored whole; the full 8-period run (739 KB) is pinned by its length
  // and FNV-1a digest.
  const std::string want = read_fixture("eager_trace_quarter.jsonl");
  const std::string got = trace_of(engine_config(0.25));
  ASSERT_GT(want.size(), 10'000u);  // a real trace, not an empty file
  EXPECT_TRUE(got == want) << "traces diverge";
  const std::string full = trace_of(engine_config());
  EXPECT_EQ(full.size(), 739'172u);
  EXPECT_EQ(fnv1a64(full), 0xd011c534555ea206ull);
}

TEST(EngineEquivalence, EventCountsMatchWithoutFaults) {
  // The recorded walk's counts (eager_metrics_plain.txt).
  const auto m = make_simulator(engine_set(), engine_config())->run();
  EXPECT_EQ(m.messages_released, 42u);
  EXPECT_EQ(m.messages_completed, 41u);
  EXPECT_EQ(m.deadline_misses, 0u);
}

TEST(EngineEquivalence, HibernationPreservesCompletionMetrics) {
  // collect_rotation_stats = false + async kNone + no trace licenses the
  // idle-lap fast-forward; completion counts and deadline verdicts must
  // survive it (response times may differ only by float re-association).
  auto slow = engine_config();
  slow.async_model = AsyncModel::kNone;
  auto fast = slow;
  fast.collect_rotation_stats = false;
  const auto sm = run_simulation(engine_set(), slow);
  const auto fm = run_simulation(engine_set(), fast);
  EXPECT_EQ(fm.messages_released, sm.messages_released);
  EXPECT_EQ(fm.messages_completed, sm.messages_completed);
  EXPECT_EQ(fm.deadline_misses, sm.deadline_misses);
  EXPECT_NEAR(fm.response_time.mean(), sm.response_time.mean(), 1e-9);
}

}  // namespace
}  // namespace tokenring::sim
