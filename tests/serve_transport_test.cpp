// Fault-injection tests for the serve/ transport seam and the reactor's
// framing machine (ConnFsm), driven over the in-memory FaultyIo double so
// every fault a real socket can produce (short reads, EINTR storms,
// readiness edges, mid-frame disconnects, byte corruption, stalls) is
// replayed deterministically from a seed. Fault-free byte streams are
// pinned to golden fixtures recorded from the retired thread-per-connection
// reference loop (serve_fixtures.hpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve_fixtures.hpp"
#include "tokenring/obs/json.hpp"
#include "tokenring/serve/conn_fsm.hpp"
#include "tokenring/serve/transport.hpp"
#include "tokenring/serve/wire.hpp"

namespace {

using namespace tokenring;
using serve::ConnectionEnd;
using serve::ConnectionLimits;
using serve::ConnFsm;
using serve::FaultyIo;
using serve::TransportFaultPlan;
using test::serve_fixture;

/// Echo-style handler: a tiny JSON envelope around the request line, so
/// responses are checkable without any schedulability compute.
std::string echo_handler(std::string_view line) {
  std::string out = "{\"echo\":\"";
  out += obs::escape_json(std::string(line));
  out += "\"}";
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Drive the FSM to completion with inline completions (submit answers
/// immediately, the reactor cache-hit/refusal shape). Returns the number
/// of readiness-edge pumps it took.
int pump_to_completion(
    ConnFsm& fsm,
    const std::function<std::string(std::string_view)>& handler =
        echo_handler) {
  int edges = 0;
  const ConnFsm::Submit inline_answer = [&](std::string_view line,
                                            std::uint64_t slot) {
    fsm.complete(slot, handler(line));
  };
  for (; !fsm.finished() && edges < 100000; ++edges) {
    fsm.on_readable(inline_answer);
    fsm.on_writable();
    if (!fsm.reading() && fsm.pending() == 0 && !fsm.wants_write()) break;
  }
  return edges;
}

// ---- the transport seam, through the framing machine -------------------

TEST(ServeTransport, ReadRidesOutEintrStormsAndShortReads) {
  TransportFaultPlan plan;
  plan.max_read_chunk = 1;  // 1-byte dribble
  plan.eintr_per_op = 3;    // every recv and send fails 3 times first
  FaultyIo io("hello world\n", plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");

  pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kPeerClosed);
  EXPECT_EQ(io.output(), echo_handler("hello world") + "\n");
  EXPECT_GT(io.eintr_injected(), 0u);  // the storms actually fired
}

TEST(ServeTransport, WriteAllSurvivesShortWritesAndEintr) {
  TransportFaultPlan plan;
  plan.max_write_chunk = 2;
  plan.eintr_per_op = 2;
  const std::string payload(257, 'z');
  FaultyIo io(payload + "\n", plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");

  pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kPeerClosed);
  EXPECT_EQ(io.output(), echo_handler(payload) + "\n");
  EXPECT_EQ(fsm.bytes_sent(), io.output().size());
}

TEST(ServeTransport, MidStreamResetSurfacesAsError) {
  // Read side: the first line is answered and flushed on its own edge;
  // the reset lands inside the second line and ends the connection with
  // a read error, the torn line unanswered.
  TransportFaultPlan plan;
  plan.max_read_chunk = 4;
  plan.eagain_every = 2;
  plan.reset_read_after = 6;
  FaultyIo io("one\ntwo\n", plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");
  pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kReadError);
  EXPECT_TRUE(io.shutdown_called());
  EXPECT_EQ(io.output(), echo_handler("one") + "\n");

  // Write side: the peer vanishes three bytes into the response.
  TransportFaultPlan wplan;
  wplan.reset_write_after = 3;
  FaultyIo wio("abcdef\n", wplan);
  ConnFsm wfsm(wio, ConnectionLimits{}, "test");
  pump_to_completion(wfsm);
  EXPECT_TRUE(wfsm.finished());
  EXPECT_EQ(wfsm.end(), ConnectionEnd::kWriteError);
  EXPECT_EQ(wio.output(), echo_handler("abcdef").substr(0, 3));
}

TEST(ServeTransport, StalledPeerReportsTimeoutNotHang) {
  // The peer stops reading four bytes into its response: every later
  // send hits EAGAIN. The owner's write deadline fires expire_write(),
  // which ends the connection at once and writes nothing further.
  TransportFaultPlan plan;
  plan.max_write_chunk = 4;
  plan.eagain_every = 2;
  FaultyIo io("request\nsecond\n", plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");

  std::vector<std::uint64_t> deferred;
  fsm.on_readable([&](std::string_view line, std::uint64_t slot) {
    if (line == "request") {
      fsm.complete(slot, echo_handler(line));
    } else {
      deferred.push_back(slot);
    }
  });
  fsm.on_writable();
  ASSERT_EQ(io.output().size(), 4u);
  ASSERT_TRUE(fsm.wants_write());
  ASSERT_EQ(deferred.size(), 1u);

  fsm.expire_write();
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kWriteTimeout);
  EXPECT_TRUE(io.shutdown_called());
  EXPECT_FALSE(fsm.wants_write());

  // Late completions, write edges and read edges change nothing.
  fsm.complete(deferred[0], echo_handler("second"));
  for (int i = 0; i < 4; ++i) {
    fsm.on_writable();
    fsm.on_readable([&](std::string_view, std::uint64_t) {
      ADD_FAILURE() << "a finished connection submitted a line";
    });
  }
  EXPECT_EQ(io.output(), echo_handler("request").substr(0, 4));
  EXPECT_EQ(fsm.end(), ConnectionEnd::kWriteTimeout);
}

TEST(ServeTransport, RandomPlansCoverTheWholeFaultMenu) {
  // The seeded generator must actually exercise every fault class across
  // a modest seed range, or the sweeps below test less than they claim.
  bool short_reads = false, short_writes = false, eintr = false;
  bool read_reset = false, write_reset = false, corruption = false;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const TransportFaultPlan plan = TransportFaultPlan::random(seed);
    short_reads |= plan.max_read_chunk != 0;
    short_writes |= plan.max_write_chunk != 0;
    eintr |= plan.eintr_per_op != 0;
    read_reset |= plan.reset_read_after != TransportFaultPlan::kNever;
    write_reset |= plan.reset_write_after != TransportFaultPlan::kNever;
    corruption |= plan.corrupt_read_at != TransportFaultPlan::kNever;
    // Determinism: the same seed always yields the same plan.
    const TransportFaultPlan again = TransportFaultPlan::random(seed);
    EXPECT_EQ(plan.max_read_chunk, again.max_read_chunk);
    EXPECT_EQ(plan.reset_read_after, again.reset_read_after);
    EXPECT_EQ(plan.corrupt_read_at, again.corrupt_read_at);
  }
  EXPECT_TRUE(short_reads && short_writes && eintr && read_reset &&
              write_reset && corruption);
}

// ---- connection rules: framing, 413, timeouts, errors ------------------

TEST(ServeConnection, FramesPipelinedRequestsAcrossHostileChunking) {
  // Three pipelined lines, delivered one byte at a time under an EINTR
  // storm with frequent edge exhaustion: framing must be unaffected and
  // every response present, in order.
  const auto golden = serve_fixture("echo_hostile_chunking");
  TransportFaultPlan plan;
  plan.max_read_chunk = 1;
  plan.eintr_per_op = 2;
  plan.eagain_every = 3;
  FaultyIo io(golden.request, plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");

  pump_to_completion(fsm);
  EXPECT_EQ(fsm.end(), ConnectionEnd::kPeerClosed);
  const auto lines = split_lines(io.output());
  ASSERT_EQ(lines.size(), 3u);  // the empty line is skipped, CR stripped
  EXPECT_EQ(lines[0], "{\"echo\":\"alpha\"}");
  EXPECT_EQ(lines[1], "{\"echo\":\"beta\"}");
  EXPECT_EQ(lines[2], "{\"echo\":\"gamma\"}");
  EXPECT_EQ(io.output(), golden.response);
}

TEST(ServeConnection, OversizedLineAnswers413OnceAndCloses) {
  ConnectionLimits limits;
  limits.max_line = 8;
  // The oversized line arrives complete, with a valid line pipelined
  // after it that must NOT be answered.
  const auto golden = serve_fixture("echo_oversized_complete");
  FaultyIo io(golden.request, TransportFaultPlan{});
  ConnFsm fsm(io, limits, "test");
  pump_to_completion(fsm);
  EXPECT_EQ(fsm.end(), ConnectionEnd::kOversized);
  EXPECT_TRUE(io.shutdown_called());
  const auto lines = split_lines(io.output());
  ASSERT_EQ(lines.size(), 1u);
  const auto doc = obs::parse_json(lines[0]);
  ASSERT_TRUE(doc.ok) << lines[0];
  EXPECT_EQ(doc.value.find("status")->as_int64(), 413);
  EXPECT_EQ(io.output(), golden.response);
}

TEST(ServeConnection, UnboundedPartialLineAlsoAnswers413AndCloses) {
  ConnectionLimits limits;
  limits.max_line = 8;
  // No newline ever arrives: the buffered fragment crosses max_line and
  // the connection is cut with one 413.
  const auto golden = serve_fixture("echo_oversized_partial");
  FaultyIo io(golden.request, TransportFaultPlan{});
  ConnFsm fsm(io, limits, "test");
  pump_to_completion(fsm);
  EXPECT_EQ(fsm.end(), ConnectionEnd::kOversized);
  const auto lines = split_lines(io.output());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("413"), std::string::npos);
  EXPECT_EQ(io.output(), golden.response);
}

TEST(ServeConnection, IdleStallEndsWithTimeoutNotHang) {
  // The peer never sends: every recv is EAGAIN. The read edge returns at
  // once, the machine stays idle and reading, and the owner's idle
  // deadline ends it with nothing written.
  TransportFaultPlan plan;
  plan.eagain_every = 1;
  FaultyIo io("unsent", plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");
  fsm.on_readable([](std::string_view, std::uint64_t) {
    ADD_FAILURE() << "a stalled peer delivered a line";
  });
  EXPECT_TRUE(fsm.idle());
  EXPECT_TRUE(fsm.reading());
  EXPECT_EQ(fsm.bytes_received(), 0u);

  fsm.expire_idle();
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kIdleTimeout);
  EXPECT_TRUE(io.shutdown_called());
  EXPECT_EQ(io.output(), "");
}

TEST(ServeConnection, PeerResetWhileWritingEndsWithWriteError) {
  TransportFaultPlan plan;
  plan.reset_write_after = 4;  // the echo response cannot land
  FaultyIo io("request\n", plan);
  ConnFsm fsm(io, ConnectionLimits{}, "test");
  pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kWriteError);
}

TEST(ServeConnection, SeededFaultPlansNeverCrashAndSurvivorsStayWellFormed) {
  // The chaos sweep in miniature: 200 seeded fault plans over a pipelined
  // request stream, each replayed deterministically. The machine must
  // always finish with a coherent reason, never crash, and whatever
  // complete response lines made it out must be the handler's exact
  // output for a prefix of the request stream (faults can truncate the
  // conversation, never corrupt the answered part — corruption of request
  // bytes changes the echo, so plans that corrupt are only checked for
  // line integrity).
  const std::vector<std::string> requests = {"one", "two", "three", "four"};
  std::string stream;
  for (const auto& r : requests) stream += r + "\n";

  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TransportFaultPlan plan = TransportFaultPlan::random(seed);
    // Half the plans also slice the stream into readiness edges.
    if (seed % 2 == 0) {
      plan.eagain_every = 2 + static_cast<std::uint32_t>(seed % 3);
    }
    FaultyIo io(stream, plan);
    ConnectionLimits limits;
    limits.max_line = 1024;
    ConnFsm fsm(io, limits, "s");
    pump_to_completion(fsm);
    EXPECT_TRUE(fsm.finished()) << "seed " << seed;
    const auto end = fsm.end();
    EXPECT_TRUE(end == ConnectionEnd::kPeerClosed ||
                end == ConnectionEnd::kOversized ||
                end == ConnectionEnd::kReadError ||
                end == ConnectionEnd::kWriteError)
        << "seed " << seed;

    const bool corrupted = plan.corrupt_read_at < stream.size();
    const auto lines = split_lines(io.output());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto doc = obs::parse_json(lines[i]);
      ASSERT_TRUE(doc.ok) << "seed " << seed << " line " << i << ": "
                          << lines[i];
      if (!corrupted && i < requests.size()) {
        EXPECT_EQ(lines[i], echo_handler(requests[i])) << "seed " << seed;
      }
    }
  }
}

TEST(ServeConnection, EngineResponsesSurviveTransportFaultsBitIdentically) {
  // End-to-end property the chaos harness relies on: a well-formed
  // request whose response lands despite transport faults carries the
  // same bytes as the fault-free answer. serve::error_response is a pure
  // function of the line, so parse errors are compared too.
  const std::string request_line =
      "{\"type\":\"check\",\"id\":1,\"protocol\":\"fddi\","
      "\"bandwidth_mbps\":100,\"streams\":["
      "{\"station\":0,\"period_ms\":50,\"payload_bits\":10000}]}";
  const auto handler = [](std::string_view line) -> std::string {
    // Deterministic stand-in for Engine::handle_line: envelope only, no
    // Monte Carlo, so 200 seeds stay fast.
    return serve::error_response("", 400, std::string(line));
  };
  const std::string expected = handler(request_line);

  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TransportFaultPlan plan = TransportFaultPlan::random(seed);
    plan.corrupt_read_at = TransportFaultPlan::kNever;  // keep bytes honest
    FaultyIo io(request_line + "\n", plan);
    ConnFsm fsm(io, ConnectionLimits{}, "s");
    pump_to_completion(fsm, handler);
    EXPECT_TRUE(fsm.finished()) << "seed " << seed;
    const auto lines = split_lines(io.output());
    if (!lines.empty()) {
      EXPECT_EQ(lines[0], expected) << "seed " << seed;
    }
  }
}

// ---- ConnFsm: readiness edges and pipelining ---------------------------
//
// A FaultyIo plan's injected EAGAINs act as readiness-edge boundaries:
// every EAGAIN ends one on_readable()/on_writable() pump exactly like the
// kernel exhausting an epoll edge. These tests pin the FSM's byte stream
// to the golden fixtures.

TEST(ServeConnFsm, PipelinedFrameSplitAcrossManyReadinessEdges) {
  // Three pipelined requests, with every second recv/send ending the
  // readiness edge and 5-byte chunks: same bytes out as the reference.
  const auto golden = serve_fixture("echo_pipelined_crlf");
  TransportFaultPlan plan;
  plan.max_read_chunk = 5;
  plan.eagain_every = 2;
  FaultyIo io(golden.request, plan);
  ConnFsm fsm(io, ConnectionLimits{}, "fsm");

  const int edges = pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kPeerClosed);
  // The plan actually fragmented the stream into multiple edges.
  EXPECT_GT(edges, 3);
  EXPECT_EQ(io.output(), golden.response);
}

TEST(ServeConnFsm, ByteByByteFrameUnderEintrStorm) {
  const auto golden = serve_fixture("echo_ping");
  TransportFaultPlan plan;
  plan.max_read_chunk = 1;  // one byte per recv
  plan.eintr_per_op = 3;    // three EINTRs before every recv/send lands
  plan.eagain_every = 3;    // and frequent edge exhaustion on top
  FaultyIo io(golden.request, plan);
  ConnFsm fsm(io, ConnectionLimits{}, "fsm");

  pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  EXPECT_GT(io.eintr_injected(), 0u);
  EXPECT_EQ(io.output(), golden.response);
}

TEST(ServeConnFsm, OversizedLineAnswers413AfterEarlierPipelinedResponses) {
  ConnectionLimits limits;
  limits.max_line = 32;
  // A short request, then a 200-byte line.
  const auto golden = serve_fixture("echo_oversized_after_pipelined");
  FaultyIo io(golden.request, TransportFaultPlan{});
  ConnFsm fsm(io, limits, "fsm");

  // Defer the small request's completion: the 413 must queue behind it,
  // not jump the pipeline.
  std::vector<std::pair<std::string, std::uint64_t>> submitted;
  fsm.on_readable([&](std::string_view line, std::uint64_t slot) {
    submitted.emplace_back(std::string(line), slot);
  });
  ASSERT_EQ(submitted.size(), 1u);
  EXPECT_FALSE(fsm.reading());  // oversized stopped the read side
  fsm.on_writable();
  EXPECT_EQ(io.output(), "");  // nothing released while slot 0 is pending

  fsm.complete(submitted[0].second, echo_handler(submitted[0].first));
  fsm.on_writable();
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(fsm.end(), ConnectionEnd::kOversized);
  const auto lines = split_lines(io.output());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("{\\\"id\\\":1}"), std::string::npos);
  EXPECT_NE(lines[1].find("413"), std::string::npos);
  EXPECT_EQ(io.output(), golden.response);
}

TEST(ServeConnFsm, OutOfOrderCompletionsReleaseInSlotOrder) {
  const auto golden = serve_fixture("echo_four_ids");
  FaultyIo io(golden.request, TransportFaultPlan{});
  ConnFsm fsm(io, ConnectionLimits{}, "fsm");

  std::vector<std::pair<std::string, std::uint64_t>> submitted;
  fsm.on_readable([&](std::string_view line, std::uint64_t slot) {
    submitted.emplace_back(std::string(line), slot);
  });
  ASSERT_EQ(submitted.size(), 4u);
  EXPECT_EQ(fsm.pending(), 4u);

  // Complete 2, 0, 3, 1: bytes must still come out as 0, 1, 2, 3.
  for (const std::size_t k : {2u, 0u, 3u, 1u}) {
    fsm.complete(submitted[k].second, echo_handler(submitted[k].first));
    fsm.on_writable();
  }
  EXPECT_TRUE(fsm.finished());
  // The partial release points were in order too: after completing only
  // slot 2 nothing could flush, which the in-order golden proves.
  EXPECT_EQ(io.output(), golden.response);
}

TEST(ServeConnFsm, TrailingFragmentAtEofIsDroppedUnanswered) {
  const auto golden = serve_fixture("echo_trailing_fragment");
  FaultyIo io(golden.request, TransportFaultPlan{});
  ConnFsm fsm(io, ConnectionLimits{}, "fsm");

  pump_to_completion(fsm);
  EXPECT_TRUE(fsm.finished());
  EXPECT_EQ(split_lines(io.output()).size(), 1u);
  EXPECT_EQ(io.output(), golden.response);
}

TEST(ServeConnFsm, CarriageReturnAtTheLimitDoesNotDependOnChunking) {
  // An 8-byte line at an 8-byte limit, CRLF-terminated, is legal however
  // the kernel splits it — including right between the '\r' and '\n'.
  ConnectionLimits limits;
  limits.max_line = 8;
  const std::string input = "12345678\r\n";
  for (const std::size_t chunk : {0u, 1u, 3u, 9u}) {
    TransportFaultPlan plan;
    plan.max_read_chunk = chunk;
    plan.eagain_every = 2;
    FaultyIo io(input, plan);
    ConnFsm fsm(io, limits, "fsm");
    pump_to_completion(fsm);
    EXPECT_EQ(fsm.end(), ConnectionEnd::kPeerClosed) << "chunk " << chunk;
    EXPECT_EQ(io.output(), echo_handler("12345678") + "\n")
        << "chunk " << chunk;
  }
  // One more content byte is oversized, whether or not its '\n' came.
  for (const std::string over : {"123456789\r\n", "123456789\r"}) {
    FaultyIo io(over, TransportFaultPlan{});
    ConnFsm fsm(io, limits, "fsm");
    pump_to_completion(fsm);
    EXPECT_EQ(fsm.end(), ConnectionEnd::kOversized);
  }
}

TEST(ServeConnFsm, RandomFaultPlansMatchTheBlockingLoopByteForByte) {
  // 200 seeded plans: any responses the FSM manages to produce must be a
  // prefix of the reference loop's fault-free answer. Corruption is
  // excluded (it garbles the echoed payload), resets are not.
  const auto golden = serve_fixture("echo_three_lines");
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TransportFaultPlan plan = TransportFaultPlan::random(seed);
    plan.corrupt_read_at = TransportFaultPlan::kNever;
    // >= 2: every-single-call EAGAIN would never let a byte through.
    plan.eagain_every = 2 + static_cast<std::uint32_t>(seed % 3);
    FaultyIo io(golden.request, plan);
    ConnFsm fsm(io, ConnectionLimits{}, "fsm");
    pump_to_completion(fsm);
    EXPECT_TRUE(fsm.finished()) << "seed " << seed;
    EXPECT_EQ(io.output(), golden.response.substr(0, io.output().size()))
        << "seed " << seed;
  }
}

}  // namespace
