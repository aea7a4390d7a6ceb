// End-to-end tests of the tokenring_tool CLI binary: exercises argument
// parsing, exit codes, and the scenario-file round trip through the real
// executable (path injected by CMake as TOKENRING_TOOL_PATH), and checks
// that the tool and the daemon's compute handlers give the same answers.

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tokenring/msg/io.hpp"
#include "tokenring/obs/json.hpp"
#include "tokenring/serve/engine.hpp"

namespace {

using namespace tokenring;

#ifndef TOKENRING_TOOL_PATH
#error "TOKENRING_TOOL_PATH must be defined by the build"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_tool(const std::string& args) {
  const std::string cmd =
      std::string(TOKENRING_TOOL_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buf{};
  RunResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return result;
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe)) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string temp_path(const std::string& name) {
  // ctest runs each gtest case as its own process, possibly in parallel;
  // the pid keeps concurrent cases from clobbering each other's files.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "_" + name))
      .string();
}

void write_scenario(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  out << "station,period_ms,payload_bits\n" << body;
}

class ToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    light_ = temp_path("tool_test_light.csv");
    heavy_ = temp_path("tool_test_heavy.csv");
    write_scenario(light_, "0,50,10000\n1,100,20000\n");
    write_scenario(heavy_, "0,10,2000000\n1,10,2000000\n");  // 40x overload
  }
  void TearDown() override {
    std::remove(light_.c_str());
    std::remove(heavy_.c_str());
  }
  std::string light_;
  std::string heavy_;
};

TEST_F(ToolTest, NoArgsPrintsUsage) {
  const auto r = run_tool("");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(ToolTest, UnknownCommandPrintsUsage) {
  EXPECT_EQ(run_tool("frobnicate").exit_code, 1);
}

TEST_F(ToolTest, CheckSchedulableExitsZero) {
  const auto r =
      run_tool("check --file=" + light_ + " --protocol=fddi --bandwidth-mbps=100");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("SCHEDULABLE"), std::string::npos);
}

TEST_F(ToolTest, CheckOverloadedExitsTwo) {
  const auto r =
      run_tool("check --file=" + heavy_ + " --protocol=fddi --bandwidth-mbps=100");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("NOT SCHEDULABLE"), std::string::npos);
}

TEST_F(ToolTest, CheckAllProtocols) {
  for (const char* proto : {"ieee8025", "modified8025", "fddi"}) {
    const auto r = run_tool("check --file=" + light_ + " --protocol=" + proto +
                            " --bandwidth-mbps=100");
    EXPECT_EQ(r.exit_code, 0) << proto << ": " << r.output;
  }
}

TEST_F(ToolTest, CheckBadProtocolFails) {
  const auto r = run_tool("check --file=" + light_ + " --protocol=wifi");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown protocol"), std::string::npos);
}

TEST_F(ToolTest, CheckMissingFileFails) {
  const auto r = run_tool("check --file=/does/not/exist.csv");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST_F(ToolTest, CheckRequiresFileFlag) {
  EXPECT_EQ(run_tool("check").exit_code, 1);
}

TEST_F(ToolTest, PlanPrintsAllocationTable) {
  const auto r = run_tool("plan --file=" + light_ + " --bandwidth-mbps=100");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("TTRT"), std::string::npos);
  EXPECT_NE(r.output.find("resp_bound_ms"), std::string::npos);
  EXPECT_NE(r.output.find("async capacity left"), std::string::npos);
}

TEST_F(ToolTest, SimulateCleanRunExitsZero) {
  const auto r = run_tool("simulate --file=" + light_ +
                          " --protocol=modified8025 --bandwidth-mbps=16 "
                          "--horizon-ms=300");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("misses=0"), std::string::npos);
}

TEST_F(ToolTest, SimulateOverloadExitsTwo) {
  const auto r = run_tool("simulate --file=" + heavy_ +
                          " --protocol=fddi --bandwidth-mbps=100 "
                          "--horizon-ms=100");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST_F(ToolTest, AdviseShowsRecommendations) {
  const auto r = run_tool(
      "advise --stations=16 --bandwidths-mbps=4,200 --sets=10");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("recommend"), std::string::npos);
  // Low bandwidth -> PDP family; high -> FDDI (the paper's conclusion).
  EXPECT_NE(r.output.find("Modified IEEE 802.5"), std::string::npos);
  EXPECT_NE(r.output.find("FDDI timed token"), std::string::npos);
  // Fault-resilience columns ride along.
  EXPECT_NE(r.output.find("resil_8025"), std::string::npos);
  EXPECT_NE(r.output.find("resil_fddi"), std::string::npos);
}

TEST_F(ToolTest, FaultcheckListsKindsAndExitsZeroWhenSchedulable) {
  const auto r = run_tool("faultcheck --file=" + light_ +
                          " --protocol=fddi --bandwidth-mbps=100");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("SCHEDULABLE"), std::string::npos);
  for (const char* kind : {"token_loss", "frame_corruption", "noise_burst",
                           "station_crash", "duplicate_token"}) {
    EXPECT_NE(r.output.find(kind), std::string::npos) << kind;
  }
  EXPECT_NE(r.output.find("margin"), std::string::npos);
}

TEST_F(ToolTest, FaultcheckOverloadedExitsTwo) {
  const auto r = run_tool("faultcheck --file=" + heavy_ +
                          " --protocol=modified8025 --bandwidth-mbps=100");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("NOT SCHEDULABLE"), std::string::npos);
}

TEST_F(ToolTest, FaultcheckRequiresFileFlag) {
  EXPECT_EQ(run_tool("faultcheck").exit_code, 1);
}

TEST_F(ToolTest, GenerateRoundTripsThroughCheck) {
  const std::string path = temp_path("tool_test_generated.csv");
  const auto gen = run_tool("generate --stations=8 --utilization=0.2 "
                            "--bandwidth-mbps=100 --file=" + path);
  EXPECT_EQ(gen.exit_code, 0) << gen.output;
  const auto check = run_tool("check --file=" + path +
                              " --protocol=fddi --bandwidth-mbps=100");
  EXPECT_EQ(check.exit_code, 0) << check.output;
  std::remove(path.c_str());
}

TEST_F(ToolTest, GenerateToStdoutIsValidCsv) {
  const auto r = run_tool("generate --stations=4 --utilization=0.1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.rfind("station,period_ms,payload_bits", 0), 0u);
}

TEST_F(ToolTest, HelpListsEveryCommand) {
  const auto r = run_tool("help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* cmd :
       {"check", "faultcheck", "plan", "simulate", "advise", "generate"}) {
    EXPECT_NE(r.output.find(cmd), std::string::npos) << cmd;
  }
}

TEST_F(ToolTest, HelpForOneCommandShowsItsFlags) {
  const auto r = run_tool("help simulate");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--trace-jsonl"), std::string::npos);
  EXPECT_NE(r.output.find("--format"), std::string::npos);
}

TEST_F(ToolTest, HelpListsServeCommand) {
  const auto r = run_tool("help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("serve"), std::string::npos);
  const auto detail = run_tool("help serve");
  EXPECT_EQ(detail.exit_code, 0);
  EXPECT_NE(detail.output.find("--port"), std::string::npos);
  EXPECT_NE(detail.output.find("--rate"), std::string::npos);
}

TEST_F(ToolTest, SubcommandHelpFlagExitsZero) {
  // --help is a successful outcome for every subcommand, distinct from a
  // flag error; scripts rely on the exit code to tell them apart.
  const auto r = run_tool("check --help");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("--protocol"), std::string::npos);
}

TEST_F(ToolTest, UnknownFlagExitsOneAndPointsAtHelp) {
  const auto r = run_tool("check --file=" + light_ + " --bogus=1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("help check"), std::string::npos) << r.output;
}

TEST_F(ToolTest, MissingFlagValueExitsOneAndPointsAtHelp) {
  const auto r = run_tool("advise --stations");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("help advise"), std::string::npos) << r.output;
}

TEST_F(ToolTest, JsonFormatEmitsManifestOnStdout) {
  const auto r = run_tool("check --file=" + light_ +
                          " --protocol=fddi --format=json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.rfind("{", 0), 0u) << r.output;
  EXPECT_NE(r.output.find("\"schema\": \"tokenring.run_manifest/1\""),
            std::string::npos);
  EXPECT_NE(r.output.find("\"tool\": \"tokenring_tool check\""),
            std::string::npos);
  // Human banner is suppressed: nothing outside the JSON document.
  EXPECT_EQ(r.output.find("SCHEDULABLE ("), std::string::npos);
}

TEST_F(ToolTest, ManifestFileIsWrittenInTableMode) {
  const std::string path = temp_path("tool_test_manifest.json");
  const auto r = run_tool("check --file=" + light_ +
                          " --protocol=fddi --out=" + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("SCHEDULABLE"), std::string::npos);  // still human
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string manifest((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("tokenring.run_manifest/1"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ToolTest, SimulateWritesJsonlTrace) {
  const std::string path = temp_path("tool_test_trace.jsonl");
  const auto r = run_tool("simulate --file=" + light_ +
                          " --protocol=fddi --horizon-ms=50 "
                          "--trace-jsonl=" + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"at_s\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"kind\":"), std::string::npos) << line;
  }
  EXPECT_GT(lines, 0u);
  std::remove(path.c_str());
}

TEST_F(ToolTest, BadFormatValueFails) {
  const auto r = run_tool("check --file=" + light_ + " --format=xml");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown --format"), std::string::npos);
}

// ---- offline equals served ------------------------------------------------------
//
// `tokenring_tool check`/`faultcheck` and the daemon's compute handlers
// answer the same query; they must agree on the verdict, on the stations
// that miss and on every fault kind's margin.

/// Parsed document, kept alive for the values taken out of it.
obs::JsonValue parse_or_fail(const std::string& text) {
  obs::JsonParseResult parsed = obs::parse_json(text);
  EXPECT_TRUE(parsed.ok) << parsed.error << " in: " << text;
  return parsed.value;
}

/// Rows of the result table `name` in a --format=json run manifest.
std::vector<obs::JsonValue> manifest_rows(const std::string& manifest,
                                          std::string_view name) {
  const obs::JsonValue doc = parse_or_fail(manifest);
  const obs::JsonValue* results = doc.find("results");
  if (results == nullptr) return {};
  for (const obs::JsonValue& table : results->items()) {
    if (table.find("name")->as_string() == name) {
      const auto rows = table.find("rows")->items();
      return {rows.begin(), rows.end()};
    }
  }
  ADD_FAILURE() << "no table " << name << " in: " << manifest;
  return {};
}

/// Stations the table-mode `check` report names as missing.
std::set<int> tool_missing_stations(const std::string& output) {
  std::set<int> stations;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    int station = -1;
    if (std::sscanf(line.c_str(), "  station %d misses", &station) == 1) {
      stations.insert(station);
    }
  }
  return stations;
}

class OfflineEqualsServed
    : public ToolTest,
      public ::testing::WithParamInterface<const char*> {
 protected:
  serve::CheckQuery query(const std::string& scenario) const {
    serve::CheckQuery q;
    q.protocol = GetParam();
    q.bandwidth_mbps = 100.0;
    q.set = msg::load_message_set(scenario);
    return q;
  }
  std::string flags(const std::string& scenario) const {
    return "--file=" + scenario + " --protocol=" + GetParam() +
           " --bandwidth-mbps=100";
  }
  // Overloaded for every protocol, but only station 2 misses under PDP.
  void SetUp() override {
    ToolTest::SetUp();
    mixed_ = temp_path("tool_test_mixed.csv");
    write_scenario(mixed_, "0,10,100000\n1,20,100000\n2,40,3600000\n");
  }
  void TearDown() override {
    std::remove(mixed_.c_str());
    ToolTest::TearDown();
  }
  std::string mixed_;
};

TEST_P(OfflineEqualsServed, CheckVerdictAndMissingStations) {
  for (const std::string& scenario : {light_, mixed_}) {
    const auto table = run_tool("check " + flags(scenario));
    const auto json = run_tool("check " + flags(scenario) + " --format=json");
    ASSERT_EQ(json.exit_code, table.exit_code) << json.output;
    const auto verdict = manifest_rows(json.output, "verdict");
    ASSERT_EQ(verdict.size(), 1u) << json.output;
    const bool offline = verdict[0].find("schedulable")->as_string() == "yes";
    EXPECT_EQ(json.exit_code, offline ? 0 : 2);

    const obs::JsonValue served =
        parse_or_fail(serve::Engine::compute_check(query(scenario)));
    EXPECT_EQ(served.find("schedulable")->as_bool(), offline) << scenario;
    EXPECT_EQ(served.find("protocol")->as_string(),
              verdict[0].find("protocol")->as_string());
    std::set<int> served_missing;
    if (const obs::JsonValue* misses = served.find("misses")) {
      for (const obs::JsonValue& m : misses->items()) {
        served_missing.insert(static_cast<int>(m.find("station")->as_int64()));
      }
    }
    EXPECT_EQ(served_missing, tool_missing_stations(table.output))
        << table.output;
    if (scenario == mixed_ && std::string(GetParam()) != "fddi") {
      EXPECT_EQ(served_missing, std::set<int>{2});
    }
    EXPECT_EQ(offline, scenario == light_);
  }
}

TEST_P(OfflineEqualsServed, FaultcheckVerdictAndEveryMargin) {
  for (const std::string& scenario : {light_, mixed_}) {
    const auto json =
        run_tool("faultcheck " + flags(scenario) + " --format=json");
    const auto rows = manifest_rows(json.output, "fault_margins");

    const obs::JsonValue served =
        parse_or_fail(serve::Engine::compute_faultcheck(query(scenario)));
    const bool schedulable = served.find("schedulable")->as_bool();
    EXPECT_EQ(json.exit_code, schedulable ? 0 : 2) << json.output;
    EXPECT_EQ(schedulable, scenario == light_);
    const auto margins = served.find("margins")->items();
    ASSERT_EQ(rows.size(), margins.size()) << json.output;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const obs::JsonValue& offline = rows[i];
      const obs::JsonValue& online = margins[i];
      EXPECT_EQ(offline.find("fault_kind")->as_string(),
                online.find("fault_kind")->as_string());
      const obs::JsonValue* margin = offline.find("margin");
      if (online.find("margin")->is_null()) {
        EXPECT_EQ(margin->as_string(), "-");
      } else {
        ASSERT_TRUE(margin->is_number()) << json.output;
        EXPECT_EQ(margin->as_int64(), online.find("margin")->as_int64())
            << online.find("fault_kind")->as_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, OfflineEqualsServed,
                         ::testing::Values("ieee8025", "modified8025",
                                           "fddi"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
