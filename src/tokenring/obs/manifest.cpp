#include "tokenring/obs/manifest.hpp"

#include "tokenring/obs/json.hpp"

#ifndef TOKENRING_VERSION
#define TOKENRING_VERSION "0.0.0"
#endif
#ifndef TOKENRING_GIT_DESCRIBE
#define TOKENRING_GIT_DESCRIBE "unknown"
#endif
#ifndef TOKENRING_BUILD_TYPE
#define TOKENRING_BUILD_TYPE "unknown"
#endif

namespace tokenring::obs {

namespace {

/// A table cell is emitted as a JSON number iff it already *is* one — the
/// strict RFC 8259 grammar, so "1e9" and "-0.5" qualify but "inf", "1,000"
/// and "0x10" stay strings.
bool is_number_token(const std::string& cell) {
  if (cell.empty()) return false;
  const char c = cell.front();
  if (c != '-' && (c < '0' || c > '9')) return false;
  return is_valid_json(cell);
}

void write_cell(JsonWriter& w, const std::string& cell) {
  if (is_number_token(cell)) {
    w.value_raw(cell);
  } else {
    w.value_string(cell);
  }
}

}  // namespace

std::string tool_version() { return TOKENRING_VERSION; }

std::string git_describe() { return TOKENRING_GIT_DESCRIBE; }

std::string build_type() { return TOKENRING_BUILD_TYPE; }

void RunManifest::add_table(const std::string& name, const Table& table) {
  results.push_back(ResultTable{name, table.headers(), table.data()});
}

void RunManifest::write_json(std::ostream& os, int indent) const {
  JsonWriter w(os, indent);
  w.begin_object();
  w.key("schema").value_string("tokenring.run_manifest/1");
  w.key("tool").value_string(tool);
  w.key("version").value_string(version);
  w.key("git").value_string(git);
  w.key("build_type").value_string(build_type);
  if (seed) {
    w.key("seed").value_uint(*seed);
  } else {
    w.key("seed").value_null();
  }
  if (jobs) {
    w.key("jobs").value_uint(*jobs);
  } else {
    w.key("jobs").value_null();
  }

  w.key("config").begin_object();
  for (const auto& [k, v] : config) w.key(k).value_string(v);
  w.end_object();

  w.key("results").begin_array();
  for (const ResultTable& t : results) {
    w.begin_object();
    w.key("name").value_string(t.name);
    w.key("headers").begin_array();
    for (const auto& h : t.headers) w.value_string(h);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : t.rows) {
      w.begin_object();
      for (std::size_t i = 0; i < row.size() && i < t.headers.size(); ++i) {
        w.key(t.headers[i]);
        write_cell(w, row[i]);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("counters").begin_object();
  for (const auto& [name, value] : metrics.counters) w.key(name).value_uint(value);
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, value] : metrics.gauges) w.key(name).value_uint(value);
  w.end_object();

  w.key("histograms").begin_object();
  for (const auto& [name, h] : metrics.histograms) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (double b : h.bounds) w.value_number(b);
    w.end_array();
    w.key("counts").begin_array();
    for (std::uint64_t c : h.counts) w.value_uint(c);
    w.end_array();
    w.key("total").value_uint(h.total);
    w.end_object();
  }
  w.end_object();

  w.key("span_profile").begin_object();
  for (const auto& [name, s] : metrics.spans) {
    w.key(name).begin_object();
    w.key("count").value_uint(s.count);
    w.key("total_ns").value_uint(s.total_ns);
    w.key("max_ns").value_uint(s.max_ns);
    w.end_object();
  }
  w.end_object();

  w.end_object();
  os << '\n';
}

}  // namespace tokenring::obs
