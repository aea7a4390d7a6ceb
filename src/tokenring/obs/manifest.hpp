// RunManifest: the machine-readable record of one tool or bench invocation.
//
// Schema (tokenring.run_manifest/1):
//   {
//     "schema": "tokenring.run_manifest/1",
//     "tool": "<binary or subcommand name>",
//     "version": "<project version>",
//     "git": "<git describe at configure time>",
//     "build_type": "<CMAKE_BUILD_TYPE at configure time>",
//     "seed": <uint> | null,
//     "jobs": <uint> | null,
//     "config": { "<flag>": "<final value>", ... },
//     "results": [ { "name": "...", "headers": [...],
//                    "rows": [ { "<header>": cell, ... }, ... ] }, ... ],
//     "counters": { "<name>": <uint>, ... },
//     "gauges": { "<name>": <uint>, ... },
//     "histograms": { "<name>": { "bounds": [...], "counts": [...],
//                                 "total": <uint> }, ... },
//     "span_profile": { "<name>": { "count": <uint>, "total_ns": <uint>,
//                                   "max_ns": <uint> }, ... }
//   }
//
// Result cells are the same pre-formatted strings shown in the ASCII table;
// cells that are valid JSON number tokens are emitted as numbers, everything
// else as strings. Counters/gauges/histograms are integers merged
// order-independently (see registry.hpp), so for a fixed seed the metric
// blocks are bit-identical for any --jobs value. span_profile carries wall
// times and is *excluded* from that guarantee.

#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "tokenring/common/table.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::obs {

/// Project version baked in at configure time.
std::string tool_version();

/// `git describe` output captured at configure time ("unknown" outside git).
std::string git_describe();

/// CMAKE_BUILD_TYPE captured at configure time (the top-level
/// CMakeLists.txt defaults it to RelWithDebInfo). Timings are comparable
/// only between builds of the same type.
std::string build_type();

struct RunManifest {
  std::string tool;
  std::string version = tool_version();
  std::string git = git_describe();
  std::string build_type = obs::build_type();
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> jobs;
  std::vector<std::pair<std::string, std::string>> config;

  struct ResultTable {
    std::string name;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<ResultTable> results;

  MetricsSnapshot metrics;

  void add_table(const std::string& name, const Table& table);

  /// Serialize as one JSON document. indent 0 emits a single line.
  void write_json(std::ostream& os, int indent = 2) const;
};

}  // namespace tokenring::obs
