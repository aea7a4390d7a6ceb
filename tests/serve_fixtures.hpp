// Golden byte streams for the serve framing tests, recorded from the
// thread-per-connection reference loop and server before they were
// retired (see tests/fixtures/serve/README.md). Each fixture is a pair:
// `<name>.request` holds the bytes a peer sends, `<name>.response` the
// bytes the reference answered.

#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

namespace tokenring::test {

struct ServeFixture {
  std::string request;
  std::string response;
};

inline ServeFixture serve_fixture(const std::string& name) {
  const auto read = [&name](const char* suffix) {
    const std::string path =
        std::string(TOKENRING_SERVE_FIXTURES) + "/" + name + suffix;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  return {read(".request"), read(".response")};
}

}  // namespace tokenring::test
