#include "tokenring/common/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tokenring/common/checks.hpp"

namespace tokenring {
namespace {

// Helper building a mutable argv from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

using Outcome = CliFlags::ParseOutcome;

TEST(Cli, DefaultsApplyWithoutArgs) {
  CliFlags flags;
  flags.declare("sets", "100", "number of sets");
  Argv a({"prog"});
  ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kOk);
  EXPECT_EQ(flags.get_int("sets"), 100);
}

TEST(Cli, EqualsSyntax) {
  CliFlags flags;
  flags.declare("sets", "100", "");
  Argv a({"prog", "--sets=25"});
  ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kOk);
  EXPECT_EQ(flags.get_int("sets"), 25);
}

TEST(Cli, SpaceSyntax) {
  CliFlags flags;
  flags.declare("seed", "1", "");
  Argv a({"prog", "--seed", "777"});
  ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kOk);
  EXPECT_EQ(flags.get_int("seed"), 777);
}

TEST(Cli, UnknownFlagRejected) {
  CliFlags flags;
  flags.declare("sets", "100", "");
  Argv a({"prog", "--bogus=1"});
  EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kError);
}

TEST(Cli, MissingValueRejected) {
  CliFlags flags;
  flags.declare("sets", "100", "");
  Argv a({"prog", "--sets"});
  EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kError);
}

TEST(Cli, PositionalRejected) {
  CliFlags flags;
  flags.declare("sets", "100", "");
  Argv a({"prog", "17"});
  EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kError);
}

TEST(Cli, HelpShortCircuits) {
  CliFlags flags;
  flags.declare("sets", "100", "");
  Argv a({"prog", "--help"});
  EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kHelp);
}

TEST(Cli, ParseDetailedDistinguishesHelpFromErrors) {
  // --help is a successful outcome (the caller exits 0); unknown flags and
  // missing values are errors (exit 1).
  CliFlags flags;
  flags.declare("sets", "100", "");
  {
    Argv a({"prog", "--help"});
    EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              Outcome::kHelp);
  }
  {
    Argv a({"prog", "--bogus=1"});
    EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              Outcome::kError);
  }
  {
    Argv a({"prog", "--sets"});
    EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              Outcome::kError);
  }
  {
    Argv a({"prog", "--sets=7"});
    EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              Outcome::kOk);
    EXPECT_EQ(flags.get_int("sets"), 7);
  }
}

TEST(Cli, UsageShowsDeclaredDefaultsNotParsedValues) {
  // A later argument fails after --sets was already taken from argv: the
  // usage must still show the declared default, not the parsed value.
  CliFlags flags;
  flags.declare("sets", "10", "message sets");
  flags.declare("jobs", "0", "worker threads");
  Argv a({"prog", "--sets=100", "--jobs=4", "--bogus"});
  testing::internal::CaptureStderr();
  EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kError);
  const std::string usage = testing::internal::GetCapturedStderr();
  EXPECT_NE(usage.find("message sets (default: 10)\n"), std::string::npos)
      << usage;
  EXPECT_NE(usage.find("worker threads (default: 0)\n"), std::string::npos)
      << usage;
  EXPECT_EQ(usage.find("(default: 100)"), std::string::npos) << usage;
  EXPECT_EQ(flags.get_int("sets"), 100);
}

TEST(Cli, BareBooleanFollowsTheDeclaredDefault) {
  // Whether a flag may appear bare is a property of its declaration: a
  // boolean flag stays bare-capable after an earlier non-boolean value,
  // and a string flag does not become one after an earlier "true".
  CliFlags flags;
  flags.declare("profile", "false", "");
  flags.declare("name", "x", "");
  {
    Argv a({"prog", "--profile=maybe", "--profile"});
    EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kOk);
    EXPECT_TRUE(flags.get_bool("profile"));
  }
  {
    Argv a({"prog", "--name=true", "--name"});
    testing::internal::CaptureStderr();
    EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kError);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "flag --name requires a value"),
              std::string::npos);
  }
}

TEST(Cli, TypedAccessors) {
  CliFlags flags;
  flags.declare("d", "2.5", "");
  flags.declare("b", "true", "");
  flags.declare("s", "hello", "");
  Argv a({"prog"});
  ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kOk);
  EXPECT_DOUBLE_EQ(flags.get_double("d"), 2.5);
  EXPECT_TRUE(flags.get_bool("b"));
  EXPECT_EQ(flags.get_string("s"), "hello");
}

TEST(Cli, BadTypeThrows) {
  CliFlags flags;
  flags.declare("d", "abc", "");
  Argv a({"prog"});
  ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()), Outcome::kOk);
  EXPECT_THROW(flags.get_double("d"), PreconditionError);
  EXPECT_THROW(flags.get_int("d"), PreconditionError);
  EXPECT_THROW(flags.get_bool("d"), PreconditionError);
}

TEST(Cli, UndeclaredAccessThrows) {
  CliFlags flags;
  EXPECT_THROW(flags.get_string("nope"), PreconditionError);
}

TEST(Cli, DoubleDeclarationThrows) {
  CliFlags flags;
  flags.declare("x", "1", "");
  EXPECT_THROW(flags.declare("x", "2", ""), PreconditionError);
}

TEST(Cli, ParseDoubleList) {
  const auto v = parse_double_list("1,2.5,100");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.5);
  EXPECT_DOUBLE_EQ(v[2], 100.0);
}

TEST(Cli, ParseDoubleListSkipsEmpty) {
  const auto v = parse_double_list("1,,2,");
  ASSERT_EQ(v.size(), 2u);
}

TEST(Cli, ParseDoubleListEmptyString) {
  EXPECT_TRUE(parse_double_list("").empty());
}

}  // namespace
}  // namespace tokenring
