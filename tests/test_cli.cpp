// Tests for the command-line argument parser used by the driver tools.
#include <gtest/gtest.h>

#include "src/util/cli.hpp"

namespace vapro::util {
namespace {

CliArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  auto args = parse({"--app=CG", "--ranks=64"});
  EXPECT_EQ(args.get("app", ""), "CG");
  EXPECT_EQ(args.get_int("ranks", 0), 64);
}

TEST(Cli, SpaceForm) {
  auto args = parse({"--app", "SP", "--window", "0.5"});
  EXPECT_EQ(args.get("app", ""), "SP");
  EXPECT_DOUBLE_EQ(args.get_double("window", 0), 0.5);
}

TEST(Cli, BooleanSwitches) {
  auto args = parse({"--ansi", "--list"});
  EXPECT_TRUE(args.get_bool("ansi"));
  EXPECT_TRUE(args.get_bool("list"));
  EXPECT_FALSE(args.get_bool("missing"));
  EXPECT_TRUE(args.get_bool("missing", true));
}

TEST(Cli, BooleanSwitchHandsBackTheNextPositional) {
  // Switch before the positional: the positional is not swallowed.
  auto before = parse({"--no-diagnosis", "run.vprt", "--window=0.5"});
  EXPECT_TRUE(before.get_bool("no-diagnosis"));
  EXPECT_EQ(before.positionals(), (std::vector<std::string>{"run.vprt"}));
  EXPECT_TRUE(before.get_bool("no-diagnosis"));  // idempotent
  EXPECT_EQ(before.positionals().size(), 1u);
  // Switch after the positional: same result.
  auto after = parse({"run.vprt", "--no-diagnosis"});
  EXPECT_TRUE(after.get_bool("no-diagnosis"));
  EXPECT_EQ(after.positionals(), (std::vector<std::string>{"run.vprt"}));
  // The swallowed argument goes back at its original place.
  auto middle = parse({"a", "--verbose", "b", "c"});
  EXPECT_TRUE(middle.get_bool("verbose"));
  EXPECT_EQ(middle.positionals(), (std::vector<std::string>{"a", "b", "c"}));
  // Boolean literals stay the switch's value.
  auto literal = parse({"--json", "false", "--ansi", "yes"});
  EXPECT_FALSE(literal.get_bool("json"));
  EXPECT_TRUE(literal.get_bool("ansi"));
  EXPECT_TRUE(literal.positionals().empty());
  // "--key value" still reads as a value for a non-boolean lookup.
  auto valued = parse({"--from-journal", "jd", "--json", "out.json"});
  EXPECT_EQ(valued.get("from-journal", ""), "jd");
  EXPECT_EQ(valued.get("json", ""), "out.json");
  EXPECT_TRUE(valued.positionals().empty());
}

TEST(Cli, BareStringFlagIsAUsageError) {
  // A value flag given bare reads as its fallback, never as "true", and
  // is named by valueless() so the tool can exit before any work.
  auto args = parse({"--app=CG", "--metrics-out", "--ranks", "--noise",
                     "--json"});
  EXPECT_EQ(args.get("metrics-out", ""), "");
  EXPECT_EQ(args.get_int("ranks", 64), 64);
  EXPECT_TRUE(args.get_all("noise").empty());
  EXPECT_EQ(args.get("app", ""), "CG");
  // A bare switch is still a switch, and not a missing value.
  EXPECT_TRUE(args.get_bool("json"));
  EXPECT_EQ(args.valueless(),
            (std::vector<std::string>{"metrics-out", "noise", "ranks"}));
  EXPECT_TRUE(args.unread().empty());
  // "DIR --from-journal": the flag has no value; DIR stays a positional.
  auto replay = parse({"jd", "--from-journal"});
  EXPECT_EQ(replay.get("from-journal", ""), "");
  EXPECT_EQ(replay.valueless(), (std::vector<std::string>{"from-journal"}));
  EXPECT_EQ(replay.positionals(), (std::vector<std::string>{"jd"}));
  // Given values are never valueless.
  auto given = parse({"--metrics-out=m.json", "--from-journal", "jd"});
  EXPECT_EQ(given.get("metrics-out", ""), "m.json");
  EXPECT_EQ(given.get("from-journal", ""), "jd");
  EXPECT_TRUE(given.valueless().empty());
}

TEST(Cli, RepeatableFlags) {
  auto args = parse({"--noise=cpu:1:0:1:1", "--noise=mem:2:0:1:3"});
  auto noises = args.get_all("noise");
  ASSERT_EQ(noises.size(), 2u);
  EXPECT_EQ(noises[0], "cpu:1:0:1:1");
  EXPECT_EQ(noises[1], "mem:2:0:1:3");
}

TEST(Cli, PositionalsCollected) {
  auto args = parse({"input.txt", "--flag=1", "other"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "input.txt");
}

TEST(Cli, UnreadNamesFlagsNoLookupAsked) {
  auto args = parse({"in.vprt", "--app=CG", "--bogus-flag=3", "--verbose",
                     "--noise=a", "--noise=b"});
  EXPECT_EQ(args.unread(),
            (std::vector<std::string>{"app", "bogus-flag", "noise", "verbose"}));
  args.get("app", "");
  args.get_all("noise");
  args.get_bool("verbose");
  args.has("absent");  // looking up a missing flag is fine
  EXPECT_EQ(args.unread(), (std::vector<std::string>{"bogus-flag"}));
  // Positionals are not flags and never count as unread.
  EXPECT_EQ(args.positionals(), (std::vector<std::string>{"in.vprt"}));
}

TEST(Cli, FallbacksWhenAbsent) {
  auto args = parse({});
  EXPECT_EQ(args.get("x", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(args.has("x"));
}

TEST(Cli, SplitFields) {
  auto fields = split("cpu:1:0.5:inf:2.0", ':');
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], "cpu");
  EXPECT_EQ(fields[3], "inf");
  // Empty fields survive.
  EXPECT_EQ(split("a::b", ':').size(), 3u);
}

}  // namespace
}  // namespace vapro::util
