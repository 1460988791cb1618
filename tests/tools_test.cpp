#include <gtest/gtest.h>

#include "options.hpp"

namespace adam2::tools {
namespace {

Options parse(std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (auto& a : args) argv.push_back(a.data());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesNameValuePairs) {
  auto flags = parse({"--nodes", "500", "--attribute", "ram_mb"});
  EXPECT_EQ(flags.get_int("nodes", 0), 500);
  EXPECT_EQ(flags.get("attribute", ""), "ram_mb");
}

TEST(FlagsTest, ParsesEqualsSyntax) {
  auto flags = parse({"--churn=0.01"});
  EXPECT_DOUBLE_EQ(flags.get_double("churn", 0.0), 0.01);
}

TEST(FlagsTest, SwitchesHaveEmptyValue) {
  auto flags = parse({"--help", "--nodes", "5"});
  EXPECT_TRUE(flags.get_bool("help"));
  EXPECT_EQ(flags.get_int("nodes", 0), 5);
}

TEST(FlagsTest, TrailingSwitchWorks) {
  auto flags = parse({"--nodes", "5", "--verbose"});
  EXPECT_TRUE(flags.has("verbose"));
}

TEST(FlagsTest, FallbacksApplyWhenAbsent) {
  auto flags = parse({});
  EXPECT_EQ(flags.get_int("nodes", 123), 123);
  EXPECT_DOUBLE_EQ(flags.get_double("churn", 0.5), 0.5);
  EXPECT_EQ(flags.get("name", "dflt"), "dflt");
  EXPECT_FALSE(flags.has("anything"));
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  auto flags = parse({"generate", "--nodes", "5", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "generate");
  EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(FlagsTest, BadIntegerThrows) {
  // Malformed, a bare flag followed by another flag, an empty `=` value,
  // and an overflow.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--nodes", "abc"},
        std::vector<std::string>{"--nodes", "--seed", "1"},
        std::vector<std::string>{"--nodes="},
        std::vector<std::string>{"--nodes", "99999999999999999999"}}) {
    auto flags = parse(args);
    EXPECT_THROW((void)flags.get_int("nodes", 0), std::invalid_argument)
        << args.back();
  }
}

TEST(FlagsTest, BadDoubleThrows) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--churn", "zzz"},
        std::vector<std::string>{"--churn", "--nodes", "100"},
        std::vector<std::string>{"--churn="},
        std::vector<std::string>{"--churn", "1e999"}}) {
    auto flags = parse(args);
    EXPECT_THROW((void)flags.get_double("churn", 0.0), std::invalid_argument)
        << args.back();
  }
}

TEST(FlagsTest, UnderflowingDoubleParsesAsZero) {
  auto flags = parse({"--churn", "1e-400"});
  EXPECT_EQ(flags.get_double("churn", 1.0), 0.0);
}

TEST(FlagsTest, RejectUnknownCatchesTypos) {
  auto flags = parse({"--nodez", "5"});
  (void)flags.get_int("nodes", 0);
  EXPECT_THROW(flags.reject_unknown(), std::invalid_argument);
}

TEST(FlagsTest, RejectUnknownPassesWhenAllSeen) {
  auto flags = parse({"--nodes", "5"});
  (void)flags.get_int("nodes", 0);
  EXPECT_NO_THROW(flags.reject_unknown());
}

TEST(FlagsTest, NegativeNumberIsAValueNotAFlag) {
  auto flags = parse({"--offset", "-5"});
  EXPECT_EQ(flags.get_int("offset", 0), -5);
}

}  // namespace
}  // namespace adam2::tools
