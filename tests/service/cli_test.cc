// The command-line front end both sweep CLIs share: the argv grammar, the
// sweep-defining flag list that SpecFromFlags reads and --spec rejects, the
// resilience flags and the exit-code mapping.
#include "service/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"

namespace saffire::cli {
namespace {

const Cli& TestCli() {
  static const Cli cli{"tests/service/cli_test.cc",
                       {{"rows", "16"}, {"bit", "8"}, Switch("abft")},
                       {{"threads", "4"}, Switch("progress")}};
  return cli;
}

Args Parse(std::vector<std::string> words) {
  std::vector<char*> argv{const_cast<char*>("cli")};
  for (std::string& word : words) argv.push_back(word.data());
  return Args(static_cast<int>(argv.size()), argv.data(), TestCli());
}

std::string UsageMessage(std::vector<std::string> words) {
  try {
    Parse(std::move(words));
  } catch (const UsageError& error) {
    return error.what();
  }
  return "";
}

TEST(CliArgsTest, ReadsValuesSwitchesAndFallbacks) {
  const Args args = Parse({"--rows", "8", "--abft", "--max-retries", "0"});
  EXPECT_EQ(args.Get("rows"), "8");
  EXPECT_EQ(args.Get("bit"), "8");
  EXPECT_TRUE(args.Has("abft"));
  EXPECT_FALSE(args.Has("progress"));
  EXPECT_EQ(args.Get("threads"), "4");
  EXPECT_EQ(args.Get("metrics-format"), "prom");
  const ResilienceOptions resilience = ResilienceFromFlags(args);
  EXPECT_EQ(resilience.max_retries, 0);
  EXPECT_EQ(resilience.on_failure, OnFailure::kQuarantine);
}

TEST(CliArgsTest, RejectsMalformedCommandLines) {
  EXPECT_EQ(UsageMessage({"rows"}), "expected a --flag, got 'rows'");
  EXPECT_EQ(UsageMessage({"--cols", "4"}), "unknown flag '--cols'");
  EXPECT_EQ(UsageMessage({"--rows"}), "flag '--rows' expects a value");
}

TEST(CliArgsTest, SpecFromFlagsSeesOnlyTheSweepDefiningFlags) {
  const Args spec_flags = Parse({"--rows", "8", "--threads", "2"}).SpecFlags();
  EXPECT_EQ(spec_flags.Get("rows"), "8");
  EXPECT_FALSE(spec_flags.Has("threads"));
  EXPECT_THROW(spec_flags.Get("threads"), InternalError);
}

TEST(CliArgsTest, SpecFileRejectsEverySweepDefiningFlag) {
  const std::string path = ::testing::TempDir() + "cli_test_spec.json";
  std::ofstream(path) << "{}";
  EXPECT_EQ(Parse({"--spec", path, "--threads", "2"}).SpecFileText(), "{}");
  for (const std::vector<std::string>& extra :
       std::vector<std::vector<std::string>>{
           {"--rows", "8"}, {"--bit", "3"}, {"--abft"}}) {
    std::vector<std::string> words{"--spec", path};
    words.insert(words.end(), extra.begin(), extra.end());
    try {
      Parse(words).SpecFileText();
      ADD_FAILURE() << extra[0] << " was accepted beside --spec";
    } catch (const UsageError& error) {
      EXPECT_EQ(std::string(error.what()),
                "--spec already defines the sweep; drop '" + extra[0] + "'");
    }
  }
  std::remove(path.c_str());
  EXPECT_THROW(Parse({"--spec", path}).SpecFileText(), UsageError);
}

TEST(CliArgsTest, ParseListTrimsEachItem) {
  EXPECT_EQ(ParseList(" 3, 8 ,31", ParseIntItem),
            (std::vector<int>{3, 8, 31}));
}

int RunMain(std::vector<std::string> words,
            const std::function<int(const Args&)>& body) {
  std::vector<char*> argv{const_cast<char*>("cli")};
  for (std::string& word : words) argv.push_back(word.data());
  return Main(static_cast<int>(argv.size()), argv.data(), TestCli(), body);
}

TEST(CliMainTest, MapsOutcomesToExitCodes) {
  const auto ok = [](const Args&) { return 3; };
  EXPECT_EQ(RunMain({"--bit", "4"}, ok), 3);
  EXPECT_EQ(RunMain({"--help"}, ok), 0);
  EXPECT_EQ(RunMain({"--nope"}, ok), 1);
  EXPECT_EQ(RunMain({}, [](const Args&) -> int {
              throw std::runtime_error("boom");
            }),
            1);
}

}  // namespace
}  // namespace saffire::cli
