#include "patterns/dictionary.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace saffire {
namespace {

AccelConfig TestConfig() {
  AccelConfig config;
  config.max_compute_rows = 1024;
  config.spad_rows = 2048;
  config.acc_rows = 1024;
  config.dram_bytes = 8 << 20;
  return config;
}

TEST(FaultDictionaryTest, BuildCapturesConfiguration) {
  const auto dictionary = BuildFaultDictionary(
      Gemm16x16(), TestConfig(), Dataflow::kWeightStationary);
  EXPECT_EQ(dictionary.workload_name, "gemm-16x16");
  EXPECT_EQ(dictionary.dataflow, Dataflow::kWeightStationary);
  EXPECT_EQ(dictionary.array_rows, 16);
  EXPECT_EQ(dictionary.array_cols, 16);
  EXPECT_EQ(dictionary.gemm_m, 16);
  EXPECT_EQ(dictionary.classes.size(), 16u);  // one per array column
}

TEST(FaultDictionaryTest, JsonContainsSchemaFields) {
  const auto dictionary = BuildFaultDictionary(
      Gemm16x16(), TestConfig(), Dataflow::kOutputStationary);
  const std::string json = ToJson(dictionary);
  EXPECT_NE(json.find("\"workload\":\"gemm-16x16\""), std::string::npos);
  EXPECT_NE(json.find("\"dataflow\":\"OS\""), std::string::npos);
  EXPECT_NE(json.find("\"array\":{\"rows\":16,\"cols\":16}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pattern\":\"single-element\""), std::string::npos);
}

TEST(FaultDictionaryTest, RoundTripsExactly) {
  for (const Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kOutputStationary,
        Dataflow::kInputStationary}) {
    for (const WorkloadSpec& workload :
         {Gemm16x16(), Conv16Kernel3x3x3x8()}) {
      const auto original =
          BuildFaultDictionary(workload, TestConfig(), dataflow);
      const auto parsed = FaultDictionaryFromJson(ToJson(original));
      EXPECT_EQ(parsed, original)
          << workload.name << " " << ToString(dataflow);
    }
  }
}

TEST(FaultDictionaryTest, ParserAcceptsWhitespace) {
  const auto original = BuildFaultDictionary(
      Gemm16x16(), TestConfig(), Dataflow::kWeightStationary);
  std::string json = ToJson(original);
  // Inject whitespace after every comma and brace.
  std::string spaced;
  for (const char c : json) {
    spaced.push_back(c);
    if (c == ',' || c == '{' || c == '[' || c == ':') spaced += "\n  ";
  }
  EXPECT_EQ(FaultDictionaryFromJson(spaced), original);
}

TEST(FaultDictionaryTest, ParserRejectsMalformedInput) {
  EXPECT_THROW(FaultDictionaryFromJson(""), std::invalid_argument);
  EXPECT_THROW(FaultDictionaryFromJson("{"), std::invalid_argument);
  EXPECT_THROW(FaultDictionaryFromJson("{\"bogus\":1}"),
               std::invalid_argument);
  EXPECT_THROW(FaultDictionaryFromJson("{\"workload\":\"x\"} trailing"),
               std::invalid_argument);
  EXPECT_THROW(
      FaultDictionaryFromJson("{\"dataflow\":\"XX\"}"),
      std::invalid_argument);
  EXPECT_THROW(
      FaultDictionaryFromJson(
          "{\"classes\":[{\"pattern\":\"no-such-class\",\"sites\":[[0,0]],"
          "\"coords\":[]}]}"),
      std::invalid_argument);
  // A class without sites has no representative.
  EXPECT_THROW(
      FaultDictionaryFromJson(
          "{\"classes\":[{\"pattern\":\"masked\",\"sites\":[],"
          "\"coords\":[]}]}"),
      std::invalid_argument);
  // Integers their field cannot hold fail instead of overflowing or
  // wrapping around.
  EXPECT_THROW(
      FaultDictionaryFromJson(
          "{\"workload\":\"w\",\"dataflow\":\"WS\",\"array\":"
          "{\"rows\":99999999999999999999,\"cols\":16}}"),
      std::invalid_argument);
  EXPECT_THROW(
      FaultDictionaryFromJson(
          "{\"workload\":\"w\",\"dataflow\":\"WS\",\"array\":"
          "{\"rows\":4294967312,\"cols\":16}}"),
      std::invalid_argument);
  EXPECT_THROW(
      FaultDictionaryFromJson(
          "{\"classes\":[{\"pattern\":\"masked\","
          "\"sites\":[[4294967296,1]],\"coords\":[]}]}"),
      std::invalid_argument);
}

TEST(FaultDictionaryTest, NamesWithQuotesAndBackslashesRoundTrip) {
  auto dictionary = BuildFaultDictionary(Gemm16x16(), TestConfig(),
                                         Dataflow::kWeightStationary);
  dictionary.workload_name = "gemm \"tiled\" \\ v2";
  const std::string json = ToJson(dictionary);
  EXPECT_NE(json.find(R"("workload":"gemm \"tiled\" \\ v2")"),
            std::string::npos)
      << json;
  EXPECT_EQ(FaultDictionaryFromJson(json), dictionary);
}

TEST(FaultDictionaryTest, MaskedClassSerializesEmptyCoords) {
  // conv 3×3×3×3 under WS has a masked class (unused columns).
  const auto dictionary = BuildFaultDictionary(
      Conv16Kernel3x3x3x3(), TestConfig(), Dataflow::kWeightStationary);
  const std::string json = ToJson(dictionary);
  EXPECT_NE(json.find("\"pattern\":\"masked\""), std::string::npos);
  EXPECT_NE(json.find("\"coords\":[]"), std::string::npos);
  EXPECT_EQ(FaultDictionaryFromJson(json), dictionary);
}

TEST(FaultDictionaryTest, SiteCountsPartitionTheArray) {
  const auto dictionary = BuildFaultDictionary(
      Gemm112x112(), TestConfig(), Dataflow::kOutputStationary);
  std::int64_t total = 0;
  for (const auto& equivalence : dictionary.classes) {
    total += static_cast<std::int64_t>(equivalence.members.size());
  }
  EXPECT_EQ(total, 256);
}

}  // namespace
}  // namespace saffire
