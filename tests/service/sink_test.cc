// Streaming sinks must reproduce the batch outputs exactly: the CSV sink
// matches WriteCampaignCsv byte for byte, and the collector matches
// RunCampaignSerial, alone or behind a tee.
#include "service/sink.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.h"
#include "patterns/report.h"
#include "service/executor.h"

namespace saffire {
namespace {

AccelConfig SmallAccel() {
  AccelConfig config;
  config.array.rows = 8;
  config.array.cols = 8;
  config.max_compute_rows = 64;
  config.spad_rows = 128;
  config.acc_rows = 64;
  config.dram_bytes = 1 << 20;
  return config;
}

CampaignConfig BaseConfig() {
  CampaignConfig config;
  config.accel = SmallAccel();
  config.workload.name = "gemm-20";
  config.workload.m = config.workload.k = config.workload.n = 20;
  return config;
}

void ExpectSameRecords(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.golden_cycles, b.golden_cycles);
  EXPECT_EQ(a.golden_pe_steps, b.golden_pe_steps);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i], b.records[i]) << "record " << i;
  }
}

TEST(CsvRecordSinkTest, MatchesWriteCampaignCsvByteForByte) {
  const CampaignConfig config = BaseConfig();
  const CampaignResult reference = RunCampaignSerial(config);

  std::ostringstream batch;
  WriteCampaignCsv(reference, batch);

  std::ostringstream streamed;
  CsvRecordSink sink(streamed);
  CampaignExecutor::Shared().Run(SingleCampaignPlan(config), sink);

  EXPECT_EQ(streamed.str(), batch.str());
}

TEST(CollectorSinkTest, ReproducesSerialResult) {
  const CampaignConfig config = BaseConfig();
  CollectorSink collector;
  CampaignExecutor::Shared().Run(SingleCampaignPlan(config), collector);
  ASSERT_EQ(collector.results().size(), 1u);
  ExpectSameRecords(RunCampaignSerial(config), collector.results()[0]);
}

TEST(TeeSinkTest, FansOutToAllSinks) {
  const CampaignConfig config = BaseConfig();
  CollectorSink first;
  CollectorSink second;
  TeeSink tee({&first, &second});
  CampaignExecutor::Shared().Run(SingleCampaignPlan(config), tee);
  ASSERT_EQ(first.results().size(), 1u);
  ASSERT_EQ(second.results().size(), 1u);
  const CampaignResult reference = RunCampaignSerial(config);
  ExpectSameRecords(reference, first.results()[0]);
  ExpectSameRecords(reference, second.results()[0]);
}

TEST(TeeSinkTest, RejectsNullSinks) {
  EXPECT_THROW(TeeSink(std::vector<RecordSink*>{nullptr}),
               std::invalid_argument);
}

TEST(JsonlRecordSinkTest, EmitsOneWellFormedObjectPerLine) {
  CampaignConfig config = BaseConfig();
  config.max_sites = 6;
  std::ostringstream out;
  JsonlRecordSink sink(out);
  CampaignExecutor::Shared().Run(SingleCampaignPlan(config), sink);

  std::istringstream lines(out.str());
  std::string line;
  int records = 0;
  int campaigns = 0;
  while (std::getline(lines, line)) {
    const JsonValue value = JsonValue::Parse(line);  // throws if malformed
    const std::string& type = value.At("type").AsString();
    if (type == "record") ++records;
    if (type == "campaign") ++campaigns;
  }
  EXPECT_EQ(campaigns, 1);
  EXPECT_EQ(records, 6);
}

TEST(ProgressSinkTest, ReportsCompletion) {
  CampaignConfig config = BaseConfig();
  config.max_sites = 4;
  std::ostringstream out;
  // Zero interval so even this tiny run renders at least once.
  ProgressSink sink(out, std::chrono::milliseconds(0));
  CampaignExecutor::Shared().Run(SingleCampaignPlan(config), sink);
  EXPECT_NE(out.str().find("4/4 experiments"), std::string::npos);
}

}  // namespace
}  // namespace saffire
