// Checkpoints written by earlier releases must keep resuming. Each
// fixture below is the --jsonl stream an earlier release's CLI wrote with
// SAFFIRE_CHAOS="experiment_throw_every=3,experiment_throw_attempts=99"
// (experiments 0 and 3 quarantined), so it holds every line type the
// writers emit: header, campaign, record, failed and end.
//   campaign_cli --workload gemm16 --rows 4 --cols 4 --sites 4
//       --max-retries 0 --threads 1 --jsonl op.jsonl
//   dnn_cli --network extraction --rows 4 --cols 4 --extraction-k 4
//       --extraction-n 4 --batch 2 --sites 4 --max-retries 0 --jsonl net.jsonl
// The specs are those runs' --print-spec output. Each checkpoint must load
// without dropping a line, pass the resume identity guard, and resume to
// the CSV of a fresh run.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "service/checkpoint.h"
#include "service/network_run.h"
#include "service/run.h"
#include "service/sink.h"

namespace saffire {
namespace {

constexpr const char* kOperatorSpec =
    R"jsonl({"accel":{"rows":4,"cols":4,"input_bits":8,"acc_bits":32,"spad_rows":8192,"acc_rows":4096,"max_compute_rows":1024,"double_buffered_weights":true,"dram_bytes":67108864},"workloads":[{"name":"gemm-16x16","op":"GEMM","m":16,"k":16,"n":16,"input_fill":"ones","weight_fill":"ones","data_seed":2023}],"dataflows":["WS"],"signals":["adder_out"],"polarities":["SA1"],"bits":[8],"kind":"stuck-at","max_sites":4,"seed":1,"engine":"differential","shards":1,"symmetry":false})jsonl";

constexpr const char* kOperatorCheckpoint =
    R"jsonl({"type":"sweep","campaigns":1,"experiments":4,"crc":"1a793b55"})jsonl"
    "\n"
    R"jsonl({"type":"campaign","campaign":0,"key":"4,4,8,32;8192,4096,1024,1,67108864;1;0,16,16,16;1,1,1,1,1,1,1,1,0;1,0,0,2023;0,1,8,1;4,1","experiments":4,"golden_cycles":740,"golden_pe_steps":5632,"golden_cache_hit":false,"config":"gemm-16x16: GEMM 16x16x16, input=ones, weights=ones | WS | SA1 bit8 on adder_out | array 4x4 INT8/ACC32 | sampled 4 sites","crc":"fcbab8ad"})jsonl"
    "\n"
    R"jsonl({"type":"failed","campaign":0,"experiment":0,"engine":"full","attempts":2,"timed_out":false,"error":"chaos: injected experiment failure (campaign 0, experiment 0, attempt 0)","crc":"4fff4529"})jsonl"
    "\n"
    R"jsonl({"type":"record","campaign":0,"experiment":1,"pe_row":1,"pe_col":2,"signal":1,"bit":8,"polarity":1,"kind":0,"at_cycle":-1,"observed":6,"observed_class":"single-column-multi-tile","predicted":6,"prediction_exact":true,"observed_within_predicted":true,"corrupted_count":64,"max_abs_delta":1024,"fault_activations":352,"cycles":740,"pe_steps":5632,"pe_steps_skipped":0,"crc":"27e37cb1"})jsonl"
    "\n"
    R"jsonl({"type":"record","campaign":0,"experiment":2,"pe_row":1,"pe_col":3,"signal":1,"bit":8,"polarity":1,"kind":0,"at_cycle":-1,"observed":6,"observed_class":"single-column-multi-tile","predicted":6,"prediction_exact":true,"observed_within_predicted":true,"corrupted_count":64,"max_abs_delta":1024,"fault_activations":352,"cycles":740,"pe_steps":5632,"pe_steps_skipped":0,"crc":"6ebb14c3"})jsonl"
    "\n"
    R"jsonl({"type":"failed","campaign":0,"experiment":3,"engine":"full","attempts":1,"timed_out":false,"error":"chaos: injected experiment failure (campaign 0, experiment 3, attempt 0)","crc":"94fbaef5"})jsonl"
    "\n"
    R"jsonl({"type":"sweep_end","crc":"5bf45f05"})jsonl"
    "\n";

constexpr const char* kNetworkSpec =
    R"jsonl({"accel":{"rows":4,"cols":4,"input_bits":8,"acc_bits":32,"spad_rows":8192,"acc_rows":4096,"max_compute_rows":1024,"double_buffered_weights":true,"dram_bytes":67108864},"network":{"kind":"extraction","batch":2,"seed":7,"noise":0.020000,"extraction_k":4,"extraction_n":4,"hidden":32,"train_samples":600,"train_epochs":80,"train_target":0.970000,"conv_channels":4},"dataflows":["WS"],"signals":["adder_out"],"polarities":["SA1"],"bits":[8],"layers":[-1],"mitigations":["none"],"max_sites":4,"seed":1,"rung":"appfi","abft":false,"perturb_mode":"auto","perturb_bit":8,"perturb_delta":0})jsonl";

constexpr const char* kNetworkCheckpoint =
    R"jsonl({"type":"network-sweep","hash":"a86c2de0f33a1bf2","campaigns":1,"experiments":4,"spec":"{\"accel\":{\"rows\":4,\"cols\":4,\"input_bits\":8,\"acc_bits\":32,\"spad_rows\":8192,\"acc_rows\":4096,\"max_compute_rows\":1024,\"double_buffered_weights\":true,\"dram_bytes\":67108864},\"network\":{\"kind\":\"extraction\",\"batch\":2,\"seed\":7,\"noise\":0.020000,\"extraction_k\":4,\"extraction_n\":4,\"hidden\":32,\"train_samples\":600,\"train_epochs\":80,\"train_target\":0.970000,\"conv_channels\":4},\"dataflows\":[\"WS\"],\"signals\":[\"adder_out\"],\"polarities\":[\"SA1\"],\"bits\":[8],\"layers\":[-1],\"mitigations\":[\"none\"],\"max_sites\":4,\"seed\":1,\"rung\":\"appfi\",\"abft\":false,\"perturb_mode\":\"auto\",\"perturb_bit\":8,\"perturb_delta\":0}","crc":"aa3eb5db"})jsonl"
    "\n"
    R"jsonl({"type":"network-campaign","campaign":0,"key":"4,4,8,32;8192,4096,1024,1,67108864;0,2,7,0.02;4,4;32,600,80,0.97;4;1,1,1,8,-1,0;4,1;0;auto","experiments":4,"crc":"fb42fa65"})jsonl"
    "\n"
    R"jsonl({"type":"network-failed","campaign":0,"experiment":0,"rung":"cycle-accurate","attempts":2,"timed_out":false,"error":"chaos: injected experiment failure (campaign 0, experiment 0, attempt 0)","crc":"fbe236ec"})jsonl"
    "\n"
    R"jsonl({"type":"network-record","campaign":0,"experiment":1,"pe_row":1,"pe_col":2,"signal":1,"bit":8,"polarity":1,"rung":"cycle-accurate","pattern":5,"pattern_class":"single-column","corrupted":2,"sdc":true,"top1_flips":2,"batch":2,"correct_golden":-1,"correct_faulty":-1,"abft_on":false,"abft_diagnosis":0,"abft_corrections":0,"abft_corrected":false,"mit_sdc":false,"mit_corrupted":0,"mit_top1_flips":0,"mit_correct_faulty":-1,"crc":"fca39647"})jsonl"
    "\n"
    R"jsonl({"type":"network-record","campaign":0,"experiment":2,"pe_row":1,"pe_col":3,"signal":1,"bit":8,"polarity":1,"rung":"cycle-accurate","pattern":5,"pattern_class":"single-column","corrupted":2,"sdc":true,"top1_flips":2,"batch":2,"correct_golden":-1,"correct_faulty":-1,"abft_on":false,"abft_diagnosis":0,"abft_corrections":0,"abft_corrected":false,"mit_sdc":false,"mit_corrupted":0,"mit_top1_flips":0,"mit_correct_faulty":-1,"crc":"b8887e2a"})jsonl"
    "\n"
    R"jsonl({"type":"network-failed","campaign":0,"experiment":3,"rung":"cycle-accurate","attempts":1,"timed_out":false,"error":"chaos: injected experiment failure (campaign 0, experiment 3, attempt 0)","crc":"89eb699e"})jsonl"
    "\n"
    R"jsonl({"type":"network-sweep-end","records":2,"quarantined":2,"retries":1,"timeouts":0,"fallbacks":1,"selfchecks":0,"selfcheck_mismatches":0,"stopped":false,"crc":"ebfecbf0"})jsonl"
    "\n";

TEST(CheckpointCompatTest, OperatorCheckpointResumesToTheFreshCsv) {
  const CampaignPlan plan = BuildCampaignPlan(ParseSweepSpec(kOperatorSpec));
  std::istringstream in(kOperatorCheckpoint);
  CheckpointLoadStats stats;
  const SweepCheckpoint checkpoint = LoadSweepCheckpoint(in, &stats);
  EXPECT_EQ(stats.lines, 7);
  EXPECT_EQ(stats.records, 2);
  EXPECT_EQ(stats.dropped, 0);
  ValidateCheckpoint(checkpoint, plan);

  std::ostringstream fresh;
  CsvRecordSink fresh_sink(fresh);
  RunSweep(plan, RunOptions{}, fresh_sink);
  RunOptions options;
  options.checkpoint = &checkpoint;
  std::ostringstream resumed;
  CsvRecordSink resumed_sink(resumed);
  const SweepOutcome outcome = RunSweep(plan, options, resumed_sink);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.records, 4);
  EXPECT_EQ(resumed.str(), fresh.str());
}

TEST(CheckpointCompatTest, NetworkCheckpointResumesToTheFreshCsv) {
  const NetworkSweepSpec spec = ParseNetworkSweepSpec(kNetworkSpec);
  std::istringstream in(kNetworkCheckpoint);
  const NetworkCheckpoint checkpoint = LoadNetworkCheckpoint(in);
  EXPECT_EQ(checkpoint.lines_dropped, 0);
  EXPECT_EQ(checkpoint.records.size(), 2u);
  ValidateNetworkCheckpoint(checkpoint, spec,
                            BuildNetworkCampaignPlan(spec));

  std::ostringstream fresh;
  NetworkCsvSink fresh_sink(fresh);
  RunNetworkSweep(spec, fresh_sink);
  NetworkRunOptions options;
  options.resume = &checkpoint;
  std::ostringstream resumed;
  NetworkCsvSink resumed_sink(resumed);
  const SweepOutcome outcome = RunNetworkSweep(spec, options, resumed_sink);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.records, 4);
  EXPECT_EQ(resumed.str(), fresh.str());
}

}  // namespace
}  // namespace saffire
