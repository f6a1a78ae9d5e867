#include "appfi/appfi.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "fi/runner.h"

namespace saffire {
namespace {

AccelConfig TestConfig() {
  AccelConfig config;  // 16×16 array
  config.max_compute_rows = 1024;
  config.spad_rows = 2048;
  config.acc_rows = 1024;
  config.dram_bytes = 8 << 20;
  return config;
}

AppFiSpec TestSpec(Dataflow dataflow) {
  AppFiSpec spec;
  spec.accel = TestConfig();
  spec.dataflow = dataflow;
  return spec;
}

TEST(PerturbModeTest, RoundTripsEveryName) {
  for (const PerturbMode mode :
       {PerturbMode::kSetBit, PerturbMode::kClearBit, PerturbMode::kFlipBit,
        PerturbMode::kAddDelta}) {
    EXPECT_EQ(ParsePerturbMode(ToString(mode)), mode);
  }
  EXPECT_EQ(ToString(PerturbMode::kSetBit), "set-bit");
  EXPECT_EQ(ToString(PerturbMode::kAddDelta), "add-delta");
}

TEST(PerturbModeTest, RejectsUnknownNamesNamingTheChoices) {
  try {
    ParsePerturbMode("setbit");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("setbit"), std::string::npos) << message;
    EXPECT_NE(message.find("set-bit|clear-bit|flip-bit|add-delta"),
              std::string::npos)
        << message;
  }
}

TEST(PerturbForFaultTest, TracksPolarityAndBit) {
  const FaultSpec sa1 = StuckAtAdder(PeCoord{1, 2}, 9, StuckPolarity::kStuckAt1);
  const PerturbSpec set = PerturbForFault(sa1);
  EXPECT_EQ(set.mode, PerturbMode::kSetBit);
  EXPECT_EQ(set.bit, 9);

  const FaultSpec sa0 = StuckAtAdder(PeCoord{1, 2}, 3, StuckPolarity::kStuckAt0);
  EXPECT_EQ(PerturbForFault(sa0).mode, PerturbMode::kClearBit);

  FaultSpec transient = sa1;
  transient.kind = FaultKind::kTransientFlip;
  EXPECT_EQ(PerturbForFault(transient).mode, PerturbMode::kFlipBit);
}

TEST(AppFiSpecTest, JsonRoundTrip) {
  AppFiSpec spec = TestSpec(Dataflow::kOutputStationary);
  spec.perturb.mode = PerturbMode::kAddDelta;
  spec.perturb.bit = 5;
  spec.perturb.delta = -37;
  const AppFiSpec parsed = ParseAppFiSpec(spec.ToJson());
  EXPECT_EQ(parsed, spec);
}

TEST(AppFiSpecTest, RejectsUnknownKeys) {
  const AppFiSpec spec = TestSpec(Dataflow::kWeightStationary);
  std::string json = spec.ToJson();
  // Top-level typo.
  std::string top = json;
  top.insert(top.size() - 1, ",\"dataflows\":\"ws\"");
  EXPECT_THROW(ParseAppFiSpec(top), std::invalid_argument);
  // Nested perturb typo.
  const std::string needle = "\"mode\"";
  std::string nested = json;
  nested.replace(nested.find(needle), needle.size(), "\"modes\"");
  EXPECT_THROW(ParseAppFiSpec(nested), std::invalid_argument);
}

TEST(AppFiSpecTest, ValidateRejectsBadPerturbBit) {
  AppFiSpec spec = TestSpec(Dataflow::kWeightStationary);
  spec.perturb.bit = 64;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);
  EXPECT_THROW(NetworkFi{spec}, std::invalid_argument);
}

TEST(NetworkFiInjectTest, PerturbsExactlyPredictedCoords) {
  const auto workload = Gemm16x16();
  FiRunner runner(TestConfig());
  const auto golden =
      runner.RunGolden(workload, Dataflow::kOutputStationary).output;
  const FaultSpec fault =
      StuckAtAdder(PeCoord{4, 9}, 8, StuckPolarity::kStuckAt1);
  AppFiSpec spec = TestSpec(Dataflow::kOutputStationary);
  spec.perturb.mode = PerturbMode::kSetBit;
  spec.perturb.bit = 8;
  const NetworkFi injector(spec);
  const auto faulty = injector.Inject(golden, workload, fault);
  std::int64_t differences = 0;
  for (std::int64_t r = 0; r < 16; ++r) {
    for (std::int64_t c = 0; c < 16; ++c) {
      if (faulty(r, c) != golden(r, c)) {
        ++differences;
        EXPECT_EQ(r, 4);
        EXPECT_EQ(c, 9);
        EXPECT_EQ(faulty(r, c), golden(r, c) | 256);
      }
    }
  }
  EXPECT_EQ(differences, 1);
}

TEST(NetworkFiInjectTest, MaskedFaultLeavesTensorUnchanged) {
  auto workload = Conv16Kernel3x3x3x3();  // S·K = 9: columns 9..15 unused
  FiRunner runner(TestConfig());
  const auto golden =
      runner.RunGolden(workload, Dataflow::kWeightStationary).output;
  const FaultSpec fault =
      StuckAtAdder(PeCoord{0, 12}, 8, StuckPolarity::kStuckAt1);
  const NetworkFi injector(TestSpec(Dataflow::kWeightStationary));
  EXPECT_EQ(injector.Inject(golden, workload, fault), golden);
}

TEST(NetworkFiInjectTest, RejectsWrongGoldenShape) {
  const NetworkFi injector(TestSpec(Dataflow::kWeightStationary));
  EXPECT_THROW(
      injector.Inject(Int32Tensor({4, 4}), Gemm16x16(),
                      StuckAtAdder(PeCoord{0, 0}, 8,
                                   StuckPolarity::kStuckAt1)),
      std::invalid_argument);
}

TEST(NetworkFiInjectTest, InjectForFaultMatchesExplicitPerturb) {
  const auto workload = Gemm16x16();
  FiRunner runner(TestConfig());
  const auto golden =
      runner.RunGolden(workload, Dataflow::kWeightStationary).output;
  const FaultSpec fault =
      StuckAtAdder(PeCoord{3, 5}, 8, StuckPolarity::kStuckAt1);
  const NetworkFi injector(TestSpec(Dataflow::kWeightStationary));
  PerturbSpec explicit_perturb;
  explicit_perturb.mode = PerturbMode::kSetBit;
  explicit_perturb.bit = 8;
  EXPECT_EQ(injector.InjectForFault(golden, workload, fault),
            injector.Inject(golden, workload, fault, explicit_perturb));
}

TEST(EmulateExtractionTest, RejectsUnsupportedConfigurations) {
  FiRunner runner(TestConfig());
  const auto golden =
      runner.RunGolden(Gemm16x16(), Dataflow::kWeightStationary).output;
  const NetworkFi injector(TestSpec(Dataflow::kWeightStationary));
  // Non-ones workload.
  auto random_workload = Gemm16x16();
  random_workload.weight_fill = OperandFill::kRandom;
  EXPECT_THROW(
      injector.EmulateExtraction(
          golden, random_workload,
          StuckAtAdder(PeCoord{0, 0}, 8, StuckPolarity::kStuckAt1)),
      std::invalid_argument);
  EXPECT_FALSE(injector.ExtractionExact(
      random_workload,
      StuckAtAdder(PeCoord{0, 0}, 8, StuckPolarity::kStuckAt1)));
  // Stuck-at-0.
  EXPECT_THROW(
      injector.EmulateExtraction(
          golden, Gemm16x16(),
          StuckAtAdder(PeCoord{0, 0}, 8, StuckPolarity::kStuckAt0)),
      std::invalid_argument);
  // Bit colliding with real partial sums (≤ 16).
  EXPECT_THROW(
      injector.EmulateExtraction(
          golden, Gemm16x16(),
          StuckAtAdder(PeCoord{0, 0}, 2, StuckPolarity::kStuckAt1)),
      std::invalid_argument);
  // The supported configuration is recognized as exact.
  EXPECT_TRUE(injector.ExtractionExact(
      Gemm16x16(), StuckAtAdder(PeCoord{0, 0}, 8, StuckPolarity::kStuckAt1)));
}

TEST(SampleAdderFaultTest, StaysInBoundsAndCoversArray) {
  const ArrayConfig config;
  Rng rng(7);
  std::set<std::pair<int, int>> sites;
  for (int i = 0; i < 2000; ++i) {
    const FaultSpec fault = SampleAdderFault(config, rng, 4, 20);
    EXPECT_GE(fault.pe.row, 0);
    EXPECT_LT(fault.pe.row, 16);
    EXPECT_GE(fault.pe.col, 0);
    EXPECT_LT(fault.pe.col, 16);
    EXPECT_GE(fault.bit, 4);
    EXPECT_LE(fault.bit, 20);
    EXPECT_EQ(fault.signal, MacSignal::kAdderOut);
    sites.insert({fault.pe.row, fault.pe.col});
  }
  EXPECT_GT(sites.size(), 200u);
  EXPECT_THROW(SampleAdderFault(config, rng, 8, 40), std::invalid_argument);
}

// The headline cross-validation: for every Table I workload and dataflow,
// the application-level injector reproduces the cycle-accurate faulty
// output bit-for-bit — the paper's proposed LLTFI integration, validated.
struct CrossValidateCase {
  const char* label;
  WorkloadSpec (*workload)();
  Dataflow dataflow;
};

class CrossValidateTest : public ::testing::TestWithParam<CrossValidateCase> {
};

TEST_P(CrossValidateTest, AppLevelInjectionMatchesSimulation) {
  const auto& tc = GetParam();
  const NetworkFi injector(TestSpec(tc.dataflow));
  for (const PeCoord site :
       {PeCoord{0, 0}, PeCoord{4, 9}, PeCoord{15, 15}, PeCoord{7, 3}}) {
    const FaultSpec fault =
        StuckAtAdder(site, 8, StuckPolarity::kStuckAt1);
    const CrossValidation validation =
        injector.CrossValidate(tc.workload(), fault);
    EXPECT_TRUE(validation.coords_match)
        << tc.label << " " << fault.ToString();
    EXPECT_TRUE(validation.values_match)
        << tc.label << " " << fault.ToString();
    EXPECT_GT(validation.simulated_pe_steps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TableI, CrossValidateTest,
    ::testing::Values(
        CrossValidateCase{"gemm16_ws", &Gemm16x16,
                          Dataflow::kWeightStationary},
        CrossValidateCase{"gemm16_os", &Gemm16x16,
                          Dataflow::kOutputStationary},
        CrossValidateCase{"gemm112_ws", &Gemm112x112,
                          Dataflow::kWeightStationary},
        CrossValidateCase{"gemm112_os", &Gemm112x112,
                          Dataflow::kOutputStationary},
        CrossValidateCase{"conv16k3_ws", &Conv16Kernel3x3x3x3,
                          Dataflow::kWeightStationary},
        CrossValidateCase{"conv16k8_ws", &Conv16Kernel3x3x3x8,
                          Dataflow::kWeightStationary}),
    [](const ::testing::TestParamInfo<CrossValidateCase>& param_info) {
      return std::string(param_info.param.label);
    });

}  // namespace
}  // namespace saffire
