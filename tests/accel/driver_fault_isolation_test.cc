// A fault hook leaves no state behind in the accelerator. A fault-free
// Driver::Gemm right after a hooked one on the same Accelerator matches the
// host reference GEMM, and a hooked run produces the same output on a used
// accelerator as on a fresh one. The network cycle rung relies on both when
// it runs layers outside the fault scope on the host reference GEMM.
#include <gtest/gtest.h>

#include <tuple>

#include "accel/driver.h"
#include "common/rng.h"
#include "fi/injector.h"
#include "tensor/gemm.h"

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

Int8Tensor RandomInt8(Rng& rng, std::int64_t rows, std::int64_t cols) {
  Int8Tensor t({rows, cols});
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.flat(i) = static_cast<std::int8_t>(rng.UniformInt(-30, 30));
  }
  return t;
}

class DriverFaultIsolationTest
    : public ::testing::TestWithParam<std::tuple<Dataflow, MacSignal>> {};

TEST_P(DriverFaultIsolationTest, FaultFreeRunAfterHookedRunMatchesReference) {
  const auto [dataflow, signal] = GetParam();
  const AccelConfig config = SmallAccel();
  Rng rng(17);
  // Ragged tiles on every axis of the 8×8 array, and a second GEMM of a
  // different shape, like the next layer of a network.
  const Int8Tensor a = RandomInt8(rng, 20, 13);
  const Int8Tensor b = RandomInt8(rng, 13, 11);
  const Int8Tensor next_a = RandomInt8(rng, 11, 19);
  const Int8Tensor next_b = RandomInt8(rng, 19, 6);
  ExecOptions exec;
  exec.dataflow = dataflow;

  for (const StuckPolarity polarity :
       {StuckPolarity::kStuckAt0, StuckPolarity::kStuckAt1}) {
    FaultSpec fault;
    fault.pe = PeCoord{3, 5};
    fault.signal = signal;
    fault.bit = 6;
    fault.polarity = polarity;
    FaultInjector hook({fault}, config.array);

    Accelerator accel(config);
    Driver driver(accel);
    accel.array().InstallFaultHook(&hook);
    const Int32Tensor faulty = driver.Gemm(a, b, exec);
    accel.array().ClearFaultHook();
    ASSERT_GT(hook.activations(), 0u) << fault.ToString();

    EXPECT_EQ(driver.Gemm(next_a, next_b, exec), GemmRef(next_a, next_b))
        << fault.ToString();
    EXPECT_EQ(driver.Gemm(a, b, exec), GemmRef(a, b)) << fault.ToString();

    // The other direction: what ran before does not reach a hooked run.
    accel.array().InstallFaultHook(&hook);
    EXPECT_EQ(driver.Gemm(a, b, exec), faulty) << fault.ToString();
    accel.array().ClearFaultHook();
    Accelerator fresh(config);
    Driver fresh_driver(fresh);
    fresh.array().InstallFaultHook(&hook);
    EXPECT_EQ(fresh_driver.Gemm(a, b, exec), faulty) << fault.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    DataflowsAndSignals, DriverFaultIsolationTest,
    ::testing::Combine(::testing::Values(Dataflow::kWeightStationary,
                                         Dataflow::kOutputStationary,
                                         Dataflow::kInputStationary),
                       ::testing::Values(MacSignal::kMulOut,
                                         MacSignal::kAdderOut,
                                         MacSignal::kWeightOperand,
                                         MacSignal::kActForward,
                                         MacSignal::kSouthForward)));

}  // namespace
}  // namespace saffire
