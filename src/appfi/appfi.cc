#include "appfi/appfi.h"

#include <sstream>

#include "accel/config_json.h"
#include "common/check.h"
#include "common/json.h"
#include "common/strings.h"
#include "fi/runner.h"
#include "patterns/corruption.h"

namespace saffire {

namespace {

constexpr const char* kPerturbModeNames[] = {"set-bit", "clear-bit",
                                             "flip-bit", "add-delta"};

}  // namespace

std::string ToString(PerturbMode mode) {
  const auto index = static_cast<std::size_t>(mode);
  SAFFIRE_ASSERT_MSG(index < std::size(kPerturbModeNames),
                     "perturb mode " << static_cast<int>(index));
  return kPerturbModeNames[index];
}

PerturbMode ParsePerturbMode(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kPerturbModeNames); ++i) {
    if (name == kPerturbModeNames[i]) return static_cast<PerturbMode>(i);
  }
  SAFFIRE_CHECK_MSG(false, "unknown perturb mode '"
                               << name
                               << "' (expected set-bit|clear-bit|flip-bit|"
                                  "add-delta)");
}

PerturbSpec PerturbForFault(const FaultSpec& fault) {
  PerturbSpec perturb;
  perturb.bit = fault.bit;
  if (fault.kind == FaultKind::kTransientFlip) {
    perturb.mode = PerturbMode::kFlipBit;
  } else {
    perturb.mode = fault.polarity == StuckPolarity::kStuckAt1
                       ? PerturbMode::kSetBit
                       : PerturbMode::kClearBit;
  }
  return perturb;
}

namespace {

std::int32_t Perturb(std::int32_t value, const PerturbSpec& spec) {
  switch (spec.mode) {
    case PerturbMode::kSetBit:
      SAFFIRE_CHECK_MSG(spec.bit >= 0 && spec.bit < 32, "bit=" << spec.bit);
      return static_cast<std::int32_t>(static_cast<std::uint32_t>(value) |
                                       (std::uint32_t{1} << spec.bit));
    case PerturbMode::kClearBit:
      SAFFIRE_CHECK_MSG(spec.bit >= 0 && spec.bit < 32, "bit=" << spec.bit);
      return static_cast<std::int32_t>(static_cast<std::uint32_t>(value) &
                                       ~(std::uint32_t{1} << spec.bit));
    case PerturbMode::kFlipBit:
      SAFFIRE_CHECK_MSG(spec.bit >= 0 && spec.bit < 32, "bit=" << spec.bit);
      return static_cast<std::int32_t>(static_cast<std::uint32_t>(value) ^
                                       (std::uint32_t{1} << spec.bit));
    case PerturbMode::kAddDelta:
      return value + spec.delta;
  }
  SAFFIRE_CHECK_MSG(false, "unknown perturb mode");
}

}  // namespace

void AppFiSpec::Validate() const {
  accel.Validate();
  if (perturb.mode != PerturbMode::kAddDelta) {
    SAFFIRE_CHECK_MSG(perturb.bit >= 0 && perturb.bit < 32,
                      "perturb bit=" << perturb.bit);
  }
}

std::string AppFiSpec::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("accel");
  WriteAccelJson(w, accel);
  w.Key("dataflow").String(ToString(dataflow));
  w.Key("perturb").BeginObject()
      .Key("mode").String(ToString(perturb.mode))
      .Key("bit").Int(perturb.bit)
      .Key("delta").Int(perturb.delta)
      .EndObject();
  w.EndObject();
  return os.str();
}

AppFiSpec ParseAppFiSpec(const std::string& json) {
  const JsonValue root = JsonValue::Parse(json);
  // Reject unknown keys so a typo ("perturb_mode" for "perturb") fails
  // loudly instead of silently injecting with the default.
  for (const auto& [key, value] : root.AsObject()) {
    (void)value;
    SAFFIRE_CHECK_MSG(key == "accel" || key == "dataflow" || key == "perturb",
                      "unknown appfi spec key '" << key << "'");
  }
  AppFiSpec spec;
  spec.accel = ParseAccelJson(root.At("accel"));
  spec.dataflow = DataflowFromString(root.At("dataflow").AsString());
  const JsonValue& perturb = root.At("perturb");
  for (const auto& [key, value] : perturb.AsObject()) {
    (void)value;
    SAFFIRE_CHECK_MSG(key == "mode" || key == "bit" || key == "delta",
                      "unknown appfi perturb key '" << key << "'");
  }
  spec.perturb.mode = ParsePerturbMode(perturb.At("mode").AsString());
  spec.perturb.bit = NarrowInt<int>(perturb.At("bit").AsInt());
  spec.perturb.delta = NarrowInt<std::int32_t>(perturb.At("delta").AsInt());
  spec.Validate();
  return spec;
}

NetworkFi::NetworkFi(const AppFiSpec& spec) : spec_(spec) {
  spec_.Validate();
}

Int32Tensor NetworkFi::Inject(const Int32Tensor& golden,
                              const WorkloadSpec& workload,
                              const FaultSpec& fault) const {
  return Inject(golden, workload, fault, spec_.perturb);
}

Int32Tensor NetworkFi::Inject(const Int32Tensor& golden,
                              const WorkloadSpec& workload,
                              const FaultSpec& fault,
                              const PerturbSpec& perturb) const {
  SAFFIRE_CHECK_MSG(golden.rank() == 2 && golden.dim(0) == workload.GemmM() &&
                        golden.dim(1) == workload.GemmN(),
                    "golden " << golden.ShapeString() << " vs workload "
                              << workload.ToString());
  const PredictedPattern prediction =
      PredictPattern(workload, spec_.accel, spec_.dataflow, fault);
  Int32Tensor faulty = golden;
  for (const MatrixCoord& coord : prediction.coords) {
    faulty(coord.row, coord.col) =
        Perturb(faulty(coord.row, coord.col), perturb);
  }
  return faulty;
}

Int32Tensor NetworkFi::InjectForFault(const Int32Tensor& golden,
                                      const WorkloadSpec& workload,
                                      const FaultSpec& fault) const {
  return Inject(golden, workload, fault, PerturbForFault(fault));
}

bool NetworkFi::ExtractionExact(const WorkloadSpec& workload,
                                const FaultSpec& fault) const {
  if (workload.input_fill != OperandFill::kOnes ||
      workload.weight_fill != OperandFill::kOnes) {
    return false;
  }
  if (fault.kind != FaultKind::kStuckAt ||
      fault.polarity != StuckPolarity::kStuckAt1 ||
      fault.signal != MacSignal::kAdderOut) {
    return false;
  }
  const TileGrid grid =
      Driver::PlanTiles(workload.GemmM(), workload.GemmN(), workload.GemmK(),
                        spec_.accel, spec_.dataflow);
  return (std::int64_t{1} << fault.bit) > grid.tile_k();
}

Int32Tensor NetworkFi::EmulateExtraction(const Int32Tensor& golden,
                                         const WorkloadSpec& workload,
                                         const FaultSpec& fault) const {
  SAFFIRE_CHECK_MSG(workload.input_fill == OperandFill::kOnes &&
                        workload.weight_fill == OperandFill::kOnes,
                    "exact emulation requires the all-ones extraction "
                    "workload, got "
                        << workload.ToString());
  SAFFIRE_CHECK_MSG(fault.kind == FaultKind::kStuckAt &&
                        fault.polarity == StuckPolarity::kStuckAt1 &&
                        fault.signal == MacSignal::kAdderOut,
                    "exact emulation covers stuck-at-1 adder faults, got "
                        << fault.ToString());
  // All intermediate partial sums of the ones-workload are bounded by the
  // per-tile reduction depth; the stuck bit must sit strictly above them so
  // every pass contributes exactly 2^bit.
  const TileGrid grid =
      Driver::PlanTiles(workload.GemmM(), workload.GemmN(), workload.GemmK(),
                        spec_.accel, spec_.dataflow);
  const std::int64_t max_partial = grid.tile_k();
  SAFFIRE_CHECK_MSG((std::int64_t{1} << fault.bit) > max_partial,
                    "bit " << fault.bit << " collides with partial sums up to "
                           << max_partial);

  PerturbSpec perturb;
  perturb.mode = PerturbMode::kAddDelta;
  perturb.delta = static_cast<std::int32_t>(
      grid.k_tiles() * (std::int64_t{1} << fault.bit));
  return Inject(golden, workload, fault, perturb);
}

CrossValidation NetworkFi::CrossValidate(const WorkloadSpec& workload,
                                         const FaultSpec& fault) const {
  FiRunner runner(spec_.accel);
  const RunResult golden = runner.RunGolden(workload, spec_.dataflow);
  const RunResult simulated =
      runner.RunFaulty(workload, spec_.dataflow, {&fault, 1});
  const CorruptionMap observed =
      ExtractCorruption(golden.output, simulated.output);

  const Int32Tensor emulated =
      EmulateExtraction(golden.output, workload, fault);
  const CorruptionMap predicted = ExtractCorruption(golden.output, emulated);

  CrossValidation validation;
  validation.coords_match = observed.corrupted == predicted.corrupted;
  validation.values_match = emulated == simulated.output;
  validation.predicted_count = predicted.count();
  validation.observed_count = observed.count();
  validation.simulated_pe_steps = simulated.pe_steps;
  return validation;
}

FaultSpec SampleAdderFault(const ArrayConfig& config, Rng& rng, int bit_lo,
                           int bit_hi) {
  config.Validate();
  SAFFIRE_CHECK_MSG(bit_lo >= 0 && bit_lo <= bit_hi &&
                        bit_hi < config.acc_bits,
                    "bit range [" << bit_lo << ", " << bit_hi << "]");
  FaultSpec fault;
  fault.kind = FaultKind::kStuckAt;
  fault.pe.row = static_cast<std::int32_t>(rng.UniformInt(0, config.rows - 1));
  fault.pe.col = static_cast<std::int32_t>(rng.UniformInt(0, config.cols - 1));
  fault.signal = MacSignal::kAdderOut;
  fault.bit = static_cast<int>(rng.UniformInt(bit_lo, bit_hi));
  fault.polarity = rng.Bernoulli(0.5) ? StuckPolarity::kStuckAt1
                                      : StuckPolarity::kStuckAt0;
  return fault;
}

Int32Tensor InjectNaiveBaseline(const Int32Tensor& golden, Rng& rng,
                                int bit) {
  SAFFIRE_CHECK_MSG(golden.rank() == 2, "golden " << golden.ShapeString());
  SAFFIRE_CHECK_MSG(bit >= 0 && bit < 32, "bit=" << bit);
  Int32Tensor faulty = golden;
  const std::int64_t index = rng.UniformInt(0, golden.size() - 1);
  faulty.flat(index) = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(faulty.flat(index)) ^
      (std::uint32_t{1} << bit));
  return faulty;
}

}  // namespace saffire
