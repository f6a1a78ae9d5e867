// Application-level fault injection using predicted hardware patterns —
// the use-case the paper proposes for its characterization: "our
// classification of fault patterns can enable application-level fault
// injectors (such as LLTFI) to perform more precise FI campaigns with the
// systolic array hardware model" (Sec. VI).
//
// Instead of simulating the array cycle-by-cycle, an application-level
// injector takes the clean (golden) tensor of an accelerated operation and
// perturbs exactly the elements the hardware fault would reach — derived
// analytically from the array configuration, dataflow, tiling plan, and
// fault site (patterns/predictor.h). This is orders of magnitude faster
// than RTL-level FI (the paper's scalability argument) and, on the
// pattern-extraction workload, bit-exact.
//
// Entry point: configure an AppFiSpec (accelerator + dataflow + default
// perturbation; JSON round-trip like service/sweep.h's SweepSpec) and drive
// a NetworkFi injector with it.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "fi/fault.h"
#include "fi/workload.h"
#include "patterns/predictor.h"

namespace saffire {

// How predicted coordinates are perturbed.
enum class PerturbMode : std::uint8_t {
  kSetBit = 0,    // value |= 1<<bit   (stuck-at-1 approximation)
  kClearBit = 1,  // value &= ~(1<<bit) (stuck-at-0 approximation)
  kFlipBit = 2,   // value ^= 1<<bit   (transient approximation)
  kAddDelta = 3,  // value += delta    (caller-supplied magnitude model)
};

std::string ToString(PerturbMode mode);

// Parses exactly the ToString names; throws std::invalid_argument naming
// the accepted values ("set-bit|clear-bit|flip-bit|add-delta") otherwise.
PerturbMode ParsePerturbMode(const std::string& name);

struct PerturbSpec {
  PerturbMode mode = PerturbMode::kSetBit;
  int bit = 8;                // kSetBit / kClearBit / kFlipBit
  std::int32_t delta = 0;     // kAddDelta

  bool operator==(const PerturbSpec&) const = default;
};

// The perturbation that approximates a stuck-at fault at the tensor level:
// set the fault's bit for stuck-at-1, clear it for stuck-at-0, flip it for
// a transient. The polarity-aware default NetworkFi::InjectForFault and the
// DNN inference paths use.
PerturbSpec PerturbForFault(const FaultSpec& fault);

// Configuration of one application-level injector: the hardware model the
// patterns are predicted against plus the default perturbation. Follows the
// SweepSpec idiom — Validate() for cheap upfront rejection, JSON round-trip
// with unknown-key rejection for version-controlled configs.
struct AppFiSpec {
  AccelConfig accel;
  Dataflow dataflow = Dataflow::kWeightStationary;
  PerturbSpec perturb;

  // Throws std::invalid_argument on an invalid accelerator or an
  // out-of-range perturbation bit.
  void Validate() const;

  // JSON round-trip. Enums serialize as their ToString names;
  // ParseAppFiSpec accepts exactly what ToJson emits and rejects unknown
  // keys to catch typos early.
  std::string ToJson() const;

  bool operator==(const AppFiSpec&) const = default;
};

AppFiSpec ParseAppFiSpec(const std::string& json);

// Cross-validation of the application-level injector against the
// cycle-accurate simulator for one fault.
struct CrossValidation {
  bool coords_match = false;   // corrupted coordinate sets identical
  bool values_match = false;   // faulty tensors bit-identical
  std::int64_t predicted_count = 0;
  std::int64_t observed_count = 0;
  // Speedup proxy: simulated PE evaluations avoided by the analytical path.
  std::uint64_t simulated_pe_steps = 0;
};

// The application-level injector. Bound to one AppFiSpec (validated at
// construction); stateless afterwards, so one instance serves a whole
// campaign and const methods are safe to call concurrently.
class NetworkFi {
 public:
  explicit NetworkFi(const AppFiSpec& spec);

  const AppFiSpec& spec() const { return spec_; }

  // Returns a copy of `golden` (the GEMM-view output of `workload`) with
  // the predicted reach of `fault` perturbed per the spec's perturbation.
  // A structurally masked fault returns `golden` unchanged.
  Int32Tensor Inject(const Int32Tensor& golden, const WorkloadSpec& workload,
                     const FaultSpec& fault) const;

  // Same, overriding the spec's perturbation for this call.
  Int32Tensor Inject(const Int32Tensor& golden, const WorkloadSpec& workload,
                     const FaultSpec& fault, const PerturbSpec& perturb) const;

  // Inject with PerturbForFault(fault) — the polarity-aware perturbation.
  Int32Tensor InjectForFault(const Int32Tensor& golden,
                             const WorkloadSpec& workload,
                             const FaultSpec& fault) const;

  // Bit-exact emulation of a stuck-at-1 adder fault on the all-ones
  // extraction workload: every reached element gains k_tiles·2^bit (each
  // pass of the operand through the faulty PE contributes one set bit, and
  // every intermediate magnitude stays below 2^bit). Throws
  // std::invalid_argument if the preconditions don't hold (non-ones fills,
  // stuck-at-0, or a bit small enough to collide with true partial-sum
  // values).
  Int32Tensor EmulateExtraction(const Int32Tensor& golden,
                                const WorkloadSpec& workload,
                                const FaultSpec& fault) const;

  // True when EmulateExtraction's preconditions hold for this fault and
  // workload, i.e. the analytical path is provably bit-exact.
  bool ExtractionExact(const WorkloadSpec& workload,
                       const FaultSpec& fault) const;

  // Runs the cycle-accurate simulator on `workload` with `fault` installed
  // and compares it against EmulateExtraction.
  CrossValidation CrossValidate(const WorkloadSpec& workload,
                                const FaultSpec& fault) const;

 private:
  AppFiSpec spec_;
};

// Uniform random hardware faults for statistical campaigns (the DNN
// accuracy-degradation study): site uniform over the array, bit uniform in
// [bit_lo, bit_hi], polarity uniform.
FaultSpec SampleAdderFault(const ArrayConfig& config, Rng& rng,
                           int bit_lo = 0, int bit_hi = 31);

// The naive application-level baseline the paper argues against: existing
// injectors without a systolic-array model perturb "a single output
// element" of the operator — "these tools are restricted to CPU- and
// GPU-based models, and do not consider systolic arrays" (Sec. I).
// Flips one bit of one uniformly chosen element of the operator output,
// with no notion of dataflow, tiling, or fault location. Used as the
// comparison point for how much precision the pattern model adds.
Int32Tensor InjectNaiveBaseline(const Int32Tensor& golden, Rng& rng,
                                int bit);

}  // namespace saffire
