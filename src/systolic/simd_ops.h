// Runtime-dispatched SIMD backend selection for the lane-parallel kernel.
//
// The lane grid's inner loop (systolic/lane_grid.cc) carries an AVX2
// datapath next to the portable scalar one; which one runs is a process-wide
// mode resolved here. The scalar path is always compiled and always
// available; AVX2 is compiled behind function-level target attributes (no
// global -mavx2, so the binary still runs on older hosts) and selected only
// when the CPU reports support. Both paths are bit-identical by contract —
// SimdModeMatrixTest holds the predicted engine's lane-grid residue to the
// differential engine's CSV under every mode.
//
// Selection surface:
//   - `--simd {auto,avx2,scalar}` on campaign_cli,
//   - the SAFFIRE_SIMD environment variable (same values, read once on
//     first query; an explicit SetSimdMode overrides it),
//   - SetSimdMode() for tests and embedders.
#pragma once

#include <cstdint>
#include <string>

namespace saffire {

enum class SimdMode : std::uint8_t {
  // Pick the widest supported backend (AVX2 when the CPU has it).
  kAuto = 0,
  // Require the AVX2 backend; SetSimdMode throws if the CPU lacks it.
  kAvx2 = 1,
  // Force the portable scalar kernel everywhere.
  kScalar = 2,
};

// Returns "auto" / "avx2" / "scalar".
std::string ToString(SimdMode mode);

// Parses the names produced by ToString; throws std::invalid_argument
// naming the accepted values on unknown input.
SimdMode ParseSimdMode(const std::string& name);

// Alias of ParseSimdMode, kept for parity with the other enum parsers.
SimdMode SimdModeFromString(const std::string& name);

// True when the executing CPU supports AVX2 (always false off x86-64).
bool CpuSupportsAvx2();

// Sets the process-wide requested mode. Throws std::invalid_argument when
// kAvx2 is requested on a CPU without AVX2. Thread-safe, but intended to be
// called at startup (the kernels snapshot the resolved mode per grid).
void SetSimdMode(SimdMode mode);

// The requested mode: the last SetSimdMode value, else SAFFIRE_SIMD if set
// (throws std::invalid_argument on an unparseable value, naming the
// variable), else kAuto.
SimdMode RequestedSimdMode();

// Parses `value` and applies it via SetSimdMode; on failure throws
// std::invalid_argument whose message names `source` (e.g. "--simd" or
// "SAFFIRE_SIMD") and the accepted values — the CLI error convention.
void ConfigureSimdFromString(const std::string& value,
                             const std::string& source);

// The dispatch decision the kernels consult: true iff the resolved mode is
// AVX2 (requested avx2, or auto on an AVX2-capable CPU).
bool UseAvx2();

}  // namespace saffire
