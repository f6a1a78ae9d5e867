#include "systolic/lane_grid.h"

#include <algorithm>

#include "common/bits.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "systolic/simd_ops.h"
#include "systolic/timing.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SAFFIRE_HAVE_AVX2_KERNELS 1
#endif

namespace saffire {
namespace {

// SignExtend without the width checks of common/bits.h (see array.cc):
// `shift` is 64 - width for a validated ArrayConfig width.
inline std::int64_t SxWide(std::int64_t value, int shift) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(value)
                                   << shift) >>
         shift;
}

// a + b modulo 2^64, without signed overflow: at acc_bits 64 a forced adder
// output upstream can sit near ±2^63, and the width truncation follows.
inline std::int64_t WrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

// Branch-free fault application at one MAC stage. `select` is all-ones iff
// this PE position carries the lane's fault AND the fault sits on this
// stage; `xor_strike` is the lane's transient flip mask pre-ANDed with the
// strike-cycle selector. Mirrors FaultInjector::Apply exactly: force/flip
// the bit, re-interpret at the signal's architectural width, count an
// activation iff the value changed.
inline std::int64_t MaskSignal(std::int64_t v, std::int64_t select,
                               std::int64_t and_mask, std::int64_t or_mask,
                               std::int64_t xor_strike, int sx_shift,
                               std::uint64_t& activations) {
  std::int64_t masked = ((v & and_mask) | or_mask) ^ xor_strike;
  masked = SxWide(masked, sx_shift);
  const std::int64_t out = (masked & select) | (v & ~select);
  activations += static_cast<std::uint64_t>(out != v);
  return out;
}

// Lane-steps executed through the AVX2 narrow-lane kernel (scalar-stepped
// lanes are not counted) — the dispatch observability counter.
obs::Counter& SimdLanesSteppedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter(
      "saffire.simd.lanes_stepped",
      "Lane-steps executed through the SIMD (AVX2) batch kernel");
  return counter;
}

#ifdef SAFFIRE_HAVE_AVX2_KERNELS

// One WS step of a width-1 INT8/ACC32 lane, 8 rows per iteration. `s` is
// the lane's padded south plane (s[0] = virtual row −1 = 0 under WS,
// s[1 + r] = row r); `e` the step's west entry column and `w` the lane's
// weight column, both int8-packed. Rows are processed top-down so each
// off-by-one north load still sees the previous step's registered values,
// exactly like the scalar kernel's descending-row update; the (rows % 8)
// head rows at the north edge are finished in scalar. With acc_bits == 32
// the SxWide re-wraps are identities (products of two ≤8-bit operands are
// exact in 32 bits; the partial-sum wrap is int32 wraparound), so
// south_new[r] = south_old[r−1] + e[r]·w[r] in plain epi32 arithmetic.
__attribute__((target("avx2"))) void Avx2StepWs(std::int32_t* s,
                                                const std::int8_t* e,
                                                const std::int8_t* w,
                                                std::int32_t rows) {
  std::int32_t r0 = rows - 8;
  for (; r0 >= 0; r0 -= 8) {
    const __m256i north =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + r0));
    const __m256i acts = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(e + r0)));
    const __m256i weights = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + r0)));
    const __m256i south =
        _mm256_add_epi32(north, _mm256_mullo_epi32(acts, weights));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s + 1 + r0), south);
  }
  for (std::int32_t r = r0 + 7; r >= 0; --r) {
    s[1 + r] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(s[r]) +
        static_cast<std::uint32_t>(std::int32_t{e[r]} * std::int32_t{w[r]}));
  }
}

// One OS step of a width-1 INT8/ACC32 lane: the weight operand is the north
// value re-wrapped at input_bits (a shift pair in registers), products
// accumulate in place, and the south plane registers the re-wrapped weight
// for the next row — the raw pre-hook forward of the scalar kernel.
__attribute__((target("avx2"))) void Avx2StepOs(std::int32_t* s,
                                                std::int32_t* a,
                                                const std::int8_t* e,
                                                std::int32_t rows,
                                                int input_bits) {
  const __m128i shift = _mm_cvtsi32_si128(32 - input_bits);
  std::int32_t r0 = rows - 8;
  for (; r0 >= 0; r0 -= 8) {
    const __m256i north =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + r0));
    const __m256i wop =
        _mm256_sra_epi32(_mm256_sll_epi32(north, shift), shift);
    const __m256i acts = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(e + r0)));
    const __m256i acc = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 1 + r0)),
        _mm256_mullo_epi32(acts, wop));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + 1 + r0), acc);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(s + 1 + r0), wop);
  }
  const int sh = 32 - input_bits;
  for (std::int32_t r = r0 + 7; r >= 0; --r) {
    const std::int32_t wop = static_cast<std::int32_t>(
                                 static_cast<std::uint32_t>(s[r]) << sh) >>
                             sh;
    a[1 + r] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(a[1 + r]) +
        static_cast<std::uint32_t>(std::int32_t{e[r]} * wop));
    s[1 + r] = wop;
  }
}

#endif  // SAFFIRE_HAVE_AVX2_KERNELS

}  // namespace

LaneGrid::LaneGrid(const ArrayConfig& config,
                   std::span<const LaneFaultParams> lanes)
    : config_(config), rows_(config.rows), cols_(config.cols) {
  config_.Validate();
  SAFFIRE_CHECK_MSG(!lanes.empty(), "at least one lane required");
  states_.reserve(lanes.size());
  std::size_t width_sum = 0;
  for (const LaneFaultParams& lane : lanes) {
    SAFFIRE_CHECK_MSG(
        lane.cone.lo >= 0 && lane.cone.lo <= lane.cone.hi &&
            lane.cone.hi < cols_,
        "cone [" << lane.cone.lo << ", " << lane.cone.hi << "] on "
                 << config_.ToString());
    SAFFIRE_CHECK_MSG(lane.pe.row >= 0 && lane.pe.row < rows_ &&
                          lane.cone.contains(lane.pe.col),
                      "PE (" << lane.pe.row << ", " << lane.pe.col
                             << ") outside cone [" << lane.cone.lo << ", "
                             << lane.cone.hi << "]");
    LaneState state;
    state.fault = lane;
    state.lo = lane.cone.lo;
    state.width = lane.cone.width();
    state.sx_shift = 64 - SignalWidth(lane.signal, config_);
    state.sel_wop =
        -static_cast<std::int64_t>(lane.signal == MacSignal::kWeightOperand);
    state.sel_mul =
        -static_cast<std::int64_t>(lane.signal == MacSignal::kMulOut);
    state.sel_add =
        -static_cast<std::int64_t>(lane.signal == MacSignal::kAdderOut);
    state.sel_south =
        -static_cast<std::int64_t>(lane.signal == MacSignal::kSouthForward);
    state.sel_act =
        -static_cast<std::int64_t>(lane.signal == MacSignal::kActForward);
    state.state_base = static_cast<std::size_t>(rows_) * width_sum;
    state.out_base = width_sum;
    width_sum += static_cast<std::size_t>(state.width);
    states_.push_back(state);
  }
  total_width_ = width_sum;
  const std::size_t plane = static_cast<std::size_t>(rows_) * total_width_;
  act_.assign(plane, 0);
  south_.assign(plane, 0);
  acc_.assign(plane, 0);
  weights_.assign(static_cast<std::size_t>(config_.num_pes()), 0);

  // SIMD dispatch, resolved once per grid: width-1 lanes on an INT8/ACC32
  // datapath qualify for the packed AVX2 kernel (operands fit int8, the
  // partial-sum wrap is native int32 wraparound). Everything else — wide
  // cones, unusual widths, non-AVX2 hosts, --simd scalar — stays on the
  // scalar path, which remains the semantic reference.
  if (UseAvx2() && config_.acc_bits == 32 && config_.input_bits <= 8) {
    for (LaneState& state : states_) {
      if (state.width != 1) continue;
      state.narrow = true;
      state.n32_base = narrow_lanes_ * static_cast<std::size_t>(rows_ + 1);
      state.w8_base = narrow_lanes_ * static_cast<std::size_t>(rows_);
      ++narrow_lanes_;
    }
  }
  const std::size_t n32 = narrow_lanes_ * static_cast<std::size_t>(rows_ + 1);
  south32_.assign(n32, 0);
  acc32_.assign(n32, 0);
  wcol8_.assign(narrow_lanes_ * static_cast<std::size_t>(rows_), 0);
  zeros8_.assign(static_cast<std::size_t>(rows_), 0);
}

void LaneGrid::RunTileWs(const Int8Tensor& a, const Int8Tensor& b,
                         std::span<const std::int64_t> rel_cycles) {
  SAFFIRE_SPAN("systolic.tile_ws");
  RunTile<true>(a, b, rel_cycles);
}

void LaneGrid::RunTileOs(const Int8Tensor& a, const Int8Tensor& b,
                         std::span<const std::int64_t> rel_cycles) {
  SAFFIRE_SPAN("systolic.tile_os");
  RunTile<false>(a, b, rel_cycles);
}

template <bool kWs>
void LaneGrid::RunTile(const Int8Tensor& a, const Int8Tensor& b,
                       std::span<const std::int64_t> rel_cycles) {
  SAFFIRE_CHECK_MSG(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
                    "A " << a.ShapeString() << " B " << b.ShapeString());
  const std::int64_t me = a.dim(0);
  const std::int64_t ke = a.dim(1);
  const std::int64_t ne = b.dim(1);
  const auto rows = static_cast<std::int64_t>(rows_);
  const auto cols = static_cast<std::int64_t>(cols_);
  if constexpr (kWs) {
    SAFFIRE_CHECK_MSG(ke <= rows && ne <= cols,
                      "WS tile " << ke << "x" << ne << " exceeds array");
  } else {
    SAFFIRE_CHECK_MSG(me <= rows && ne <= cols,
                      "OS tile " << me << "x" << ne << " exceeds array");
  }
  const std::int64_t steps = kWs
                                 ? WeightStationaryStreamCycles(me, config_)
                                 : OutputStationaryStreamCycles(ke, config_);
  SAFFIRE_CHECK_MSG(static_cast<std::int64_t>(rel_cycles.size()) == steps,
                    rel_cycles.size() << " rel cycles for " << steps
                                      << " steps");

  // Reset semantics: every tile invocation starts from cleared array state.
  std::fill(act_.begin(), act_.end(), 0);
  std::fill(south_.begin(), south_.end(), 0);
  std::fill(acc_.begin(), acc_.end(), 0);
  std::fill(south32_.begin(), south32_.end(), 0);
  std::fill(acc32_.begin(), acc32_.end(), 0);

  // Shared stimulus, computed once for all lanes, with exactly the
  // valid-gating and sign-extension of the schedulers (dataflow.cc):
  // SetWestInput/SetWeight store at input_bits, SetNorthInput at acc_bits.
  const int input_bits = config_.input_bits;
  west_stim_.assign(static_cast<std::size_t>(steps * rows), 0);
  for (std::int64_t t = 0; t < steps; ++t) {
    for (std::int64_t r = 0; r < rows; ++r) {
      std::int64_t value = 0;
      if constexpr (kWs) {
        const std::int64_t i = t - r;
        if (r < ke && i >= 0 && i < me) value = a(i, r);
      } else {
        const std::int64_t kk = t - r;
        if (r < me && kk >= 0 && kk < ke) value = a(r, kk);
      }
      west_stim_[static_cast<std::size_t>(t * rows + r)] =
          SignExtend(value, input_bits);
    }
  }
  if (narrow_lanes_ > 0) {
    // Re-pack the west stimulus 4-per-32-bit-word for the AVX2 kernel:
    // input_bits ≤ 8 guarantees the sign-extended values fit int8 exactly.
    west8_.resize(static_cast<std::size_t>(steps * rows));
    for (std::size_t i = 0; i < west8_.size(); ++i) {
      west8_[i] = static_cast<std::int8_t>(west_stim_[i]);
    }
  }
  if constexpr (kWs) {
    std::fill(weights_.begin(), weights_.end(), 0);
    for (std::int64_t r = 0; r < ke; ++r) {
      for (std::int64_t c = 0; c < ne; ++c) {
        weights_[static_cast<std::size_t>(r * cols + c)] =
            SignExtend(b(r, c), input_bits);
      }
    }
    for (const LaneState& state : states_) {
      if (!state.narrow) continue;
      for (std::int64_t r = 0; r < rows; ++r) {
        wcol8_[state.w8_base + static_cast<std::size_t>(r)] =
            static_cast<std::int8_t>(
                weights_[static_cast<std::size_t>(r * cols + state.lo)]);
      }
    }
  } else {
    north_stim_.assign(static_cast<std::size_t>(steps * cols), 0);
    for (std::int64_t t = 0; t < steps; ++t) {
      for (std::int64_t j = 0; j < cols; ++j) {
        const std::int64_t kk = t - j;
        if (j < ne && kk >= 0 && kk < ke) {
          north_stim_[static_cast<std::size_t>(t * cols + j)] =
              SignExtend(b(kk, j), config_.acc_bits);
        }
      }
    }
  }

  tile_m_ = me;
  out_.assign(total_width_ * static_cast<std::size_t>(me), 0);

  for (std::int64_t t = 0; t < steps; ++t) {
    StepLanes<kWs>(t, rel_cycles[static_cast<std::size_t>(t)]);
    if constexpr (kWs) {
      // Collect the registered bottom-row outputs, as the WS scheduler does
      // after each Step: C[i][c] leaves column c after step i + (rows−1) + c.
      for (const LaneState& state : states_) {
        const std::int64_t hi = std::min<std::int64_t>(
            state.lo + state.width - 1, ne - 1);
        for (std::int64_t c = state.lo; c <= hi; ++c) {
          const std::int64_t i = t - (rows - 1) - c;
          if (i >= 0 && i < me) {
            const std::size_t k = static_cast<std::size_t>(c - state.lo);
            out_[(state.out_base + k) * static_cast<std::size_t>(me) +
                 static_cast<std::size_t>(i)] =
                state.narrow
                    ? south32_[state.n32_base + static_cast<std::size_t>(rows_)]
                    : south_[state.state_base +
                             static_cast<std::size_t>(rows_ - 1) *
                                 static_cast<std::size_t>(state.width) +
                             k];
          }
        }
      }
    }
  }

  if constexpr (!kWs) {
    // Drain the in-place accumulators, as the OS scheduler does.
    for (const LaneState& state : states_) {
      const std::int64_t hi =
          std::min<std::int64_t>(state.lo + state.width - 1, ne - 1);
      for (std::int64_t c = state.lo; c <= hi; ++c) {
        const std::size_t k = static_cast<std::size_t>(c - state.lo);
        for (std::int64_t i = 0; i < me; ++i) {
          out_[(state.out_base + k) * static_cast<std::size_t>(me) +
               static_cast<std::size_t>(i)] =
              state.narrow
                  ? acc32_[state.n32_base + 1 + static_cast<std::size_t>(i)]
                  : acc_[state.state_base +
                         static_cast<std::size_t>(i) *
                             static_cast<std::size_t>(state.width) +
                         k];
        }
      }
    }
  }

  if (narrow_lanes_ > 0) {
    SimdLanesSteppedCounter().Increment(
        static_cast<std::int64_t>(narrow_lanes_) * steps);
  }
}

template <bool kWs>
void LaneGrid::StepLanes(std::int64_t t, std::int64_t rel_cycle) {
  const int sx_in = 64 - config_.input_bits;
  const int sx_prod = 64 - config_.product_bits();
  const int sx_acc = 64 - config_.acc_bits;
  const std::int64_t* const north_row =
      kWs ? nullptr : north_stim_.data() + t * cols_;

  for (LaneState& state : states_) {
    if (state.narrow) {
      StepNarrowLane<kWs>(state, t, rel_cycle);
      continue;
    }
    const LaneFaultParams& f = state.fault;
    const std::int64_t xor_strike =
        f.xor_mask &
        -static_cast<std::int64_t>(rel_cycle == f.strike_cycle);
    const std::int32_t w = state.width;
    std::int64_t* const act = act_.data() + state.state_base;
    std::int64_t* const south = south_.data() + state.state_base;
    std::int64_t* const acc = acc_.data() + state.state_base;
    // Columns west of the cone are a fault-free delay line: the activation
    // entering column `lo` at step t is the west stimulus of step t − lo
    // (zero before the stream reaches the cone — the array was Reset).
    const std::int64_t entry_t = t - state.lo;
    const std::int64_t* const entry =
        entry_t >= 0 ? west_stim_.data() + entry_t * rows_ : nullptr;
    std::uint64_t activations = 0;

    // In-place update: descending rows/columns so every read of a west or
    // north neighbour still sees the previous Step's registered value. Rows
    // other than the fault row can never carry the fault (the cone already
    // restricted the columns), so they take the unmasked fast body; the
    // fault row keeps the branch-free stage-selected masking.
    for (std::int32_t r = rows_ - 1; r >= 0; --r) {
      const bool fault_row = r == f.pe.row;
      const std::size_t row_base =
          static_cast<std::size_t>(r) * static_cast<std::size_t>(w);
      for (std::int32_t k = w - 1; k >= 0; --k) {
        const std::size_t idx = row_base + static_cast<std::size_t>(k);
        const std::int64_t act_in =
            (k == 0) ? (entry != nullptr ? entry[r] : 0) : act[idx - 1];
        const std::int64_t north_in =
            (r == 0) ? (kWs ? 0 : north_row[state.lo + k])
                     : south[idx - static_cast<std::size_t>(w)];

        // Exactly StepReference's per-PE stage order and truncations, with
        // the hook call replaced by branch-free stage-selected masking.
        std::int64_t weight_operand =
            kWs ? weights_[static_cast<std::size_t>(r) *
                               static_cast<std::size_t>(cols_) +
                           static_cast<std::size_t>(state.lo + k)]
                : SxWide(north_in, sx_in);
        if (!fault_row) {
          const std::int64_t mul_out =
              SxWide(act_in * weight_operand, sx_prod);
          const std::int64_t addend = kWs ? north_in : acc[idx];
          const std::int64_t adder_out =
              SxWide(WrapAdd(addend, mul_out), sx_acc);
          if constexpr (kWs) {
            south[idx] = adder_out;
          } else {
            acc[idx] = adder_out;
            south[idx] = SxWide(north_in, sx_in);  // raw, pre-hook
          }
          act[idx] = act_in;
          continue;
        }

        const std::int64_t pos =
            -static_cast<std::int64_t>(state.lo + k == f.pe.col);
        weight_operand =
            MaskSignal(weight_operand, pos & state.sel_wop, f.and_mask,
                       f.or_mask, xor_strike, state.sx_shift, activations);

        std::int64_t mul_out = SxWide(act_in * weight_operand, sx_prod);
        mul_out = MaskSignal(mul_out, pos & state.sel_mul, f.and_mask,
                             f.or_mask, xor_strike, state.sx_shift,
                             activations);

        const std::int64_t addend = kWs ? north_in : acc[idx];
        std::int64_t adder_out = SxWide(WrapAdd(addend, mul_out), sx_acc);
        adder_out = MaskSignal(adder_out, pos & state.sel_add, f.and_mask,
                               f.or_mask, xor_strike, state.sx_shift,
                               activations);

        std::int64_t south_out;
        if constexpr (kWs) {
          south_out = adder_out;
        } else {
          acc[idx] = adder_out;
          south_out = SxWide(north_in, sx_in);  // raw north_in, pre-hook
        }
        south_out = MaskSignal(south_out, pos & state.sel_south, f.and_mask,
                               f.or_mask, xor_strike, state.sx_shift,
                               activations);

        const std::int64_t act_out =
            MaskSignal(act_in, pos & state.sel_act, f.and_mask, f.or_mask,
                       xor_strike, state.sx_shift, activations);

        act[idx] = act_out;
        south[idx] = south_out;
      }
    }
    state.activations += activations;
  }
}

// One step of a width-1 lane on the packed AVX2 datapath. The whole column
// is stepped vector-wide with no fault logic at all, then the single fault
// PE — whose old inputs were latched before the vector stores — is replayed
// through exactly the scalar kernel's stage-selected masking pipeline and
// its outputs overwrite the vector result. Only the fault row can differ
// from the fault-free column (the cone already restricted the columns), so
// the fixup touches one PE per step.
template <bool kWs>
void LaneGrid::StepNarrowLane(LaneState& state, std::int64_t t,
                              std::int64_t rel_cycle) {
#ifndef SAFFIRE_HAVE_AVX2_KERNELS
  (void)state;
  (void)t;
  (void)rel_cycle;
  SAFFIRE_CHECK_MSG(false, "narrow lanes require the AVX2 kernels");
#else
  const int sx_in = 64 - config_.input_bits;
  const int sx_prod = 64 - config_.product_bits();
  const int sx_acc = 64 - config_.acc_bits;
  const LaneFaultParams& f = state.fault;
  const std::int64_t xor_strike =
      f.xor_mask & -static_cast<std::int64_t>(rel_cycle == f.strike_cycle);

  std::int32_t* const s = south32_.data() + state.n32_base;
  std::int32_t* const acc = acc32_.data() + state.n32_base;
  const std::int64_t entry_t = t - state.lo;
  const std::int8_t* const entry8 =
      entry_t >= 0 ? west8_.data() + entry_t * rows_ : zeros8_.data();

  // The pad slot holds the virtual row −1 south value the shifted vector
  // loads read: 0 under WS (the controller never seeds partial sums), this
  // step's north stimulus under OS.
  if constexpr (!kWs) {
    s[0] = static_cast<std::int32_t>(
        north_stim_[static_cast<std::size_t>(t * cols_ + state.lo)]);
  }

  // Latch the fault PE's inputs before the vector stores clobber them.
  const std::int32_t rf = f.pe.row;
  const std::int64_t act_in =
      entry_t >= 0
          ? west_stim_[static_cast<std::size_t>(entry_t * rows_ + rf)]
          : 0;
  const std::int64_t north_in = s[rf];
  const std::int64_t acc_in = kWs ? 0 : acc[1 + rf];

  if constexpr (kWs) {
    Avx2StepWs(s, entry8, wcol8_.data() + state.w8_base, rows_);
  } else {
    Avx2StepOs(s, acc, entry8, rows_, config_.input_bits);
  }

  // Scalar fixup: the fault PE through the exact masking pipeline. The
  // position selector is all-ones by construction (a width-1 cone pins
  // pe.col to the cone column).
  std::uint64_t activations = 0;
  std::int64_t weight_operand =
      kWs ? weights_[static_cast<std::size_t>(rf) *
                         static_cast<std::size_t>(cols_) +
                     static_cast<std::size_t>(state.lo)]
          : SxWide(north_in, sx_in);
  weight_operand =
      MaskSignal(weight_operand, state.sel_wop, f.and_mask, f.or_mask,
                 xor_strike, state.sx_shift, activations);

  std::int64_t mul_out = SxWide(act_in * weight_operand, sx_prod);
  mul_out = MaskSignal(mul_out, state.sel_mul, f.and_mask, f.or_mask,
                       xor_strike, state.sx_shift, activations);

  const std::int64_t addend = kWs ? north_in : acc_in;
  std::int64_t adder_out = SxWide(WrapAdd(addend, mul_out), sx_acc);
  adder_out = MaskSignal(adder_out, state.sel_add, f.and_mask, f.or_mask,
                         xor_strike, state.sx_shift, activations);

  std::int64_t south_out;
  if constexpr (kWs) {
    south_out = adder_out;
  } else {
    acc[1 + rf] = static_cast<std::int32_t>(adder_out);
    south_out = SxWide(north_in, sx_in);  // raw north_in, pre-hook
  }
  south_out = MaskSignal(south_out, state.sel_south, f.and_mask, f.or_mask,
                         xor_strike, state.sx_shift, activations);

  // The forwarded activation is dead in a width-1 cone (no east neighbour
  // tracked), but a kActForward fault must still count its activations.
  (void)MaskSignal(act_in, state.sel_act, f.and_mask, f.or_mask, xor_strike,
                   state.sx_shift, activations);

  s[1 + rf] = static_cast<std::int32_t>(south_out);
  state.activations += activations;
#endif  // SAFFIRE_HAVE_AVX2_KERNELS
}

}  // namespace saffire
