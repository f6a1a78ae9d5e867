#include "systolic/array.h"

#include <algorithm>

#include "common/bits.h"

namespace saffire {
namespace {

// SignExtend without the width checks of common/bits.h — the widths here
// come from a validated ArrayConfig, and the fast kernels run this per PE
// per cycle. `shift` is 64 - width (wide) or 32 - width (narrow).
inline std::int64_t SxWide(std::int64_t value, int shift) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(value)
                                   << shift) >>
         shift;
}

inline std::int32_t SxNarrow(std::int32_t value, int shift) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(value)
                                   << shift) >>
         shift;
}

// Wrapping 32-bit a + b·c — the acc_bits == 32 truncation for free.
inline std::int32_t MacWrap32(std::int32_t addend, std::int32_t a,
                              std::int32_t b) {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(addend) +
      static_cast<std::uint32_t>(a) * static_cast<std::uint32_t>(b));
}

}  // namespace

SystolicArray::SystolicArray(const ArrayConfig& config)
    : config_(config),
      rows_(config.rows),
      cols_(config.cols),
      narrow_capable_(config.acc_bits == 32) {
  config_.Validate();
  const auto n = static_cast<std::size_t>(config_.num_pes());
  weights_.assign(n, 0);
  accumulators_.assign(n, 0);
  act_wire_.assign(n, 0);
  south_wire_.assign(n, 0);
  act_wire_next_.assign(n, 0);
  south_wire_next_.assign(n, 0);
  weights32_.assign(n, 0);
  accumulators32_.assign(n, 0);
  act32_.assign(n, 0);
  south32_.assign(n, 0);
  act32_next_.assign(n, 0);
  south32_next_.assign(n, 0);
  west_inputs_.assign(static_cast<std::size_t>(rows_), 0);
  north_inputs_.assign(static_cast<std::size_t>(cols_), 0);
  north_inputs32_.assign(static_cast<std::size_t>(cols_), 0);
  hooked_.assign(n, 0);
  col_hooked_.assign(static_cast<std::size_t>(cols_), 0);
  west_entry_.assign(static_cast<std::size_t>(rows_), 0);
}

void SystolicArray::InstallFaultHook(FaultHook* hook) {
  hook_ = hook;
  if (hook_ == nullptr) {
    std::fill(hooked_.begin(), hooked_.end(), std::uint8_t{0});
    std::fill(col_hooked_.begin(), col_hooked_.end(), std::uint8_t{0});
    return;
  }
  for (std::int32_t c = 0; c < cols_; ++c) {
    std::uint8_t any = 0;
    for (std::int32_t r = 0; r < rows_; ++r) {
      const std::uint8_t applies =
          hook_->AppliesTo(PeCoord{r, c}) ? std::uint8_t{1} : std::uint8_t{0};
      hooked_[Index(r, c)] = applies;
      any = static_cast<std::uint8_t>(any | applies);
    }
    col_hooked_[static_cast<std::size_t>(c)] = any;
  }
}

void SystolicArray::EnsureWide() {
  if (!narrow_) return;
  const std::size_t n = weights_.size();
  for (std::size_t i = 0; i < n; ++i) weights_[i] = weights32_[i];
  for (std::size_t i = 0; i < n; ++i) accumulators_[i] = accumulators32_[i];
  for (std::size_t i = 0; i < n; ++i) act_wire_[i] = act32_[i];
  for (std::size_t i = 0; i < n; ++i) south_wire_[i] = south32_[i];
  narrow_ = false;
}

void SystolicArray::EnsureNarrow() {
  if (narrow_) return;
  SAFFIRE_ASSERT(narrow_capable_);
  // Lossless by the signal-width invariant: every stored value is already
  // sign-extended to a width of at most acc_bits == 32.
  const std::size_t n = weights_.size();
  for (std::size_t i = 0; i < n; ++i) {
    weights32_[i] = static_cast<std::int32_t>(weights_[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    accumulators32_[i] = static_cast<std::int32_t>(accumulators_[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    act32_[i] = static_cast<std::int32_t>(act_wire_[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    south32_[i] = static_cast<std::int32_t>(south_wire_[i]);
  }
  narrow_ = true;
}

std::vector<std::int64_t> SystolicArray::SnapshotAccumulators() const {
  bool any = false;
  if (narrow_) {
    for (const std::int32_t v : accumulators32_) any = any || v != 0;
  } else {
    for (const std::int64_t v : accumulators_) any = any || v != 0;
  }
  if (!any) return {};  // all-zero checkpoint, stored compactly
  std::vector<std::int64_t> grid(weights_.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = narrow_ ? accumulators32_[i] : accumulators_[i];
  }
  return grid;
}

void SystolicArray::Reset() {
  if (recording_ != nullptr) {
    // Reset delimits tile invocations: capture the end-of-tile accumulator
    // state the OS drain path reads back (golden_trace.h).
    recording_->AppendAccumulatorCheckpoint(SnapshotAccumulators());
  }
  if (replay_ != nullptr) ++replay_reset_;
  std::fill(weights_.begin(), weights_.end(), 0);
  std::fill(accumulators_.begin(), accumulators_.end(), 0);
  std::fill(act_wire_.begin(), act_wire_.end(), 0);
  std::fill(south_wire_.begin(), south_wire_.end(), 0);
  std::fill(act_wire_next_.begin(), act_wire_next_.end(), 0);
  std::fill(south_wire_next_.begin(), south_wire_next_.end(), 0);
  std::fill(weights32_.begin(), weights32_.end(), 0);
  std::fill(accumulators32_.begin(), accumulators32_.end(), 0);
  std::fill(act32_.begin(), act32_.end(), 0);
  std::fill(south32_.begin(), south32_.end(), 0);
  std::fill(act32_next_.begin(), act32_next_.end(), 0);
  std::fill(south32_next_.begin(), south32_next_.end(), 0);
  std::fill(west_hist_.begin(), west_hist_.end(), 0);
  steps_since_reset_ = 0;
  ClearEdgeInputs();
}

void SystolicArray::BeginGoldenRecording(GoldenTrace* trace) {
  SAFFIRE_CHECK_MSG(trace != nullptr, "trace required");
  SAFFIRE_CHECK_MSG(recording_ == nullptr, "recording already active");
  SAFFIRE_CHECK_MSG(replay_ == nullptr,
                    "cannot record during differential execution");
  trace->Begin(rows_, cols_, cycle_);
  recording_ = trace;
}

void SystolicArray::EndGoldenRecording() {
  SAFFIRE_CHECK_MSG(recording_ != nullptr, "no recording active");
  recording_->AppendAccumulatorCheckpoint(SnapshotAccumulators());
  recording_ = nullptr;
}

void SystolicArray::BeginDifferential(ColumnCone cone,
                                      const GoldenTrace* trace) {
  SAFFIRE_CHECK_MSG(trace != nullptr, "golden trace required");
  SAFFIRE_CHECK_MSG(replay_ == nullptr, "differential mode already active");
  SAFFIRE_CHECK_MSG(recording_ == nullptr,
                    "cannot run differentially while recording");
  SAFFIRE_CHECK_MSG(tracer_ == nullptr,
                    "tracing requires the full array; detach the tracer");
  SAFFIRE_CHECK_MSG(cone.lo >= 0 && cone.lo <= cone.hi && cone.hi < cols_,
                    "cone [" << cone.lo << ", " << cone.hi << "] on "
                             << config_.ToString());
  SAFFIRE_CHECK_MSG(trace->rows() == rows_ && trace->cols() == cols_,
                    "trace recorded on " << trace->rows() << "x"
                                         << trace->cols());
  replay_ = trace;
  cone_ = cone;
  entry_col_ = cone.lo;
  replay_step_ = 0;
  replay_reset_ = 0;
  steps_since_reset_ = 0;
  west_hist_.assign(static_cast<std::size_t>(cone.lo) *
                        static_cast<std::size_t>(rows_),
                    0);
}

void SystolicArray::EndDifferential() {
  SAFFIRE_CHECK_MSG(replay_ != nullptr, "differential mode not active");
  replay_ = nullptr;
  entry_col_ = 0;
  west_hist_.clear();
}

void SystolicArray::CheckCoord(PeCoord pe) const {
  SAFFIRE_CHECK_MSG(pe.row >= 0 && pe.row < rows_ && pe.col >= 0 &&
                        pe.col < cols_,
                    "PE (" << pe.row << ", " << pe.col << ") out of "
                           << config_.ToString());
}

void SystolicArray::SetWeight(PeCoord pe, std::int64_t value) {
  CheckCoord(pe);
  const std::int64_t stored = SignExtend(value, config_.input_bits);
  if (narrow_) {
    weights32_[Index(pe.row, pe.col)] = static_cast<std::int32_t>(stored);
  } else {
    weights_[Index(pe.row, pe.col)] = stored;
  }
}

std::int64_t SystolicArray::weight(PeCoord pe) const {
  CheckCoord(pe);
  const std::size_t idx = Index(pe.row, pe.col);
  return narrow_ ? weights32_[idx] : weights_[idx];
}

std::int64_t SystolicArray::accumulator(PeCoord pe) const {
  CheckCoord(pe);
  if (replay_ != nullptr && !cone_.contains(pe.col)) {
    // Outside the cone the faulty run provably equals the golden run;
    // replay the recorded end-of-tile value instead of recomputing it.
    return replay_->AccumulatorAt(replay_reset_, pe.row, pe.col);
  }
  const std::size_t idx = Index(pe.row, pe.col);
  return narrow_ ? accumulators32_[idx] : accumulators_[idx];
}

void SystolicArray::ClearAccumulators() {
  std::fill(accumulators_.begin(), accumulators_.end(), 0);
  std::fill(accumulators32_.begin(), accumulators32_.end(), 0);
}

void SystolicArray::SetWestInput(std::int32_t row, std::int64_t value) {
  SAFFIRE_CHECK_MSG(row >= 0 && row < rows_, "row=" << row);
  west_inputs_[static_cast<std::size_t>(row)] =
      SignExtend(value, config_.input_bits);
}

void SystolicArray::SetNorthInput(std::int32_t col, std::int64_t value) {
  SAFFIRE_CHECK_MSG(col >= 0 && col < cols_, "col=" << col);
  // North inputs carry partial-sum seeds under WS (acc_bits) and streamed
  // weights under OS (input_bits); store at accumulator width and let the
  // per-signal truncation in Step() narrow as needed.
  north_inputs_[static_cast<std::size_t>(col)] =
      SignExtend(value, config_.acc_bits);
}

void SystolicArray::ClearEdgeInputs() {
  std::fill(west_inputs_.begin(), west_inputs_.end(), 0);
  std::fill(north_inputs_.begin(), north_inputs_.end(), 0);
}

void SystolicArray::PrepareWestEntry() {
  // Columns west of the cone are a pure delay line for the activation
  // stream (act_east = act_in, and no fault can exist west of the cone), so
  // the activations entering column `lo` on step t are the west edge inputs
  // of step t − lo — reproduced here with a lo-deep ring buffer instead of
  // simulating lo columns.
  const std::int32_t depth = cone_.lo;
  const std::size_t base =
      static_cast<std::size_t>(steps_since_reset_ %
                               static_cast<std::int64_t>(depth)) *
      static_cast<std::size_t>(rows_);
  for (std::int32_t r = 0; r < rows_; ++r) {
    const std::size_t slot = base + static_cast<std::size_t>(r);
    west_entry_[static_cast<std::size_t>(r)] = west_hist_[slot];
    west_hist_[slot] = west_inputs_[static_cast<std::size_t>(r)];
  }
}

void SystolicArray::StepReference(bool ws, std::int32_t c0, std::int32_t c1) {
  const int input_bits = config_.input_bits;
  const int product_bits = config_.product_bits();
  const int acc_bits = config_.acc_bits;

  for (std::int32_t r = 0; r < rows_; ++r) {
    for (std::int32_t c = c0; c <= c1; ++c) {
      const std::size_t idx = Index(r, c);
      const PeCoord coord{r, c};
      const bool hooked = hooked_[idx] != 0;

      const std::int64_t act_in =
          (c == entry_col_)
              ? (entry_col_ == 0 ? west_inputs_[static_cast<std::size_t>(r)]
                                 : west_entry_[static_cast<std::size_t>(r)])
              : act_wire_[idx - 1];
      const std::int64_t north_in =
          (r == 0) ? north_inputs_[static_cast<std::size_t>(c)]
                   : south_wire_[Index(r - 1, c)];

      // Weight operand: preloaded register (WS) or the streamed north value
      // truncated to operand width (OS).
      std::int64_t weight_operand =
          ws ? weights_[idx] : SignExtend(north_in, input_bits);
      if (hooked) {
        weight_operand = hook_->Apply(coord, MacSignal::kWeightOperand,
                                      weight_operand, cycle_);
        ++hook_invocations_;
      }

      std::int64_t mul_out = SignExtend(act_in * weight_operand, product_bits);
      if (hooked) {
        mul_out = hook_->Apply(coord, MacSignal::kMulOut, mul_out, cycle_);
        ++hook_invocations_;
      }

      // Added modulo 2^64: at acc_bits == 64 a forced adder output upstream
      // can sit near ±2^63, and the width truncation follows anyway.
      const std::int64_t addend = ws ? north_in : accumulators_[idx];
      std::int64_t adder_out = SignExtend(
          static_cast<std::int64_t>(static_cast<std::uint64_t>(addend) +
                                    static_cast<std::uint64_t>(mul_out)),
          acc_bits);
      if (hooked) {
        adder_out =
            hook_->Apply(coord, MacSignal::kAdderOut, adder_out, cycle_);
        ++hook_invocations_;
      }

      std::int64_t south_out;
      if (ws) {
        south_out = adder_out;  // partial sum continues down the column
      } else {
        accumulators_[idx] = adder_out;  // result stays in place
        south_out = SignExtend(north_in, input_bits);  // weight forwarded
      }
      if (hooked) {
        south_out = hook_->Apply(
            coord, MacSignal::kSouthForward, south_out,
            cycle_);
        ++hook_invocations_;
      }

      std::int64_t act_out = act_in;
      if (hooked) {
        act_out =
            hook_->Apply(coord, MacSignal::kActForward, act_out, cycle_);
        ++hook_invocations_;
      }

      act_wire_next_[idx] = act_out;
      south_wire_next_[idx] = south_out;

      if (tracer_ != nullptr) {
        tracer_->OnSignal(coord, MacSignal::kWeightOperand, weight_operand,
                          cycle_);
        tracer_->OnSignal(coord, MacSignal::kMulOut, mul_out, cycle_);
        tracer_->OnSignal(coord, MacSignal::kAdderOut, adder_out, cycle_);
        tracer_->OnSignal(coord, MacSignal::kSouthForward, south_out, cycle_);
        tracer_->OnSignal(coord, MacSignal::kActForward, act_out, cycle_);
      }
    }
  }
}

template <bool kWs>
void SystolicArray::StepFastWide(std::int32_t c0, std::int32_t c1) {
  const int sx_acc = 64 - config_.acc_bits;
  const int sx_in = 64 - config_.input_bits;
  const std::int64_t* const act_prev = act_wire_.data();
  const std::int64_t* const south_prev = south_wire_.data();
  const std::int64_t* const weights = weights_.data();
  std::int64_t* const acc = accumulators_.data();
  std::int64_t* const act_next = act_wire_next_.data();
  std::int64_t* const south_next = south_wire_next_.data();
  const std::int64_t* const west =
      entry_col_ == 0 ? west_inputs_.data() : west_entry_.data();

  for (std::int32_t r = 0; r < rows_; ++r) {
    const std::size_t base = Index(r, 0);
    const std::int64_t* const north =
        (r == 0) ? north_inputs_.data() : south_prev + (base - static_cast<std::size_t>(cols_));
    const std::int64_t* const act_row = act_prev + base;
    for (std::int32_t c = c0; c <= c1; ++c) {
      const std::size_t i = base + static_cast<std::size_t>(c);
      const std::int64_t act =
          (c == entry_col_) ? west[r] : act_row[c - 1];
      const std::int64_t north_in = north[c];
      if constexpr (kWs) {
        // mul_out fits product_bits − 1 bits, so its truncation is the
        // identity; only the adder truncates.
        south_next[i] = SxWide(north_in + act * weights[i], sx_acc);
      } else {
        const std::int64_t weight_operand = SxWide(north_in, sx_in);
        acc[i] = SxWide(acc[i] + act * weight_operand, sx_acc);
        south_next[i] = weight_operand;
      }
      act_next[i] = act;
    }
  }
}

template <bool kWs>
void SystolicArray::StepFastNarrow(std::int32_t c0, std::int32_t c1) {
  const int sx_in = 32 - config_.input_bits;
  const std::int32_t* const act_prev = act32_.data();
  const std::int32_t* const south_prev = south32_.data();
  const std::int32_t* const weights = weights32_.data();
  std::int32_t* const acc = accumulators32_.data();
  std::int32_t* const act_next = act32_next_.data();
  std::int32_t* const south_next = south32_next_.data();
  const std::int64_t* const west =
      entry_col_ == 0 ? west_inputs_.data() : west_entry_.data();

  for (std::int32_t r = 0; r < rows_; ++r) {
    const std::size_t base = Index(r, 0);
    const std::int32_t* const north =
        (r == 0) ? north_inputs32_.data()
                 : south_prev + (base - static_cast<std::size_t>(cols_));
    const std::int32_t* const act_row = act_prev + base;
    for (std::int32_t c = c0; c <= c1; ++c) {
      const std::size_t i = base + static_cast<std::size_t>(c);
      const std::int32_t act = (c == entry_col_)
                                   ? static_cast<std::int32_t>(west[r])
                                   : act_row[c - 1];
      const std::int32_t north_in = north[c];
      if constexpr (kWs) {
        // acc_bits == 32: the adder truncation is the 32-bit wrap itself.
        south_next[i] = MacWrap32(north_in, act, weights[i]);
      } else {
        const std::int32_t weight_operand = SxNarrow(north_in, sx_in);
        acc[i] = MacWrap32(acc[i], act, weight_operand);
        south_next[i] = weight_operand;
      }
      act_next[i] = act;
    }
  }
}

void SystolicArray::Step(Dataflow dataflow) {
  // Input-stationary is a scheduling convention over the WS datapath
  // (dataflow.h); the physical array only knows WS and OS cycles.
  SAFFIRE_CHECK_MSG(dataflow != Dataflow::kInputStationary,
                    "drive IS through InputStationaryScheduler");
  const bool ws = dataflow == Dataflow::kWeightStationary;
  const std::int32_t lo = replay_ != nullptr ? cone_.lo : 0;
  const std::int32_t hi = replay_ != nullptr ? cone_.hi : cols_ - 1;
  if (replay_ != nullptr) {
    SAFFIRE_ASSERT_MSG(replay_step_ < replay_->steps(),
                       "differential run stepped past the recorded golden "
                       "run (" << replay_->steps() << " steps)");
    if (cone_.lo > 0) PrepareWestEntry();
  }

  const bool instrument_all = tracer_ != nullptr || force_reference_;
  if (!instrument_all && hook_ == nullptr) {
    if (narrow_capable_) {
      EnsureNarrow();
      for (std::int32_t c = lo; c <= hi; ++c) {
        north_inputs32_[static_cast<std::size_t>(c)] =
            static_cast<std::int32_t>(north_inputs_[static_cast<std::size_t>(c)]);
      }
      ws ? StepFastNarrow<true>(lo, hi) : StepFastNarrow<false>(lo, hi);
    } else {
      EnsureWide();
      ws ? StepFastWide<true>(lo, hi) : StepFastWide<false>(lo, hi);
    }
  } else {
    EnsureWide();
    if (instrument_all) {
      StepReference(ws, lo, hi);
    } else {
      // Partition the active columns into maximal hooked / unhooked spans:
      // only columns containing a hooked PE pay the instrumented loop.
      std::int32_t c = lo;
      while (c <= hi) {
        const bool hooked_span = col_hooked_[static_cast<std::size_t>(c)] != 0;
        std::int32_t end = c;
        while (end + 1 <= hi &&
               (col_hooked_[static_cast<std::size_t>(end + 1)] != 0) ==
                   hooked_span) {
          ++end;
        }
        if (hooked_span) {
          StepReference(ws, c, end);
        } else {
          ws ? StepFastWide<true>(c, end) : StepFastWide<false>(c, end);
        }
        c = end + 1;
      }
    }
  }

  act_wire_.swap(act_wire_next_);
  south_wire_.swap(south_wire_next_);
  act32_.swap(act32_next_);
  south32_.swap(south32_next_);

  ++cycle_;
  ++steps_since_reset_;
  if (replay_ != nullptr) ++replay_step_;
  const auto active = static_cast<std::uint64_t>(hi - lo + 1) *
                      static_cast<std::uint64_t>(rows_);
  pe_steps_ += active;
  pe_steps_skipped_ +=
      static_cast<std::uint64_t>(config_.num_pes()) - active;

  if (recording_ != nullptr) {
    // cycle_ was just incremented; the hook-visible clock of this Step (the
    // value transient strikes compare against) is the pre-increment value.
    const std::int64_t hook_cycle = cycle_ - 1;
    const std::size_t bottom = Index(rows_ - 1, 0);
    if (narrow_) {
      recording_->AppendSouthRow(south32_.data() + bottom, hook_cycle);
    } else {
      recording_->AppendSouthRow(south_wire_.data() + bottom, hook_cycle);
    }
  }
}

std::int64_t SystolicArray::SouthOutput(std::int32_t col) const {
  SAFFIRE_CHECK_MSG(col >= 0 && col < cols_, "col=" << col);
  if (replay_ != nullptr && !cone_.contains(col)) {
    // Outside the cone the faulty run provably equals the golden run;
    // replay the recorded south output of the aligned golden Step.
    if (replay_step_ == 0) return 0;  // no Step yet: registers hold Reset
    return replay_->SouthAt(replay_step_ - 1, col);
  }
  const std::size_t idx = Index(rows_ - 1, col);
  return narrow_ ? south32_[idx] : south_wire_[idx];
}

void SystolicArray::AdvanceIdle(std::int64_t cycles) {
  SAFFIRE_CHECK_MSG(cycles >= 0, "cycles=" << cycles);
  cycle_ += cycles;
}

}  // namespace saffire
