// Shadow-precision hooks of the VM_SHADOW expansion of vm_engine.inc.
// Internal to src/sim: included by vm.cpp (frame push/pop and fault
// bookkeeping) and vm_engine_shadow.cpp (the shadow engine).
//
// Every scalar slot, module scalar, and array element carries a binary64
// shadow value — "what the all-binary64 run would have computed" — updated
// in lock-step with the primary mixed-precision execution. The invariants:
//   * control flow, subscripts, and loop bounds come from the primary values
//     (a shadow-divergent branch is *counted*, never taken);
//   * narrowing sites (kCastF32, kind-4 stores, casting array copies) leave
//     the shadow unrounded — that is where primary and shadow part ways;
//   * nothing here touches the clock, the op-mix, the timers, or any primary
//     state, so a shadowed run is bit-identical in cycles and outcomes.
//
// Vm::shadow_step is templated on the decoded op and always inlined: each
// handler of the shadow engine instantiates the hook for its own op, so the
// shadow run pays neither a call nor a second dispatch per instruction. The
// hook reads only the handler's DecodedInstr (decode copies every bytecode
// field it needs) and resolves per-format facts from the DecodedProgram.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ftn/symbols.h"
#include "sim/decode.h"
#include "sim/vm.h"

#if defined(__GNUC__) || defined(__clang__)
#define PROSE_SHADOW_INLINE [[gnu::always_inline]] inline
#else
#define PROSE_SHADOW_INLINE inline
#endif

namespace prose::sim {

namespace shadow_detail {

/// Relative divergence of a primary value from its binary64 shadow. Bounded
/// by 2 for finite pairs (a value flushed to zero scores exactly 1); +inf
/// when either side is non-finite. Symmetric, so downstream scoring needs no
/// clamping.
PROSE_SHADOW_INLINE double rel_div(double primary, double shadow) {
  if (primary == shadow) return 0.0;
  const double diff = std::abs(primary - shadow);
  const double scale = std::max(std::abs(primary), std::abs(shadow));
  if (!std::isfinite(diff)) return std::numeric_limits<double>::infinity();
  return diff / scale;
}

/// First-divergence threshold: well above one binary32 rounding (~6e-8), so
/// the recorded site marks the onset of accumulated error, not the first
/// benign rounding.
inline constexpr double kFirstDivergence = 1e-6;

/// Catastrophic-cancellation detector thresholds: an effective subtraction
/// whose primary result drops this many binade exponents below the larger
/// operand has lost most of the mantissa (binary32 carries 24 bits,
/// binary64 carries 53).
inline constexpr int kCancelBitsF32 = 20;
inline constexpr int kCancelBitsF64 = 40;

template <XOp kOp, XOp... kOps>
inline constexpr bool kOpIn = ((kOp == kOps) || ...);

}  // namespace shadow_detail

PROSE_SHADOW_INLINE void Vm::note_shadow_var(std::int32_t var, double div) {
  ShadowVarStats& vs = shadow_vars_[static_cast<std::size_t>(var)];
  vs.writes += 1;
  if (div > vs.max_rel_div) vs.max_rel_div = div;
}

PROSE_SHADOW_INLINE void Vm::note_shadow_div(double div, std::int32_t proc,
                                             std::int32_t pc) {
  if (div <= 0.0) return;
  if (div > shadow_max_div_) shadow_max_div_ = div;
  ShadowProcStats& ps = shadow_procs_[static_cast<std::size_t>(proc)];
  if (div > ps.max_rel_div) ps.max_rel_div = div;
  if (first_div_proc_ < 0 && div > shadow_detail::kFirstDivergence) {
    first_div_proc_ = proc;
    first_div_instr_ = pc;
  }
}

PROSE_SHADOW_INLINE void Vm::note_shadow_write(std::int32_t dst, double div,
                                               const Frame& frame,
                                               std::int32_t pc) {
  note_shadow_div(div, frame.proc, pc);
  const auto& vars = slot_var_[static_cast<std::size_t>(frame.proc)];
  if (static_cast<std::size_t>(dst) < vars.size() &&
      vars[static_cast<std::size_t>(dst)] >= 0) {
    note_shadow_var(vars[static_cast<std::size_t>(dst)], div);
  }
}

PROSE_SHADOW_INLINE void Vm::shadow_branch(const DecodedInstr& in,
                                           const Frame& frame) {
  const std::size_t at = frame.slot_base + static_cast<std::size_t>(in.a);
  const bool primary_taken = slots_[at] != 0.0;
  const bool shadow_taken = shadow_slots_[at] != 0.0;
  if (primary_taken != shadow_taken) {
    ++shadow_control_divs_;
    ++shadow_procs_[static_cast<std::size_t>(frame.proc)].control_divergences;
  }
}

template <XOp kOp>
PROSE_SHADOW_INLINE void Vm::shadow_step(const DecodedInstr& in, const Frame& frame,
                                         std::int32_t pc,
                                         const DecodedProgram& decoded) {
  using ftn::Intrinsic;
  using shadow_detail::kOpIn;
  using shadow_detail::rel_div;

  const std::size_t base = frame.slot_base;
  const auto S = [&](std::int32_t idx) -> double {
    return slots_[base + static_cast<std::size_t>(idx)];
  };
  const auto SS = [&](std::int32_t idx) -> double& {
    return shadow_slots_[base + static_cast<std::size_t>(idx)];
  };
  const auto ARR = [&](std::int32_t idx) -> ArrayStorage* {
    return frame.arrays[static_cast<std::size_t>(idx)];
  };
  const auto proc_stats = [&]() -> ShadowProcStats& {
    return shadow_procs_[static_cast<std::size_t>(frame.proc)];
  };

  // A written slot's divergence, computed once per write.
  const auto note_write = [&] {
    note_shadow_write(in.dst, rel_div(S(in.dst), SS(in.dst)), frame, pc);
  };
  // An arithmetic write also tallies its "introduced" divergence: how much
  // worse the result diverges than its worst operand — error born at this
  // site, not inherited. The result divergence feeds both tallies.
  const auto note_arith_write = [&](double operand_div) {
    const double result_div = rel_div(S(in.dst), SS(in.dst));
    double introduced = std::max(0.0, result_div - operand_div);
    // rel_div is ≤ 2 for finite pairs; clamp the non-finite-shadow case so
    // one NaN cannot swamp a procedure's finite blame sum.
    if (!std::isfinite(introduced)) introduced = 2.0;
    if (introduced > 0.0) {
      ShadowProcStats& ps = proc_stats();
      ps.introduced_sum += introduced;
      if (introduced > ps.introduced_max) ps.introduced_max = introduced;
    }
    note_shadow_write(in.dst, result_div, frame, pc);
  };
  const auto operand_div1 = [&] { return rel_div(S(in.a), SS(in.a)); };
  const auto operand_div2 = [&] {
    return std::max(rel_div(S(in.a), SS(in.a)), rel_div(S(in.b), SS(in.b)));
  };
  // Catastrophic cancellation: an effective subtraction of nearly equal
  // shadow operands whose primary result drops most of its mantissa's worth
  // of binade exponents (complete cancellation to ±0 always counts).
  const auto note_cancellation = [&](double sx, double sy, bool f32) {
    if (sx == 0.0 || sy == 0.0 || !std::isfinite(sx) || !std::isfinite(sy)) return;
    if ((sx > 0.0) == (sy > 0.0)) return;  // same effective sign: no cancel
    const double big = std::max(std::abs(sx), std::abs(sy));
    const double pr = std::abs(S(in.dst));
    const int drop = pr == 0.0 ? std::numeric_limits<int>::max()
                               : std::ilogb(big) - std::ilogb(pr);
    if (drop >= (f32 ? shadow_detail::kCancelBitsF32 : shadow_detail::kCancelBitsF64)) {
      ++shadow_cancellations_;
      ++proc_stats().cancellations;
    }
  };
  // Cancellation tier of a custom format, from its quantizer (resolved at
  // decode): the binary32 thresholds when it carries no more mantissa than
  // binary32.
  const auto fmt_f32_tier = [&] { return decoded.formats[in.sub].man_bits() <= 23; };

  if constexpr (kOp == XOp::kLoadConst) {
    SS(in.dst) = in.imm;
    note_write();
  } else if constexpr (kOp == XOp::kMov) {
    SS(in.dst) = SS(in.a);
    note_write();
  } else if constexpr (kOpIn<kOp, XOp::kCastF32, XOp::kCastFmt>) {
    // Narrowing never rounds the shadow; the primary rounding shows up as
    // introduced divergence right here.
    const double od = operand_div1();
    SS(in.dst) = SS(in.a);
    proc_stats().cast_cycles += in.cost * frame.scale;
    note_arith_write(od);
  } else if constexpr (kOp == XOp::kCastF64) {
    SS(in.dst) = SS(in.a);
    proc_stats().cast_cycles += in.cost * frame.scale;
    note_write();
  } else if constexpr (kOpIn<kOp, XOp::kCastInt, XOp::kAddI, XOp::kSubI,
                             XOp::kMulI, XOp::kDivI, XOp::kPowI, XOp::kNegI,
                             XOp::kArraySize>) {
    // Integer results track the primary exactly — subscripts, loop
    // counters, and iteration counts must be common to both executions.
    SS(in.dst) = S(in.dst);
  } else if constexpr (kOp == XOp::kLoadGlobal) {
    SS(in.dst) = shadow_globals_[static_cast<std::size_t>(in.aux)];
    note_write();
  } else if constexpr (kOpIn<kOp, XOp::kStoreGlobalF32, XOp::kStoreGlobalF64,
                             XOp::kStoreGlobalFmt>) {
    const double sv = SS(in.a);
    shadow_globals_[static_cast<std::size_t>(in.aux)] = sv;
    const double div = rel_div(globals_[static_cast<std::size_t>(in.aux)], sv);
    note_shadow_div(div, frame.proc, pc);
    if (global_var_[static_cast<std::size_t>(in.aux)] >= 0) {
      note_shadow_var(global_var_[static_cast<std::size_t>(in.aux)], div);
    }
  } else if constexpr (kOpIn<kOp, XOp::kAddF32, XOp::kAddF64, XOp::kAddFmt>) {
    // Parameterized formats keep a binary64 shadow too, so their
    // quantization appears as introduced divergence exactly as binary32's.
    const double od = operand_div2();
    note_cancellation(SS(in.a), SS(in.b),
                      kOp == XOp::kAddFmt ? fmt_f32_tier() : kOp == XOp::kAddF32);
    SS(in.dst) = SS(in.a) + SS(in.b);
    note_arith_write(od);
  } else if constexpr (kOpIn<kOp, XOp::kSubF32, XOp::kSubF64, XOp::kSubFmt>) {
    const double od = operand_div2();
    note_cancellation(SS(in.a), -SS(in.b),
                      kOp == XOp::kSubFmt ? fmt_f32_tier() : kOp == XOp::kSubF32);
    SS(in.dst) = SS(in.a) - SS(in.b);
    note_arith_write(od);
  } else if constexpr (kOpIn<kOp, XOp::kMulF32, XOp::kMulF64, XOp::kMulFmt>) {
    const double od = operand_div2();
    SS(in.dst) = SS(in.a) * SS(in.b);
    note_arith_write(od);
  } else if constexpr (kOpIn<kOp, XOp::kDivF32, XOp::kDivF64, XOp::kDivFmt>) {
    const double od = operand_div2();
    SS(in.dst) = SS(in.a) / SS(in.b);
    note_arith_write(od);
  } else if constexpr (kOpIn<kOp, XOp::kPowF32, XOp::kPowF64, XOp::kPowFmt>) {
    const double od = operand_div2();
    SS(in.dst) = std::pow(SS(in.a), SS(in.b));
    note_arith_write(od);
  } else if constexpr (kOpIn<kOp, XOp::kNegF32, XOp::kNegF64, XOp::kNegFmt>) {
    SS(in.dst) = -SS(in.a);
    note_write();
  } else if constexpr (kOp == XOp::kCmpEq) {
    // Predicates are computed from the shadow values (so kJmpIfFalse can
    // detect control divergence) but never feed arithmetic.
    SS(in.dst) = SS(in.a) == SS(in.b) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kCmpNe) {
    SS(in.dst) = SS(in.a) != SS(in.b) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kCmpLt) {
    SS(in.dst) = SS(in.a) < SS(in.b) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kCmpLe) {
    SS(in.dst) = SS(in.a) <= SS(in.b) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kCmpGt) {
    SS(in.dst) = SS(in.a) > SS(in.b) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kCmpGe) {
    SS(in.dst) = SS(in.a) >= SS(in.b) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kAnd) {
    SS(in.dst) = (SS(in.a) != 0.0 && SS(in.b) != 0.0) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kOr) {
    SS(in.dst) = (SS(in.a) != 0.0 || SS(in.b) != 0.0) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kNot) {
    SS(in.dst) = SS(in.a) == 0.0 ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kEqv) {
    SS(in.dst) = ((SS(in.a) != 0.0) == (SS(in.b) != 0.0)) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kNeqv) {
    SS(in.dst) = ((SS(in.a) != 0.0) != (SS(in.b) != 0.0)) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kLoopCond) {
    const double i = SS(in.a);
    const double hi = SS(in.b);
    const double step = SS(in.c);
    SS(in.dst) = (step > 0.0 ? i <= hi : i >= hi) ? 1.0 : 0.0;
  } else if constexpr (kOp == XOp::kIntrin1) {
    const auto intr = static_cast<Intrinsic>(in.aux);
    const double od = operand_div1();
    const double x = SS(in.a);
    double r = 0.0;
    switch (intr) {
      case Intrinsic::kAbs: r = std::abs(x); break;
      case Intrinsic::kSqrt: r = std::sqrt(x); break;
      case Intrinsic::kExp: r = std::exp(x); break;
      case Intrinsic::kLog: r = std::log(x); break;
      case Intrinsic::kSin: r = std::sin(x); break;
      case Intrinsic::kCos: r = std::cos(x); break;
      case Intrinsic::kTan: r = std::tan(x); break;
      case Intrinsic::kAtan: r = std::atan(x); break;
      default: r = x; break;
    }
    SS(in.dst) = r;
    note_arith_write(od);
  } else if constexpr (kOp == XOp::kIntrin2) {
    const auto intr = static_cast<Intrinsic>(in.aux);
    const double od = operand_div2();
    const double x = SS(in.a);
    const double y = SS(in.b);
    double r = 0.0;
    switch (intr) {
      case Intrinsic::kMin: r = std::min(x, y); break;
      case Intrinsic::kMax: r = std::max(x, y); break;
      case Intrinsic::kMod: r = std::fmod(x, y); break;
      case Intrinsic::kSign: r = y >= 0.0 ? std::abs(x) : -std::abs(x); break;
      case Intrinsic::kAtan2: r = std::atan2(x, y); break;
      default: r = x; break;
    }
    SS(in.dst) = r;
    note_arith_write(od);
  } else if constexpr (kOp == XOp::kLoadElem) {
    ArrayStorage* arr = ARR(in.aux);
    const auto idx = [&](std::int32_t s) -> std::int64_t {
      return s < 0 ? 1 : static_cast<std::int64_t>(S(s));
    };
    const std::int64_t linear = arr->linearize(idx(in.a), idx(in.b), idx(in.c));
    SS(in.dst) = arr->has_shadow() ? arr->shadow_get(linear) : arr->get(linear);
    note_write();
  } else if constexpr (kOp == XOp::kStoreElem) {
    ArrayStorage* arr = ARR(in.aux);
    const auto idx = [&](std::int32_t s) -> std::int64_t {
      return s < 0 ? 1 : static_cast<std::int64_t>(S(s));
    };
    const std::int64_t linear = arr->linearize(idx(in.a), idx(in.b), idx(in.c));
    const double sv = SS(in.dst);
    if (arr->has_shadow()) arr->shadow_set(linear, sv);
    const double div = rel_div(arr->get(linear), sv);
    note_shadow_div(div, frame.proc, pc);
    const auto var = array_var_[static_cast<std::size_t>(frame.proc)]
                               [static_cast<std::size_t>(in.aux)];
    if (var >= 0) note_shadow_var(var, div);
  } else if constexpr (kOp == XOp::kArrayFill) {
    ArrayStorage* arr = ARR(in.aux);
    if (!arr->has_shadow()) return;
    const double sv = SS(in.a);
    for (std::int64_t i = 0; i < arr->total(); ++i) arr->shadow_set(i, sv);
  } else if constexpr (kOp == XOp::kArrayCopy) {
    ArrayStorage* dst = ARR(in.aux);
    ArrayStorage* src = ARR(in.aux2);
    if (dst->has_shadow()) {
      double max_div = 0.0;
      for (std::int64_t i = 0; i < src->total(); ++i) {
        const double sv = src->has_shadow() ? src->shadow_get(i) : src->get(i);
        dst->shadow_set(i, sv);
        max_div = std::max(max_div, rel_div(dst->get(i), sv));
      }
      note_shadow_div(max_div, frame.proc, pc);
      const auto var = array_var_[static_cast<std::size_t>(frame.proc)]
                                 [static_cast<std::size_t>(in.aux)];
      if (var >= 0) note_shadow_var(var, max_div);
    }
    if (dst->kind() != src->kind()) {
      // Mirror of the primary cast-cycle charge, attributed to this proc.
      const double bytes = dst->bytes() + src->bytes();
      proc_stats().cast_cycles +=
          static_cast<double>(src->total()) *
          (0.5 + bytes * program_->machine.mem_cost_per_byte * 0.5);
    }
  } else if constexpr (kOp == XOp::kReduce) {
    ArrayStorage* arr = ARR(in.aux);
    const auto sval = [&](std::int64_t i) {
      return arr->has_shadow() ? arr->shadow_get(i) : arr->get(i);
    };
    double acc = in.aux2 == 0 ? 0.0 : sval(0);
    for (std::int64_t i = 0; i < arr->total(); ++i) {
      const double v = sval(i);
      if (in.aux2 == 0) {
        acc += v;
      } else if (in.aux2 == 1) {
        acc = std::min(acc, v);
      } else {
        acc = std::max(acc, v);
      }
    }
    SS(in.dst) = acc;
    note_write();
  } else if constexpr (kOp == XOp::kAllReduce) {
    SS(in.dst) = SS(in.a);
  } else if constexpr (kOp == XOp::kAllocArray) {
    ArrayStorage* arr = ARR(in.aux);
    if (arr != nullptr && !arr->has_shadow()) arr->enable_shadow();
  }
  // Everything else writes no floating-point value. Control transfers never
  // reach this hook: kJmpIfFalse calls shadow_branch, and kCall/kRet copy
  // shadow values inside push_frame/pop_frame.
}

}  // namespace prose::sim
