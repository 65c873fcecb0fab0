#include "sim/decode.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "ftn/symbols.h"
#include "prec/format.h"

namespace prose::sim {

namespace {

using ftn::Intrinsic;

/// Code range owned by one procedure: [first, last). Procedures are emitted
/// contiguously, so sorting by first_instr recovers the ranges.
struct ProcRange {
  std::int32_t proc = -1;
  std::int32_t first = 0;
  std::int32_t last = 0;
};

/// Op-mix class of a bytecode op (see MixClass). Loop entries are counted
/// separately by the kLoopBegin handlers, by vectorization verdict.
std::uint8_t mix_class(Op op) {
  switch (op) {
    case Op::kAddF32: case Op::kSubF32: case Op::kMulF32: case Op::kDivF32:
    case Op::kPowF32: case Op::kNegF32:
      return kMixFp32;
    case Op::kAddF64: case Op::kSubF64: case Op::kMulF64: case Op::kDivF64:
    case Op::kPowF64: case Op::kNegF64:
      return kMixFp64;
    case Op::kAddFmt: case Op::kSubFmt: case Op::kMulFmt: case Op::kDivFmt:
    case Op::kPowFmt: case Op::kNegFmt:
      return kMixFmt;
    case Op::kCastFmt:
      return kMixCast;
    case Op::kAddI: case Op::kSubI: case Op::kMulI: case Op::kDivI:
    case Op::kPowI: case Op::kNegI: case Op::kCastInt:
      return kMixInt;
    case Op::kCastF32: case Op::kCastF64:
      return kMixCast;
    case Op::kLoadElem: case Op::kStoreElem: case Op::kArrayFill:
    case Op::kArrayCopy: case Op::kReduce:
      return kMixMem;
    case Op::kCall:
      return kMixCall;
    case Op::kJmp: case Op::kJmpIfFalse: case Op::kLoopCond:
      return kMixBranch;
    case Op::kIntrin1: case Op::kIntrin2:
      return kMixIntrinsic;
    default:
      return kMixOther;
  }
}

/// 1:1 opcode translation (no fusion, no context): everything except the
/// resolved variants, which the caller special-cases.
XOp plain_xop(Op op) {
  switch (op) {
    case Op::kNop: return XOp::kNop;
    case Op::kLoadConst: return XOp::kLoadConst;
    case Op::kMov: return XOp::kMov;
    case Op::kCastF32: return XOp::kCastF32;
    case Op::kCastF64: return XOp::kCastF64;
    case Op::kCastInt: return XOp::kCastInt;
    case Op::kLoadGlobal: return XOp::kLoadGlobal;
    case Op::kStoreGlobal: return XOp::kStoreGlobalF64;  // resolved by caller
    case Op::kAddF32: return XOp::kAddF32;
    case Op::kSubF32: return XOp::kSubF32;
    case Op::kMulF32: return XOp::kMulF32;
    case Op::kDivF32: return XOp::kDivF32;
    case Op::kPowF32: return XOp::kPowF32;
    case Op::kAddF64: return XOp::kAddF64;
    case Op::kSubF64: return XOp::kSubF64;
    case Op::kMulF64: return XOp::kMulF64;
    case Op::kDivF64: return XOp::kDivF64;
    case Op::kPowF64: return XOp::kPowF64;
    case Op::kAddI: return XOp::kAddI;
    case Op::kSubI: return XOp::kSubI;
    case Op::kMulI: return XOp::kMulI;
    case Op::kDivI: return XOp::kDivI;
    case Op::kPowI: return XOp::kPowI;
    case Op::kNegF32: return XOp::kNegF32;
    case Op::kNegF64: return XOp::kNegF64;
    case Op::kNegI: return XOp::kNegI;
    case Op::kCmpEq: return XOp::kCmpEq;
    case Op::kCmpNe: return XOp::kCmpNe;
    case Op::kCmpLt: return XOp::kCmpLt;
    case Op::kCmpLe: return XOp::kCmpLe;
    case Op::kCmpGt: return XOp::kCmpGt;
    case Op::kCmpGe: return XOp::kCmpGe;
    case Op::kAnd: return XOp::kAnd;
    case Op::kOr: return XOp::kOr;
    case Op::kNot: return XOp::kNot;
    case Op::kEqv: return XOp::kEqv;
    case Op::kNeqv: return XOp::kNeqv;
    case Op::kIntrin1: return XOp::kIntrin1;
    case Op::kIntrin2: return XOp::kIntrin2;
    case Op::kLoadElem: return XOp::kLoadElem;
    case Op::kStoreElem: return XOp::kStoreElem;
    case Op::kArrayFill: return XOp::kArrayFill;
    case Op::kArrayCopy: return XOp::kArrayCopy;
    case Op::kReduce: return XOp::kReduce;
    case Op::kArraySize: return XOp::kArraySize;
    case Op::kAllReduce: return XOp::kAllReduce;
    case Op::kJmp: return XOp::kJmp;
    case Op::kJmpIfFalse: return XOp::kJmpIfFalse;
    case Op::kLoopCond: return XOp::kLoopCond;
    case Op::kLoopBegin: return XOp::kLoopBeginScalar;  // resolved by caller
    case Op::kLoopEnd: return XOp::kLoopEnd;
    case Op::kAllocArray: return XOp::kAllocArray;
    case Op::kCall: return XOp::kCall;
    case Op::kRet: return XOp::kRet;
    case Op::kPrint: return XOp::kPrint;
    case Op::kAddFmt: return XOp::kAddFmt;
    case Op::kSubFmt: return XOp::kSubFmt;
    case Op::kMulFmt: return XOp::kMulFmt;
    case Op::kDivFmt: return XOp::kDivFmt;
    case Op::kPowFmt: return XOp::kPowFmt;
    case Op::kNegFmt: return XOp::kNegFmt;
    case Op::kCastFmt: return XOp::kCastFmt;
  }
  return XOp::kNop;
}

bool is_cmp(Op op) {
  return op == Op::kCmpEq || op == Op::kCmpNe || op == Op::kCmpLt ||
         op == Op::kCmpLe || op == Op::kCmpGt || op == Op::kCmpGe;
}

/// Fusable arithmetic second/first components: add/sub/mul/div (pow is rare
/// and has a libm call in the body — not worth a superinstruction).
bool fusable_arith(Op op, bool* f32, int* which) {
  switch (op) {
    case Op::kAddF32: *f32 = true; *which = 0; return true;
    case Op::kSubF32: *f32 = true; *which = 1; return true;
    case Op::kMulF32: *f32 = true; *which = 2; return true;
    case Op::kDivF32: *f32 = true; *which = 3; return true;
    case Op::kAddF64: *f32 = false; *which = 0; return true;
    case Op::kSubF64: *f32 = false; *which = 1; return true;
    case Op::kMulF64: *f32 = false; *which = 2; return true;
    case Op::kDivF64: *f32 = false; *which = 3; return true;
    default: return false;
  }
}

/// Fusable integer arithmetic (kDivI is excluded: its divide-by-zero fault
/// path would complicate the fused handler for a rare dynamic op).
bool fusable_int_arith(Op op, int* which) {
  switch (op) {
    case Op::kAddI: *which = 0; return true;
    case Op::kSubI: *which = 1; return true;
    case Op::kMulI: *which = 2; return true;
    default: return false;
  }
}

}  // namespace

StatusOr<std::shared_ptr<const DecodedProgram>> decode(
    const CompiledProgram& program, const DecodeOptions& options) {
  const std::vector<Instr>& code = program.code;
  const auto code_size = static_cast<std::int32_t>(code.size());

  // --- recover per-procedure code ranges -----------------------------------
  std::vector<ProcRange> ranges(program.procs.size());
  for (std::size_t p = 0; p < program.procs.size(); ++p) {
    ranges[p].proc = static_cast<std::int32_t>(p);
    ranges[p].first = program.procs[p].first_instr;
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const ProcRange& x, const ProcRange& y) { return x.first < y.first; });
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    ranges[r].last = r + 1 < ranges.size() ? ranges[r + 1].first : code_size;
  }

  const auto err = [&](std::int32_t pc, const std::string& what) -> Status {
    std::string where = " at instr " + std::to_string(pc);
    for (const ProcRange& r : ranges) {
      if (pc >= r.first && pc < r.last) {
        where += " (" + program.procs[static_cast<std::size_t>(r.proc)].qualified() + ")";
        break;
      }
    }
    return Status(StatusCode::kInvalidArgument, "decode: " + what + where);
  };

  for (const ProcRange& r : ranges) {
    const ProcMeta& meta = program.procs[static_cast<std::size_t>(r.proc)];
    if (r.first < 0 || r.first >= code_size || r.first >= r.last) {
      return Status(StatusCode::kInvalidArgument,
                    "decode: procedure '" + meta.qualified() +
                        "' has an empty or out-of-range code range");
    }
  }

  // --- per-procedure metadata checks ---------------------------------------
  for (std::size_t p = 0; p < program.procs.size(); ++p) {
    const ProcMeta& meta = program.procs[p];
    const auto bad = [&](const std::string& what) -> Status {
      return Status(StatusCode::kInvalidArgument,
                    "decode: " + what + " in procedure '" + meta.qualified() + "'");
    };
    if (meta.num_slots < 0) return bad("negative scalar frame size");
    const auto ok_slot = [&](std::int32_t s) {
      return s >= 0 && s < meta.num_slots;
    };
    for (const std::int32_t s : meta.scalar_param_slots) {
      if (!ok_slot(s)) return bad("scalar parameter slot out of range");
    }
    if (meta.result_slot >= 0 && !ok_slot(meta.result_slot)) {
      return bad("result slot out of range");
    }
    for (const ArraySlotMeta& a : meta.arrays) {
      if (a.rank < 1 || a.rank > 3) return bad("array rank out of range");
      switch (a.binding) {
        case ArrayBinding::kGlobal:
          if (a.global_index < 0 ||
              static_cast<std::size_t>(a.global_index) >= program.global_arrays.size()) {
            return bad("global array index out of range");
          }
          break;
        case ArrayBinding::kLocal:
          for (int d = 0; d < a.rank; ++d) {
            if (a.extents[d] <= 0) return bad("non-positive local array extent");
          }
          break;
        case ArrayBinding::kAutomatic:
          for (int d = 0; d < a.rank; ++d) {
            if (a.extents[d] == -2 && !ok_slot(a.extent_slots[d])) {
              return bad("automatic array extent slot out of range");
            }
          }
          break;
        case ArrayBinding::kDummy:
          if (a.dummy_position < 0) return bad("dummy array without a position");
          break;
      }
    }
  }

  // --- per-instruction verification + lowering -----------------------------
  auto decoded = std::make_shared<DecodedProgram>();
  decoded->code.resize(code.size());

  // Basic-block leaders: positions a jump, call return, or procedure entry
  // can land on. A fused pair's second component must not be a leader — that
  // is what makes skipping it sound.
  std::vector<char> leader(code.size(), 0);
  for (const ProcRange& r : ranges) leader[static_cast<std::size_t>(r.first)] = 1;

  // Custom formats get one quantizer each; `sub` holds the table index.
  std::vector<int> format_kinds;
  const auto resolve_format = [&](DecodedInstr& d, int kind) -> bool {
    auto it = std::find(format_kinds.begin(), format_kinds.end(), kind);
    if (it == format_kinds.end()) {
      if (format_kinds.size() > std::numeric_limits<std::uint8_t>::max()) return false;
      format_kinds.push_back(kind);
      decoded->formats.emplace_back(prec::decode_kind(kind));
      it = format_kinds.end() - 1;
    }
    d.sub = static_cast<std::uint8_t>(it - format_kinds.begin());
    return true;
  };

  for (const ProcRange& r : ranges) {
    const ProcMeta& meta = program.procs[static_cast<std::size_t>(r.proc)];
    const auto ok_slot = [&](std::int32_t s) { return s >= 0 && s < meta.num_slots; };
    const auto ok_opt_slot = [&](std::int32_t s) { return s < 0 || s < meta.num_slots; };
    const auto ok_array = [&](std::int32_t a) {
      return a >= 0 && static_cast<std::size_t>(a) < meta.arrays.size();
    };

    for (std::int32_t pc = r.first; pc < r.last; ++pc) {
      const Instr& in = code[static_cast<std::size_t>(pc)];
      DecodedInstr& d = decoded->code[static_cast<std::size_t>(pc)];
      d.imm = in.imm;
      d.cost = in.cost;
      d.dst = in.dst;
      d.a = in.a;
      d.b = in.b;
      d.c = in.c;
      d.aux = in.aux;
      d.aux2 = in.aux2;
      d.kind = in.kind;
      d.op = plain_xop(in.op);
      d.mix = mix_class(in.op);

      // The engines accumulate cost*scale into a local clock without a
      // per-instruction cost>0 test, which is only sound if every static
      // cost is a finite non-negative number.
      if (!(in.cost >= 0.0) || !std::isfinite(in.cost)) {
        return err(pc, "negative or non-finite cost");
      }

      switch (in.op) {
        case Op::kNop:
        case Op::kLoopEnd:
        case Op::kRet:
          break;
        case Op::kLoadConst:
          if (!ok_slot(in.dst)) return err(pc, "bad destination slot");
          break;
        case Op::kMov:
        case Op::kCastF64:
        case Op::kNegF32: case Op::kNegF64: case Op::kNegI:
        case Op::kNot:
        case Op::kAllReduce:
          if (!ok_slot(in.dst) || !ok_slot(in.a)) return err(pc, "bad operand slot");
          break;
        case Op::kCastF32:
          if (!ok_slot(in.dst) || !ok_slot(in.a)) return err(pc, "bad operand slot");
          break;
        case Op::kCastInt:
          if (!ok_slot(in.dst) || !ok_slot(in.a)) return err(pc, "bad operand slot");
          d.sub = in.aux2 == 0 ? 0 : (in.aux2 == 1 ? 1 : 2);
          break;
        case Op::kLoadGlobal:
        case Op::kStoreGlobal: {
          if (in.aux < 0 ||
              static_cast<std::size_t>(in.aux) >= program.global_scalars.size()) {
            return err(pc, "global scalar index out of range");
          }
          const std::int32_t s = in.op == Op::kLoadGlobal ? in.dst : in.a;
          if (!ok_slot(s)) return err(pc, "bad operand slot");
          if (in.op == Op::kStoreGlobal) {
            // Resolve the target's kind once: the f32 variant carries the
            // narrowing overflow trap, the f64 variant is a plain store, the
            // Fmt variant quantizes to the resolved custom kind (in d.kind).
            const int gk =
                program.global_scalars[static_cast<std::size_t>(in.aux)].kind;
            if (gk == 4) {
              d.op = XOp::kStoreGlobalF32;
            } else if (prec::is_custom_kind(gk)) {
              d.op = XOp::kStoreGlobalFmt;
              d.kind = static_cast<std::uint16_t>(gk);
              if (!resolve_format(d, gk)) return err(pc, "too many custom formats");
            } else {
              d.op = XOp::kStoreGlobalF64;
            }
          }
          break;
        }
        case Op::kAddF32: case Op::kSubF32: case Op::kMulF32: case Op::kDivF32:
        case Op::kPowF32:
        case Op::kAddF64: case Op::kSubF64: case Op::kMulF64: case Op::kDivF64:
        case Op::kPowF64:
        case Op::kAddI: case Op::kSubI: case Op::kMulI: case Op::kDivI:
        case Op::kPowI:
        case Op::kCmpEq: case Op::kCmpNe: case Op::kCmpLt: case Op::kCmpLe:
        case Op::kCmpGt: case Op::kCmpGe:
        case Op::kAnd: case Op::kOr: case Op::kEqv: case Op::kNeqv:
          if (!ok_slot(in.dst) || !ok_slot(in.a) || !ok_slot(in.b)) {
            return err(pc, "bad operand slot");
          }
          break;
        case Op::kIntrin1: {
          if (!ok_slot(in.dst) || !ok_slot(in.a)) return err(pc, "bad operand slot");
          const auto intr = static_cast<Intrinsic>(in.aux);
          if (intr != Intrinsic::kAbs && intr != Intrinsic::kSqrt &&
              intr != Intrinsic::kExp && intr != Intrinsic::kLog &&
              intr != Intrinsic::kSin && intr != Intrinsic::kCos &&
              intr != Intrinsic::kTan && intr != Intrinsic::kAtan) {
            return err(pc, "unknown unary intrinsic");
          }
          if (prec::is_custom_kind(in.kind) && !resolve_format(d, in.kind)) {
            return err(pc, "too many custom formats");
          }
          break;
        }
        case Op::kIntrin2: {
          if (!ok_slot(in.dst) || !ok_slot(in.a) || !ok_slot(in.b)) {
            return err(pc, "bad operand slot");
          }
          const auto intr = static_cast<Intrinsic>(in.aux);
          if (intr != Intrinsic::kMin && intr != Intrinsic::kMax &&
              intr != Intrinsic::kMod && intr != Intrinsic::kSign &&
              intr != Intrinsic::kAtan2) {
            return err(pc, "unknown binary intrinsic");
          }
          if (prec::is_custom_kind(in.kind) && !resolve_format(d, in.kind)) {
            return err(pc, "too many custom formats");
          }
          break;
        }
        case Op::kLoadElem:
        case Op::kStoreElem:
          if (!ok_array(in.aux)) return err(pc, "array slot out of range");
          if (!ok_slot(in.dst)) return err(pc, "bad operand slot");
          if (!ok_opt_slot(in.a) || !ok_opt_slot(in.b) || !ok_opt_slot(in.c)) {
            return err(pc, "bad subscript slot");
          }
          break;
        case Op::kArrayFill:
          if (!ok_array(in.aux)) return err(pc, "array slot out of range");
          if (!ok_slot(in.a)) return err(pc, "bad operand slot");
          break;
        case Op::kArrayCopy:
          if (!ok_array(in.aux) || !ok_array(in.aux2)) {
            return err(pc, "array slot out of range");
          }
          break;
        case Op::kReduce:
          if (!ok_array(in.aux)) return err(pc, "array slot out of range");
          if (!ok_slot(in.dst)) return err(pc, "bad destination slot");
          break;
        case Op::kArraySize:
          if (!ok_array(in.aux)) return err(pc, "array slot out of range");
          if (!ok_slot(in.dst)) return err(pc, "bad destination slot");
          if (in.aux2 < 0 || in.aux2 > 3) return err(pc, "array dimension out of range");
          break;
        case Op::kJmp:
        case Op::kJmpIfFalse:
          if (in.aux < r.first || in.aux >= r.last) {
            return err(pc, "jump target outside procedure");
          }
          leader[static_cast<std::size_t>(in.aux)] = 1;
          if (in.op == Op::kJmpIfFalse && !ok_slot(in.a)) {
            return err(pc, "bad condition slot");
          }
          break;
        case Op::kLoopCond:
          if (!ok_slot(in.dst) || !ok_slot(in.a) || !ok_slot(in.b) || !ok_slot(in.c)) {
            return err(pc, "bad operand slot");
          }
          break;
        case Op::kLoopBegin:
          // An out-of-range loop index counts as a scalar loop; resolve
          // the verdict statically.
          d.op = (in.aux >= 0 &&
                  static_cast<std::size_t>(in.aux) < program.loops.size() &&
                  program.loops[static_cast<std::size_t>(in.aux)].vectorized)
                     ? XOp::kLoopBeginVec
                     : XOp::kLoopBeginScalar;
          break;
        case Op::kAllocArray: {
          if (!ok_array(in.aux)) return err(pc, "array slot out of range");
          const ArraySlotMeta& a = meta.arrays[static_cast<std::size_t>(in.aux)];
          if (a.binding != ArrayBinding::kAutomatic) {
            return err(pc, "kAllocArray on a non-automatic array");
          }
          break;
        }
        case Op::kCall: {
          if (in.aux < 0 ||
              static_cast<std::size_t>(in.aux) >= program.procs.size()) {
            return err(pc, "callee index out of range");
          }
          if (in.aux2 < 0 ||
              static_cast<std::size_t>(in.aux2) >= program.call_sites.size()) {
            return err(pc, "call-site index out of range");
          }
          const CallSiteMeta& site =
              program.call_sites[static_cast<std::size_t>(in.aux2)];
          const ProcMeta& callee = program.procs[static_cast<std::size_t>(in.aux)];
          if (site.callee != in.aux) return err(pc, "call-site callee mismatch");
          if (site.scalar_args.size() != callee.scalar_param_slots.size()) {
            return err(pc, "call argument count mismatch");
          }
          for (const ScalarArgMeta& arg : site.scalar_args) {
            if (!ok_slot(arg.value_slot)) return err(pc, "bad argument slot");
            switch (arg.writeback) {
              case WritebackKind::kNone:
                break;
              case WritebackKind::kSlot:
                if (!ok_slot(arg.wb_slot)) return err(pc, "bad writeback slot");
                break;
              case WritebackKind::kGlobal:
                if (arg.wb_slot < 0 ||
                    static_cast<std::size_t>(arg.wb_slot) >=
                        program.global_scalars.size()) {
                  return err(pc, "bad writeback global");
                }
                break;
              case WritebackKind::kElement:
                if (!ok_array(arg.wb_array)) return err(pc, "bad writeback array");
                if (!ok_opt_slot(arg.wb_index[0]) || !ok_opt_slot(arg.wb_index[1]) ||
                    !ok_opt_slot(arg.wb_index[2])) {
                  return err(pc, "bad writeback subscript slot");
                }
                break;
            }
          }
          for (const ArrayArgMeta& arg : site.array_args) {
            if (!ok_array(arg.caller_array_slot)) {
              return err(pc, "bad array argument slot");
            }
          }
          for (const ArraySlotMeta& a : callee.arrays) {
            if (a.binding == ArrayBinding::kDummy &&
                (a.dummy_position < 0 ||
                 static_cast<std::size_t>(a.dummy_position) >= site.array_args.size())) {
              return err(pc, "dummy array position out of range");
            }
          }
          if (site.result_slot >= 0 && !ok_slot(site.result_slot)) {
            return err(pc, "bad result slot");
          }
          if (pc + 1 < code_size) leader[static_cast<std::size_t>(pc + 1)] = 1;
          break;
        }
        case Op::kPrint: {
          if (in.aux2 < 0 ||
              static_cast<std::size_t>(in.aux2) >= program.prints.size()) {
            return err(pc, "print meta index out of range");
          }
          const PrintMeta& pm = program.prints[static_cast<std::size_t>(in.aux2)];
          for (const std::int32_t s : pm.arg_slots) {
            if (!ok_slot(s)) return err(pc, "bad print argument slot");
          }
          break;
        }
        case Op::kAddFmt: case Op::kSubFmt: case Op::kMulFmt: case Op::kDivFmt:
        case Op::kPowFmt:
          if (!ok_slot(in.dst) || !ok_slot(in.a) || !ok_slot(in.b)) {
            return err(pc, "bad operand slot");
          }
          if (!prec::is_custom_kind(in.kind)) {
            return err(pc, "format op without a custom format kind");
          }
          if (!resolve_format(d, in.kind)) return err(pc, "too many custom formats");
          break;
        case Op::kNegFmt:
        case Op::kCastFmt:
          if (!ok_slot(in.dst) || !ok_slot(in.a)) {
            return err(pc, "bad operand slot");
          }
          if (!prec::is_custom_kind(in.kind)) {
            return err(pc, "format op without a custom format kind");
          }
          if (!resolve_format(d, in.kind)) return err(pc, "too many custom formats");
          break;
      }
    }

    // A procedure must not be able to fall off the end of its code range:
    // its last instruction has to transfer control unconditionally.
    const Instr& last = code[static_cast<std::size_t>(r.last - 1)];
    if (last.op != Op::kRet && last.op != Op::kJmp) {
      return err(r.last - 1, "procedure can fall through its code range");
    }
  }

  // --- superinstruction fusion ---------------------------------------------
  if (options.fuse) {
    decoded->fused = true;
    static constexpr XOp kCmpJmp[6] = {XOp::kFusedCmpEqJmp, XOp::kFusedCmpNeJmp,
                                       XOp::kFusedCmpLtJmp, XOp::kFusedCmpLeJmp,
                                       XOp::kFusedCmpGtJmp, XOp::kFusedCmpGeJmp};
    static constexpr XOp kLoadArith[2][4] = {
        {XOp::kFusedLoadAddF32, XOp::kFusedLoadSubF32, XOp::kFusedLoadMulF32,
         XOp::kFusedLoadDivF32},
        {XOp::kFusedLoadAddF64, XOp::kFusedLoadSubF64, XOp::kFusedLoadMulF64,
         XOp::kFusedLoadDivF64}};
    static constexpr XOp kArithStore[2][4] = {
        {XOp::kFusedAddStoreF32, XOp::kFusedSubStoreF32, XOp::kFusedMulStoreF32,
         XOp::kFusedDivStoreF32},
        {XOp::kFusedAddStoreF64, XOp::kFusedSubStoreF64, XOp::kFusedMulStoreF64,
         XOp::kFusedDivStoreF64}};
    static constexpr XOp kConstArith[2][4] = {
        {XOp::kFusedConstAddF32, XOp::kFusedConstSubF32, XOp::kFusedConstMulF32,
         XOp::kFusedConstDivF32},
        {XOp::kFusedConstAddF64, XOp::kFusedConstSubF64, XOp::kFusedConstMulF64,
         XOp::kFusedConstDivF64}};
    static constexpr XOp kConstIntArith[3] = {
        XOp::kFusedConstAddI, XOp::kFusedConstSubI, XOp::kFusedConstMulI};

    for (const ProcRange& r : ranges) {
      for (std::int32_t pc = r.first; pc + 1 < r.last;) {
        if (leader[static_cast<std::size_t>(pc + 1)]) {
          ++pc;
          continue;
        }
        const Op op1 = code[static_cast<std::size_t>(pc)].op;
        const Op op2 = code[static_cast<std::size_t>(pc + 1)].op;
        XOp fusedOp = XOp::kNop;
        std::uint8_t family = kNumFusedFamilies;
        bool f32 = false;
        int which = 0;
        if (op1 == Op::kLoopCond && op2 == Op::kJmpIfFalse) {
          fusedOp = XOp::kFusedLoopCondJmp;
          family = kFuseLoopCondJmp;
        } else if (op1 == Op::kAddI && op2 == Op::kJmp) {
          fusedOp = XOp::kFusedIncJmp;
          family = kFuseIncJmp;
        } else if (is_cmp(op1) && op2 == Op::kJmpIfFalse) {
          fusedOp = kCmpJmp[static_cast<int>(op1) - static_cast<int>(Op::kCmpEq)];
          family = kFuseCmpJmp;
        } else if ((op1 == Op::kCastF32 || op1 == Op::kCastF64) && op2 == Op::kMov) {
          fusedOp = op1 == Op::kCastF32 ? XOp::kFusedCastF32Mov : XOp::kFusedCastF64Mov;
          family = kFuseCastMov;
        } else if ((op1 == Op::kCastF32 || op1 == Op::kCastF64) &&
                   op2 == Op::kStoreElem) {
          fusedOp =
              op1 == Op::kCastF32 ? XOp::kFusedCastF32Store : XOp::kFusedCastF64Store;
          family = kFuseCastStore;
        } else if (op1 == Op::kLoadElem && fusable_arith(op2, &f32, &which)) {
          fusedOp = kLoadArith[f32 ? 0 : 1][which];
          family = kFuseLoadArith;
        } else if (fusable_arith(op1, &f32, &which) && op2 == Op::kStoreElem) {
          fusedOp = kArithStore[f32 ? 0 : 1][which];
          family = kFuseArithStore;
        } else if (op1 == Op::kLoadConst && fusable_arith(op2, &f32, &which)) {
          fusedOp = kConstArith[f32 ? 0 : 1][which];
          family = kFuseConstArith;
        } else if (op1 == Op::kLoadConst && fusable_int_arith(op2, &which)) {
          fusedOp = kConstIntArith[which];
          family = kFuseConstArith;
        } else if ((op1 == Op::kLoadElem || op1 == Op::kLoadGlobal) &&
                   op2 == Op::kLoadConst) {
          fusedOp = op1 == Op::kLoadElem ? XOp::kFusedLoadElemConst
                                         : XOp::kFusedLoadGlobalConst;
          family = kFuseLoadConst;
        } else if (op1 == Op::kLoadConst && op2 == Op::kLoadElem) {
          fusedOp = XOp::kFusedConstLoadElem;
          family = kFuseLoadConst;
        }
        if (family == kNumFusedFamilies) {
          ++pc;
          continue;
        }
        DecodedInstr& d = decoded->code[static_cast<std::size_t>(pc)];
        d.op = fusedOp;
        d.sub = family;
        ++decoded->fused_sites;
        ++decoded->family_sites[family];
        pc += 2;
      }
    }
  }

  // --- threaded-dispatch handler prefill -----------------------------------
  if (const void* const* labels = threaded_label_table(); labels != nullptr) {
    for (DecodedInstr& d : decoded->code) {
      d.target = labels[static_cast<int>(d.op)];
    }
  }

  return std::shared_ptr<const DecodedProgram>(std::move(decoded));
}

}  // namespace prose::sim
