#include "sim/compile.h"

#include <array>
#include <cmath>
#include <functional>
#include <limits>

#include "ftn/callgraph.h"
#include "prec/format.h"

namespace prose::sim {

using ftn::BaseType;
using ftn::BinaryOp;
using ftn::DeclEntity;
using ftn::Expr;
using ftn::ExprKind;
using ftn::ExprPtr;
using ftn::Intrinsic;
using ftn::Procedure;
using ftn::ResolvedProgram;
using ftn::ScalarType;
using ftn::Stmt;
using ftn::StmtKind;
using ftn::Symbol;
using ftn::SymbolId;
using ftn::SymbolKind;
using ftn::UnaryOp;

namespace {

Status compile_err(std::string message) {
  return Status(StatusCode::kSemanticError, std::move(message));
}

/// Value kinds used by the compiler's expression layer. kFmt covers every
/// parameterized (non-hardware) real format; the Operand carries the encoded
/// kind alongside.
enum class VKind : std::uint8_t { kF32, kF64, kFmt, kInt, kBool };

VKind vkind_of(const ScalarType& t) {
  switch (t.base) {
    case BaseType::kReal:
      if (t.kind == 4) return VKind::kF32;
      if (prec::is_custom_kind(t.kind)) return VKind::kFmt;
      return VKind::kF64;
    case BaseType::kInteger: return VKind::kInt;
    case BaseType::kLogical: return VKind::kBool;
  }
  return VKind::kF64;
}

bool is_real_vk(VKind k) {
  return k == VKind::kF32 || k == VKind::kF64 || k == VKind::kFmt;
}

struct Operand {
  std::int32_t slot = -1;
  VKind kind = VKind::kF64;
  std::uint16_t fmt = 8;  // encoded format kind when kind == kFmt
};

/// Fortran kind of an operand (int/logical promote arithmetic to f64).
int fkind(const Operand& o) {
  switch (o.kind) {
    case VKind::kF32: return 4;
    case VKind::kFmt: return o.fmt;
    default: return 8;
  }
}

Operand typed_operand(std::int32_t slot, const ScalarType& t) {
  Operand o{slot, vkind_of(t)};
  if (o.kind == VKind::kFmt) o.fmt = static_cast<std::uint16_t>(t.kind);
  return o;
}

class Compiler {
 public:
  Compiler(const ResolvedProgram& rp, const MachineModel& machine,
           const CompileOptions& options)
      : rp_(rp), machine_(machine), options_(options) {}

  StatusOr<CompiledProgram> run() {
    out_.machine = machine_;
    const ftn::CallGraph cg = ftn::CallGraph::build(rp_);
    out_.vec_report = analyze_vectorization(rp_, cg, machine_);

    if (Status s = collect_globals(); !s.is_ok()) return s;
    register_procs();
    for (const auto& mod : rp_.program.modules) {
      for (const auto& proc : mod.procedures) {
        if (Status s = compile_proc(mod.name, proc); !s.is_ok()) return s;
      }
    }
    return std::move(out_);
  }

 private:
  // ---- program-level tables -------------------------------------------------

  Status collect_globals() {
    for (const auto& mod : rp_.program.modules) {
      for (const auto& d : mod.decls) {
        if (d.is_parameter) continue;
        const Symbol& sym = rp_.symbols.get(d.symbol);
        const std::string q = sym.qualified();
        if (d.is_array()) {
          GlobalArrayMeta meta;
          meta.qualified = q;
          meta.kind = d.type.is_real() ? d.type.kind : 8;  // int/logical arrays stored wide
          meta.rank = sym.rank();
          for (int r = 0; r < meta.rank; ++r) meta.extents[r] = sym.extents[static_cast<std::size_t>(r)];
          out_.global_array_index[q] = static_cast<std::int32_t>(out_.global_arrays.size());
          global_array_of_symbol_[d.symbol] = out_.global_array_index[q];
          out_.global_arrays.push_back(meta);
        } else {
          GlobalScalarMeta meta;
          meta.qualified = q;
          meta.kind = d.type.is_real() ? d.type.kind : 8;
          if (d.init != nullptr && sym.const_value.has_value()) {
            meta.init = sym.const_value->as_real();
          } else if (d.init != nullptr) {
            // Non-parameter initializers must be constants in the subset;
            // sema folded parameters only, so evaluate literals directly.
            if (d.init->kind == ExprKind::kRealLit) meta.init = d.init->real_value;
            if (d.init->kind == ExprKind::kIntLit) {
              meta.init = static_cast<double>(d.init->int_value);
            }
          }
          // No instruction runs for an initializer, so nothing could trap at
          // run time: one that overflows its kind is refused here.
          bool overflow = false;
          if (d.type.is_fp32()) {
            const auto narrowed = static_cast<float>(meta.init);
            overflow = std::isfinite(meta.init) && !std::isfinite(narrowed);
            meta.init = static_cast<double>(narrowed);
          } else if (prec::is_custom_kind(d.type.kind)) {
            meta.init = prec::Quantizer(prec::decode_kind(d.type.kind))
                            .round(meta.init, overflow);
          }
          if (overflow) {
            return compile_err(
                "initializer of module variable " + q + " overflows real(" +
                (d.type.is_fp32() ? std::string("kind=4") : prec::kind_name(d.type.kind)) +
                ")");
          }
          out_.global_scalar_index[q] = static_cast<std::int32_t>(out_.global_scalars.size());
          global_scalar_of_symbol_[d.symbol] = out_.global_scalar_index[q];
          out_.global_scalars.push_back(meta);
        }
      }
    }
    return Status::ok();
  }

  void register_procs() {
    for (const auto& mod : rp_.program.modules) {
      for (const auto& proc : mod.procedures) {
        ProcMeta meta;
        meta.module_name = mod.name;
        meta.name = proc.name;
        meta.symbol = proc.symbol;
        meta.generated = proc.generated;
        const auto inl = out_.vec_report.inlinable.find(proc.symbol);
        meta.inlinable = options_.enable_inlining && inl != out_.vec_report.inlinable.end() &&
                         inl->second.eligible;
        meta.instrument = options_.instrument.contains(meta.qualified());
        proc_index_of_symbol_[proc.symbol] = static_cast<std::int32_t>(out_.procs.size());
        out_.proc_index[meta.qualified()] = static_cast<std::int32_t>(out_.procs.size());
        out_.procs.push_back(std::move(meta));
      }
    }
  }

  // ---- per-procedure state --------------------------------------------------

  struct ProcCtx {
    ProcMeta* meta = nullptr;
    const Procedure* proc = nullptr;
    std::map<SymbolId, std::int32_t> scalar_slot;   // locals/dummies/result
    std::map<SymbolId, std::int32_t> array_slot;    // all arrays referenced
    std::int32_t next_slot = 0;
    std::int32_t temp_base = 0;
    std::int32_t temp_next = 0;
    std::int32_t max_slots = 0;
    std::vector<double> vec_factor_stack{1.0};      // cost multiplier
    struct LoopLabels {
      std::vector<std::int32_t> breaks;   // patch to loop end
      std::vector<std::int32_t> cycles;   // patch to increment/head
    };
    std::vector<LoopLabels> loop_stack;
  };

  [[nodiscard]] double factor() const { return ctx_.vec_factor_stack.back(); }

  std::int32_t alloc_slot() {
    const std::int32_t s = ctx_.next_slot++;
    ctx_.max_slots = std::max(ctx_.max_slots, ctx_.next_slot);
    return s;
  }

  std::int32_t alloc_temp() {
    const std::int32_t s = ctx_.temp_next++;
    ctx_.max_slots = std::max(ctx_.max_slots, ctx_.temp_next);
    return s;
  }

  void reset_temps() { ctx_.temp_next = ctx_.temp_base; }

  /// A slot that must outlive the current statement (loop bounds, automatic
  /// extents): claim a temp and raise the temp floor past it so later
  /// statements cannot reuse it.
  std::int32_t persist_slot() {
    const std::int32_t s = alloc_temp();
    if (ctx_.temp_base <= s) ctx_.temp_base = s + 1;
    return s;
  }

  std::int32_t emit(Instr instr) {
    out_.code.push_back(instr);
    return static_cast<std::int32_t>(out_.code.size() - 1);
  }

  /// Cost of an ALU-class operation at the current vector factor.
  [[nodiscard]] double alu(double base) const { return base * factor(); }

  /// Expensive-math cost (div/sqrt/pow/transcendental): scalar f32 versions
  /// are cheaper; vectorized ones are covered by the lane count.
  [[nodiscard]] double math_cost(double base, VKind kind) const {
    if (kind == VKind::kF32 && factor() >= 1.0) {
      base *= machine_.f32_scalar_math_discount;
    }
    return base * factor();
  }

  /// Cost of a cast at the current factor (extra pack/unpack inside
  /// vectorized loops).
  [[nodiscard]] double cast_cost() const {
    if (factor() < 1.0) return machine_.cost_cast * machine_.cast_vector_penalty * factor();
    return machine_.cost_cast;
  }

  /// Cast cost into a parameterized format (per-format table overrides the
  /// generic convert cost; same vector pack/unpack penalty applies).
  [[nodiscard]] double fmt_cast_cost(int kind) const {
    const double base = machine_.cast_cost_for_kind(kind);
    if (factor() < 1.0) return base * machine_.cast_vector_penalty * factor();
    return base;
  }

  /// Cost of an array element access: issue overhead amortizes, bytes do not.
  [[nodiscard]] double elem_cost(int kind) const {
    return machine_.mem_access_overhead * factor() +
           machine_.bytes_for_kind(kind) * machine_.mem_cost_per_byte;
  }

  // ---- procedure compilation -------------------------------------------------

  Status compile_proc(const std::string& /*module_name*/, const Procedure& proc) {
    ctx_ = ProcCtx{};
    ctx_.meta = &out_.procs[static_cast<std::size_t>(proc_index_of_symbol_.at(proc.symbol))];
    ctx_.proc = &proc;
    ctx_.meta->first_instr = static_cast<std::int32_t>(out_.code.size());

    // Slot layout: scalar dummies (in order), result, locals.
    int array_dummy_pos = 0;
    for (const auto& pname : proc.param_names) {
      const DeclEntity* d = proc.find_decl(pname);
      PROSE_CHECK(d != nullptr);
      const Symbol& sym = rp_.symbols.get(d->symbol);
      if (sym.is_array()) {
        ArraySlotMeta ameta;
        ameta.binding = ArrayBinding::kDummy;
        ameta.kind = sym.type.is_real() ? sym.type.kind : 8;
        ameta.rank = sym.rank();
        ameta.dummy_position = array_dummy_pos++;
        ameta.name = sym.qualified();
        ctx_.array_slot[d->symbol] = static_cast<std::int32_t>(ctx_.meta->arrays.size());
        ctx_.meta->arrays.push_back(ameta);
      } else {
        const std::int32_t slot = alloc_slot();
        ctx_.scalar_slot[d->symbol] = slot;
        ctx_.meta->scalar_param_slots.push_back(slot);
      }
    }
    if (proc.kind == ftn::ProcKind::kFunction) {
      const DeclEntity* r = proc.find_decl(proc.result_name);
      PROSE_CHECK(r != nullptr);
      const std::int32_t slot = alloc_slot();
      ctx_.scalar_slot[r->symbol] = slot;
      ctx_.meta->result_slot = slot;
    }

    // Locals: scalars get slots; arrays get array slots (constant or
    // automatic extents). Automatic extents are compiled in the prologue.
    std::vector<std::pair<std::int32_t, const DeclEntity*>> automatics;
    for (const auto& d : proc.decls) {
      if (d.is_parameter) continue;
      const Symbol& sym = rp_.symbols.get(d.symbol);
      if (ctx_.scalar_slot.contains(d.symbol) || ctx_.array_slot.contains(d.symbol)) {
        continue;  // dummy or result already placed
      }
      if (!sym.is_array()) {
        ctx_.scalar_slot[d.symbol] = alloc_slot();
        continue;
      }
      ArraySlotMeta ameta;
      ameta.kind = sym.type.is_real() ? sym.type.kind : 8;
      ameta.rank = sym.rank();
      ameta.name = sym.qualified();
      bool automatic = false;
      for (int r = 0; r < sym.rank(); ++r) {
        const std::int64_t e = sym.extents[static_cast<std::size_t>(r)];
        if (e == -2) automatic = true;
        ameta.extents[r] = e;
      }
      ameta.binding = automatic ? ArrayBinding::kAutomatic : ArrayBinding::kLocal;
      const auto aslot = static_cast<std::int32_t>(ctx_.meta->arrays.size());
      ctx_.array_slot[d.symbol] = aslot;
      ctx_.meta->arrays.push_back(ameta);
      if (automatic) automatics.emplace_back(aslot, &d);
    }

    ctx_.temp_base = ctx_.next_slot;
    ctx_.temp_next = ctx_.temp_base;

    // Prologue: evaluate automatic extents and allocate.
    for (const auto& [aslot, decl] : automatics) {
      for (std::size_t r = 0; r < decl->dims.size(); ++r) {
        if (decl->dims[r].resolved != -2) continue;
        auto extent = compile_expr(*decl->dims[r].extent);
        if (!extent.is_ok()) return extent.status();
        // Persist the extent beyond the statement's temp region.
        const std::int32_t keep = persist_slot();
        emit({.op = Op::kMov, .dst = keep, .a = extent->slot, .cost = 0.0});
        ctx_.meta->arrays[static_cast<std::size_t>(aslot)].extent_slots[r] =
            keep;
        reset_temps();
      }
      Instr alloc;
      alloc.op = Op::kAllocArray;
      alloc.aux = aslot;
      alloc.cost = machine_.call_overhead * 0.2;  // allocation bookkeeping
      emit(alloc);
    }

    for (const auto& s : proc.body) {
      if (Status st = compile_stmt(*s); !st.is_ok()) return st;
    }
    emit({.op = Op::kRet, .cost = 0.0});
    ctx_.meta->num_slots = ctx_.max_slots;
    // Slot→name debug metadata for the shadow-execution blame reports: real
    // declared scalars keep their qualified names; temps stay anonymous.
    ctx_.meta->slot_names.assign(static_cast<std::size_t>(ctx_.max_slots),
                                 std::string());
    for (const auto& [symbol, slot] : ctx_.scalar_slot) {
      const Symbol& sym = rp_.symbols.get(symbol);
      if (sym.type.is_real()) {
        ctx_.meta->slot_names[static_cast<std::size_t>(slot)] = sym.qualified();
      }
    }
    return Status::ok();
  }

  // ---- expressions ------------------------------------------------------------

  StatusOr<Operand> compile_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        const std::int32_t t = alloc_temp();
        emit({.op = Op::kLoadConst, .dst = t, .imm = static_cast<double>(e.int_value)});
        return Operand{t, VKind::kInt};
      }
      case ExprKind::kRealLit: {
        const std::int32_t t = alloc_temp();
        double v = e.real_value;
        if (e.real_kind != 8) v = prec::quantize_kind(e.real_kind, v);
        emit({.op = Op::kLoadConst, .dst = t, .imm = v});
        Operand o{t, e.real_kind == 4 ? VKind::kF32 : VKind::kF64};
        if (prec::is_custom_kind(e.real_kind)) {
          o.kind = VKind::kFmt;
          o.fmt = static_cast<std::uint16_t>(e.real_kind);
        }
        return o;
      }
      case ExprKind::kLogicalLit: {
        const std::int32_t t = alloc_temp();
        emit({.op = Op::kLoadConst, .dst = t, .imm = e.logical_value ? 1.0 : 0.0});
        return Operand{t, VKind::kBool};
      }
      case ExprKind::kVarRef: return compile_var_ref(e);
      case ExprKind::kIndex: return compile_index_load(e);
      case ExprKind::kCall: return compile_call_expr(e);
      case ExprKind::kUnary: return compile_unary(e);
      case ExprKind::kBinary: return compile_binary(e);
    }
    return compile_err("unknown expression kind");
  }

  StatusOr<Operand> compile_var_ref(const Expr& e) {
    const Symbol& sym = rp_.symbols.get(e.symbol);
    if (sym.kind == SymbolKind::kParameterConst) {
      const std::int32_t t = alloc_temp();
      emit({.op = Op::kLoadConst, .dst = t, .imm = sym.const_value->as_real()});
      if (!sym.type.is_real()) return typed_operand(t, sym.type);
      // A real parameter converts like a binary64 literal: ensure_kind folds
      // it, unless it overflows its kind; then it is the same trapping
      // run-time cast as `x = 1.0d40`.
      return ensure_type(Operand{t, VKind::kF64}, sym.type);
    }
    if (sym.is_array()) {
      return compile_err("whole-array reference in scalar expression position");
    }
    const auto local = ctx_.scalar_slot.find(e.symbol);
    if (local != ctx_.scalar_slot.end()) {
      return typed_operand(local->second, sym.type);
    }
    const auto global = global_scalar_of_symbol_.find(e.symbol);
    if (global == global_scalar_of_symbol_.end()) {
      return compile_err("no storage for symbol " + sym.qualified());
    }
    const std::int32_t t = alloc_temp();
    emit({.op = Op::kLoadGlobal,
          .dst = t,
          .aux = global->second,
          .cost = machine_.scalar_access_cost * factor()});
    return typed_operand(t, sym.type);
  }

  /// Frame array slot for an array symbol, creating a kGlobal binding on
  /// first reference.
  StatusOr<std::int32_t> array_slot_for(SymbolId symbol) {
    const auto it = ctx_.array_slot.find(symbol);
    if (it != ctx_.array_slot.end()) return it->second;
    const Symbol& sym = rp_.symbols.get(symbol);
    const auto g = global_array_of_symbol_.find(symbol);
    if (g == global_array_of_symbol_.end()) {
      return compile_err("no array storage for " + sym.qualified());
    }
    ArraySlotMeta ameta;
    ameta.binding = ArrayBinding::kGlobal;
    ameta.kind = sym.type.is_real() ? sym.type.kind : 8;
    ameta.rank = sym.rank();
    for (int r = 0; r < sym.rank(); ++r) {
      ameta.extents[r] = sym.extents[static_cast<std::size_t>(r)];
    }
    ameta.global_index = g->second;
    ameta.name = sym.qualified();
    const auto slot = static_cast<std::int32_t>(ctx_.meta->arrays.size());
    ctx_.array_slot[symbol] = slot;
    ctx_.meta->arrays.push_back(ameta);
    return slot;
  }

  /// Compiles subscripts into int temps; returns up to three slots.
  StatusOr<std::array<std::int32_t, 3>> compile_subscripts(const Expr& e) {
    std::array<std::int32_t, 3> idx = {-1, -1, -1};
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      auto v = compile_expr(*e.args[i]);
      if (!v.is_ok()) return v.status();
      idx[i] = v->slot;
    }
    return idx;
  }

  StatusOr<Operand> compile_index_load(const Expr& e) {
    const Symbol& sym = rp_.symbols.get(e.symbol);
    auto aslot = array_slot_for(e.symbol);
    if (!aslot.is_ok()) return aslot.status();
    auto idx = compile_subscripts(e);
    if (!idx.is_ok()) return idx.status();
    const std::int32_t t = alloc_temp();
    const int kind = sym.type.is_real() ? sym.type.kind : 8;
    emit({.op = Op::kLoadElem,
          .dst = t,
          .a = (*idx)[0],
          .b = (*idx)[1],
          .c = (*idx)[2],
          .aux = aslot.value(),
          .cost = elem_cost(kind)});
    return typed_operand(t, sym.type);
  }

  /// Converts `src` to the requested kind, emitting a cast when needed.
  /// `want_fmt` carries the encoded format when `want == VKind::kFmt`.
  Operand ensure_kind(Operand src, VKind want, std::uint16_t want_fmt = 8) {
    if (src.kind == want && (want != VKind::kFmt || src.fmt == want_fmt)) {
      return src;
    }
    // int -> f64 is free in the double-slot representation.
    if (src.kind == VKind::kInt && want == VKind::kF64) {
      return Operand{src.slot, VKind::kF64};
    }
    // Constant folding: converting a just-loaded constant costs nothing at
    // runtime (any real compiler folds literal conversions). Constants that
    // overflow the narrow type are NOT folded — the runtime cast must trap,
    // as -ffpe-trap would.
    if (!out_.code.empty()) {
      Instr& last = out_.code.back();
      if (last.op == Op::kLoadConst && last.dst == src.slot && want != VKind::kBool) {
        if (want == VKind::kF32) {
          const auto narrowed = static_cast<float>(last.imm);
          if (std::isfinite(last.imm) && !std::isfinite(narrowed)) {
            // fall through to the runtime cast below
          } else {
            last.imm = static_cast<double>(narrowed);
            return Operand{src.slot, want};
          }
        } else if (want == VKind::kFmt) {
          bool ovf = false;
          const double q =
              prec::Quantizer(prec::decode_kind(want_fmt)).round(last.imm, ovf);
          if (!ovf) {
            last.imm = q;
            return Operand{src.slot, want, want_fmt};
          }
          // overflow: fall through to the runtime cast below
        } else if (want == VKind::kInt) {
          last.imm = std::trunc(last.imm);
          return Operand{src.slot, want};
        } else {
          return Operand{src.slot, want};
        }
      }
    }
    if (src.kind == VKind::kBool || want == VKind::kBool) {
      Operand o{src.slot, want};
      if (want == VKind::kFmt) o.fmt = want_fmt;  // logicals are 0/1 doubles
      return o;
    }
    const std::int32_t t = alloc_temp();
    if (want == VKind::kF32) {
      emit({.op = Op::kCastF32, .dst = t, .a = src.slot, .cost = cast_cost()});
      return Operand{t, VKind::kF32};
    }
    if (want == VKind::kF64) {
      emit({.op = Op::kCastF64, .dst = t, .a = src.slot, .cost = cast_cost()});
      return Operand{t, VKind::kF64};
    }
    if (want == VKind::kFmt) {
      Instr instr{.op = Op::kCastFmt, .dst = t, .a = src.slot,
                  .cost = fmt_cast_cost(want_fmt)};
      instr.kind = want_fmt;
      emit(instr);
      return Operand{t, VKind::kFmt, want_fmt};
    }
    // want int
    emit({.op = Op::kCastInt, .dst = t, .a = src.slot, .aux2 = 0, .cost = cast_cost()});
    return Operand{t, VKind::kInt};
  }

  /// ensure_kind keyed by a Fortran type (carries custom-format kinds).
  Operand ensure_type(Operand src, const ScalarType& t) {
    const VKind want = vkind_of(t);
    return ensure_kind(src, want,
                       want == VKind::kFmt ? static_cast<std::uint16_t>(t.kind)
                                           : static_cast<std::uint16_t>(8));
  }

  StatusOr<Operand> compile_unary(const Expr& e) {
    auto v = compile_expr(*e.lhs);
    if (!v.is_ok()) return v;
    if (e.unary_op == UnaryOp::kPlus) return v;
    const std::int32_t t = alloc_temp();
    if (e.unary_op == UnaryOp::kNot) {
      emit({.op = Op::kNot, .dst = t, .a = v->slot, .cost = alu(machine_.cost_logical)});
      return Operand{t, VKind::kBool};
    }
    switch (v->kind) {
      case VKind::kF32:
        emit({.op = Op::kNegF32, .dst = t, .a = v->slot, .cost = alu(machine_.cost_add)});
        break;
      case VKind::kF64:
        emit({.op = Op::kNegF64, .dst = t, .a = v->slot, .cost = alu(machine_.cost_add)});
        break;
      case VKind::kFmt: {
        Instr instr{.op = Op::kNegFmt, .dst = t, .a = v->slot,
                    .cost = alu(machine_.cost_add)};
        instr.kind = v->fmt;
        emit(instr);
        break;
      }
      default:
        emit({.op = Op::kNegI, .dst = t, .a = v->slot, .cost = alu(machine_.cost_int_op)});
        break;
    }
    return Operand{t, v->kind, v->fmt};
  }

  StatusOr<Operand> compile_binary(const Expr& e) {
    auto lhs = compile_expr(*e.lhs);
    if (!lhs.is_ok()) return lhs;
    auto rhs = compile_expr(*e.rhs);
    if (!rhs.is_ok()) return rhs;

    if (ftn::is_logical(e.binary_op)) {
      const std::int32_t t = alloc_temp();
      Op op = Op::kAnd;
      switch (e.binary_op) {
        case BinaryOp::kAnd: op = Op::kAnd; break;
        case BinaryOp::kOr: op = Op::kOr; break;
        case BinaryOp::kEqv: op = Op::kEqv; break;
        case BinaryOp::kNeqv: op = Op::kNeqv; break;
        default: break;
      }
      emit({.op = op, .dst = t, .a = lhs->slot, .b = rhs->slot,
            .cost = alu(machine_.cost_logical)});
      return Operand{t, VKind::kBool};
    }

    // Promote to the common kind: containment join over the format lattice
    // (reduces to F64 > F32 > Int on the hardware-only lattice).
    VKind common = VKind::kInt;
    std::uint16_t common_fmt = 8;
    if (is_real_vk(lhs->kind) && is_real_vk(rhs->kind)) {
      const int pk = prec::promote_kind(fkind(*lhs), fkind(*rhs));
      common = pk == 4 ? VKind::kF32
                       : (prec::is_custom_kind(pk) ? VKind::kFmt : VKind::kF64);
      if (common == VKind::kFmt) common_fmt = static_cast<std::uint16_t>(pk);
    } else if (is_real_vk(lhs->kind)) {
      common = lhs->kind;
      common_fmt = lhs->fmt;
    } else if (is_real_vk(rhs->kind)) {
      common = rhs->kind;
      common_fmt = rhs->fmt;
    }
    const Operand a = ensure_kind(*lhs, common, common_fmt);
    const Operand b = ensure_kind(*rhs, common, common_fmt);

    if (ftn::is_comparison(e.binary_op)) {
      const std::int32_t t = alloc_temp();
      Op op = Op::kCmpEq;
      switch (e.binary_op) {
        case BinaryOp::kEq: op = Op::kCmpEq; break;
        case BinaryOp::kNe: op = Op::kCmpNe; break;
        case BinaryOp::kLt: op = Op::kCmpLt; break;
        case BinaryOp::kLe: op = Op::kCmpLe; break;
        case BinaryOp::kGt: op = Op::kCmpGt; break;
        case BinaryOp::kGe: op = Op::kCmpGe; break;
        default: break;
      }
      emit({.op = op, .dst = t, .a = a.slot, .b = b.slot, .cost = alu(machine_.cost_cmp)});
      return Operand{t, VKind::kBool};
    }

    const std::int32_t t = alloc_temp();
    struct OpCost {
      Op op;
      double cost;
    };
    const auto pick = [&](Op f32, Op f64, Op fmt, Op i, double base_f,
                          double base_i) -> OpCost {
      switch (common) {
        case VKind::kF32: return {f32, alu(base_f)};
        case VKind::kF64: return {f64, alu(base_f)};
        case VKind::kFmt: return {fmt, alu(base_f)};
        default: return {i, alu(base_i)};
      }
    };
    OpCost oc{Op::kAddF64, 1.0};
    switch (e.binary_op) {
      case BinaryOp::kAdd:
        oc = pick(Op::kAddF32, Op::kAddF64, Op::kAddFmt, Op::kAddI,
                  machine_.cost_add, machine_.cost_int_op);
        break;
      case BinaryOp::kSub:
        oc = pick(Op::kSubF32, Op::kSubF64, Op::kSubFmt, Op::kSubI,
                  machine_.cost_add, machine_.cost_int_op);
        break;
      case BinaryOp::kMul:
        oc = pick(Op::kMulF32, Op::kMulF64, Op::kMulFmt, Op::kMulI,
                  machine_.cost_mul, machine_.cost_int_op);
        break;
      case BinaryOp::kDiv:
        oc = pick(Op::kDivF32, Op::kDivF64, Op::kDivFmt, Op::kDivI,
                  machine_.cost_div, machine_.cost_int_op * 8);
        if (common == VKind::kF32) oc.cost = math_cost(machine_.cost_div, common);
        break;
      case BinaryOp::kPow:
        oc = pick(Op::kPowF32, Op::kPowF64, Op::kPowFmt, Op::kPowI,
                  machine_.cost_pow, machine_.cost_pow);
        if (common == VKind::kF32) oc.cost = math_cost(machine_.cost_pow, common);
        break;
      default:
        return compile_err("unexpected binary operator");
    }
    Instr instr{.op = oc.op, .dst = t, .a = a.slot, .b = b.slot, .cost = oc.cost};
    if (common == VKind::kFmt) instr.kind = common_fmt;
    emit(instr);
    return Operand{t, common, common_fmt};
  }

  StatusOr<Operand> compile_call_expr(const Expr& e) {
    if (e.symbol != ftn::kInvalidSymbol) {
      return compile_user_call(e.symbol, e.args, /*want_result=*/true);
    }
    return compile_intrinsic(e);
  }

  StatusOr<Operand> compile_intrinsic(const Expr& e) {
    const auto intr = ftn::find_intrinsic(e.name);
    PROSE_CHECK(intr.has_value());
    switch (*intr) {
      case Intrinsic::kSum:
      case Intrinsic::kMinval:
      case Intrinsic::kMaxval: {
        auto aslot = array_slot_for(e.args[0]->symbol);
        if (!aslot.is_ok()) return aslot.status();
        const std::int32_t t = alloc_temp();
        const int red = *intr == Intrinsic::kSum ? 0 : (*intr == Intrinsic::kMinval ? 1 : 2);
        // Cost computed at runtime (elements known then); cost field holds
        // the per-element rate encoded by kind — the VM multiplies.
        Instr instr{.op = Op::kReduce, .dst = t, .aux = aslot.value(), .aux2 = red};
        instr.kind = static_cast<std::uint16_t>(e.type.kind);
        emit(instr);
        return typed_operand(t, e.type);
      }
      case Intrinsic::kSize: {
        auto aslot = array_slot_for(e.args[0]->symbol);
        if (!aslot.is_ok()) return aslot.status();
        const std::int32_t t = alloc_temp();
        const int dim = e.args.size() == 2 ? static_cast<int>(e.args[1]->int_value) : 0;
        emit({.op = Op::kArraySize, .dst = t, .aux = aslot.value(), .aux2 = dim,
              .cost = machine_.cost_int_op});
        return Operand{t, VKind::kInt};
      }
      case Intrinsic::kReal: {
        auto v = compile_expr(*e.args[0]);
        if (!v.is_ok()) return v;
        return ensure_type(*v, e.type);
      }
      case Intrinsic::kDble: {
        auto v = compile_expr(*e.args[0]);
        if (!v.is_ok()) return v;
        return ensure_kind(*v, VKind::kF64);
      }
      case Intrinsic::kInt:
      case Intrinsic::kFloor:
      case Intrinsic::kNint: {
        auto v = compile_expr(*e.args[0]);
        if (!v.is_ok()) return v;
        const std::int32_t t = alloc_temp();
        const int mode = *intr == Intrinsic::kInt ? 0 : (*intr == Intrinsic::kFloor ? 1 : 2);
        emit({.op = Op::kCastInt, .dst = t, .a = v->slot, .aux2 = mode, .cost = cast_cost()});
        return Operand{t, VKind::kInt};
      }
      case Intrinsic::kEpsilon:
      case Intrinsic::kHuge:
      case Intrinsic::kTiny: {
        const std::int32_t t = alloc_temp();
        const bool f32 = e.type.kind == 4;
        double v = 0.0;
        if (prec::is_custom_kind(e.type.kind)) {
          const prec::FormatSpec spec = prec::decode_kind(e.type.kind);
          if (*intr == Intrinsic::kEpsilon) {
            v = spec.epsilon();
          } else if (*intr == Intrinsic::kHuge) {
            v = spec.max_finite();
          } else {
            v = spec.min_normal();
          }
        } else if (*intr == Intrinsic::kEpsilon) {
          v = f32 ? static_cast<double>(std::numeric_limits<float>::epsilon())
                  : std::numeric_limits<double>::epsilon();
        } else if (*intr == Intrinsic::kHuge) {
          v = f32 ? static_cast<double>(std::numeric_limits<float>::max())
                  : std::numeric_limits<double>::max();
        } else {
          v = f32 ? static_cast<double>(std::numeric_limits<float>::min())
                  : std::numeric_limits<double>::min();
        }
        emit({.op = Op::kLoadConst, .dst = t, .imm = v});
        return typed_operand(t, e.type);
      }
      case Intrinsic::kMpiAllreduceSum:
      case Intrinsic::kMpiAllreduceMax:
      case Intrinsic::kMpiAllreduceMin: {
        auto v = compile_expr(*e.args[0]);
        if (!v.is_ok()) return v;
        const std::int32_t t = alloc_temp();
        const double bytes = machine_.bytes_for_kind(fkind(*v));
        const double cost =
            machine_.allreduce_alpha * std::log2(std::max(2, machine_.mpi_ranks)) +
            machine_.allreduce_beta * bytes;
        emit({.op = Op::kAllReduce, .dst = t, .a = v->slot, .cost = cost});
        return Operand{t, v->kind, v->fmt};
      }
      case Intrinsic::kMin:
      case Intrinsic::kMax: {
        // Chained two-operand folds over the promoted kind.
        VKind common = VKind::kInt;
        std::uint16_t common_fmt = 8;
        std::vector<Operand> vals;
        for (const auto& a : e.args) {
          auto v = compile_expr(*a);
          if (!v.is_ok()) return v;
          if (is_real_vk(v->kind)) {
            if (common == VKind::kInt) {
              common = v->kind;
              common_fmt = v->fmt;
            } else {
              const int pk =
                  prec::promote_kind(common == VKind::kF32
                                         ? 4
                                         : (common == VKind::kFmt ? common_fmt : 8),
                                     fkind(*v));
              common = pk == 4 ? VKind::kF32
                               : (prec::is_custom_kind(pk) ? VKind::kFmt
                                                           : VKind::kF64);
              common_fmt = common == VKind::kFmt ? static_cast<std::uint16_t>(pk)
                                                 : static_cast<std::uint16_t>(8);
            }
          }
          vals.push_back(*v);
        }
        Operand acc = ensure_kind(vals[0], common, common_fmt);
        for (std::size_t i = 1; i < vals.size(); ++i) {
          const Operand b = ensure_kind(vals[i], common, common_fmt);
          const std::int32_t t = alloc_temp();
          Instr instr{.op = Op::kIntrin2, .dst = t, .a = acc.slot, .b = b.slot,
                      .aux = static_cast<std::int32_t>(*intr),
                      .cost = alu(machine_.cost_intrin_cheap)};
          instr.kind = static_cast<std::uint16_t>(
              common == VKind::kF32 ? 4
                                    : (common == VKind::kFmt ? common_fmt : 8));
          emit(instr);
          acc = Operand{t, common, common_fmt};
        }
        return acc;
      }
      case Intrinsic::kMod:
      case Intrinsic::kSign:
      case Intrinsic::kAtan2: {
        auto a = compile_expr(*e.args[0]);
        if (!a.is_ok()) return a;
        auto b = compile_expr(*e.args[1]);
        if (!b.is_ok()) return b;
        const Operand x = ensure_type(*a, e.type);
        const Operand y = ensure_type(*b, e.type);
        const std::int32_t t = alloc_temp();
        const double base = *intr == Intrinsic::kAtan2 ? machine_.cost_intrin_trans
                                                       : machine_.cost_intrin_cheap;
        Instr instr{.op = Op::kIntrin2, .dst = t, .a = x.slot, .b = y.slot,
                    .aux = static_cast<std::int32_t>(*intr), .cost = alu(base)};
        instr.kind = static_cast<std::uint16_t>(e.type.is_real() ? e.type.kind : 8);
        emit(instr);
        return Operand{t, x.kind, x.fmt};
      }
      default: {
        // Single-argument elementals.
        auto a = compile_expr(*e.args[0]);
        if (!a.is_ok()) return a;
        const VKind common = vkind_of(e.type);
        const Operand x =
            common == VKind::kInt ? *a : ensure_type(*a, e.type);
        const std::int32_t t = alloc_temp();
        double base = machine_.cost_intrin_trans;
        if (*intr == Intrinsic::kAbs) base = machine_.cost_intrin_cheap;
        if (*intr == Intrinsic::kSqrt) base = machine_.cost_intrin_sqrt;
        const double cost = *intr == Intrinsic::kAbs ? alu(base) : math_cost(base, x.kind);
        Instr instr{.op = Op::kIntrin1, .dst = t, .a = x.slot,
                    .aux = static_cast<std::int32_t>(*intr), .cost = cost};
        instr.kind = static_cast<std::uint16_t>(fkind(x));
        emit(instr);
        return Operand{t, x.kind, x.fmt};
      }
    }
  }

  /// Shared call machinery for call statements and function-call expressions.
  StatusOr<Operand> compile_user_call(SymbolId callee_sym,
                                      const std::vector<ExprPtr>& args,
                                      bool want_result) {
    const Symbol& callee = rp_.symbols.get(callee_sym);
    const std::int32_t callee_index = proc_index_of_symbol_.at(callee_sym);
    const ProcMeta& callee_meta = out_.procs[static_cast<std::size_t>(callee_index)];

    CallSiteMeta site;
    site.callee = callee_index;

    int scalar_args = 0;
    int array_args = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const Expr& actual = *args[i];
      const Symbol& dummy = rp_.symbols.get(callee.params[i]);
      if (dummy.is_array()) {
        if (actual.kind != ExprKind::kVarRef || actual.symbol == ftn::kInvalidSymbol) {
          return compile_err("array dummy requires a whole-array actual for '" +
                             callee.name + "'");
        }
        const Symbol& asym = rp_.symbols.get(actual.symbol);
        if (asym.type.is_real() && dummy.type.is_real() &&
            asym.type.kind != dummy.type.kind) {
          return compile_err("kind mismatch at array argument of '" + callee.name +
                             "' — wrapper pass not applied?");
        }
        auto aslot = array_slot_for(actual.symbol);
        if (!aslot.is_ok()) return aslot.status();
        site.array_args.push_back(ArrayArgMeta{.caller_array_slot = aslot.value()});
        ++array_args;
        continue;
      }

      ScalarArgMeta arg;
      arg.dummy_kind = dummy.type.is_real() ? dummy.type.kind : 8;

      // Designators with writable intent need persisted writeback targets.
      const bool writable = dummy.intent != ftn::Intent::kIn;
      if (actual.kind == ExprKind::kVarRef && actual.symbol != ftn::kInvalidSymbol &&
          rp_.symbols.get(actual.symbol).kind != SymbolKind::kParameterConst) {
        auto v = compile_var_ref(actual);
        if (!v.is_ok()) return v.status();
        if (dummy.type.is_real() && actual.type.is_real() &&
            actual.type.kind != dummy.type.kind) {
          return compile_err("kind mismatch at argument " + std::to_string(i + 1) +
                             " of '" + callee.name + "' — wrapper pass not applied?");
        }
        // Persist the value in a durable temp.
        const std::int32_t hold = alloc_temp();
        emit({.op = Op::kMov, .dst = hold, .a = v->slot, .cost = 0.0});
        arg.value_slot = hold;
        if (writable) {
          const auto local = ctx_.scalar_slot.find(actual.symbol);
          if (local != ctx_.scalar_slot.end()) {
            arg.writeback = WritebackKind::kSlot;
            arg.wb_slot = local->second;
          } else {
            arg.writeback = WritebackKind::kGlobal;
            arg.wb_slot = global_scalar_of_symbol_.at(actual.symbol);
          }
        }
      } else if (actual.kind == ExprKind::kIndex && actual.symbol != ftn::kInvalidSymbol &&
                 rp_.symbols.get(actual.symbol).is_array()) {
        const Symbol& asym = rp_.symbols.get(actual.symbol);
        if (dummy.type.is_real() && asym.type.is_real() &&
            asym.type.kind != dummy.type.kind) {
          return compile_err("kind mismatch at argument " + std::to_string(i + 1) +
                             " of '" + callee.name + "' — wrapper pass not applied?");
        }
        auto aslot = array_slot_for(actual.symbol);
        if (!aslot.is_ok()) return aslot.status();
        auto idx = compile_subscripts(actual);
        if (!idx.is_ok()) return idx.status();
        // Persist indices in durable temps for the writeback.
        std::array<std::int32_t, 3> held = {-1, -1, -1};
        for (int r = 0; r < 3; ++r) {
          if ((*idx)[r] < 0) continue;
          held[r] = alloc_temp();
          emit({.op = Op::kMov, .dst = held[r], .a = (*idx)[r], .cost = 0.0});
        }
        const std::int32_t value = alloc_temp();
        const int kind = asym.type.is_real() ? asym.type.kind : 8;
        emit({.op = Op::kLoadElem, .dst = value, .a = held[0], .b = held[1],
              .c = held[2], .aux = aslot.value(), .cost = elem_cost(kind)});
        arg.value_slot = value;
        if (writable) {
          arg.writeback = WritebackKind::kElement;
          arg.wb_array = aslot.value();
          for (int r = 0; r < 3; ++r) arg.wb_index[r] = held[r];
        }
      } else {
        // Expression or literal actual: evaluated into a read-only temporary.
        auto v = compile_expr(actual);
        if (!v.is_ok()) return v.status();
        if (dummy.type.is_real() && actual.type.is_real() &&
            actual.type.kind != dummy.type.kind) {
          return compile_err("kind mismatch at expression argument " +
                             std::to_string(i + 1) + " of '" + callee.name +
                             "' — wrapper pass not applied?");
        }
        const std::int32_t hold = alloc_temp();
        emit({.op = Op::kMov, .dst = hold, .a = v->slot, .cost = 0.0});
        arg.value_slot = hold;
      }
      site.scalar_args.push_back(arg);
      ++scalar_args;
    }

    // Inline decision and cost.
    double cost = 0.0;
    site.inlined = callee_meta.inlinable;
    if (site.inlined) {
      site.inline_scale = factor();
    } else {
      // Call overhead never amortizes under vectorization: a call in a loop
      // forces scalar iteration.
      cost = machine_.call_overhead + scalar_args * machine_.cost_arg +
             array_args * machine_.cost_array_arg;
    }

    std::int32_t result = -1;
    if (want_result) {
      PROSE_CHECK(callee.proc_kind == ftn::ProcKind::kFunction);
      result = alloc_temp();
      site.result_slot = result;
    }

    out_.call_sites.push_back(std::move(site));
    Instr call{.op = Op::kCall,
               .aux = callee_index,
               .aux2 = static_cast<std::int32_t>(out_.call_sites.size() - 1),
               .cost = cost};
    emit(call);

    if (want_result) {
      const Symbol& res = rp_.symbols.get(callee.result);
      return typed_operand(result, res.type);
    }
    return Operand{-1, VKind::kF64};
  }

  // ---- statements ----------------------------------------------------------

  Status compile_stmt(const Stmt& s) {
    reset_temps();
    switch (s.kind) {
      case StmtKind::kAssign: return compile_assign(s);
      case StmtKind::kIf: return compile_if(s);
      case StmtKind::kDo: return compile_do(s);
      case StmtKind::kDoWhile: return compile_do_while(s);
      case StmtKind::kCall: {
        auto r = compile_user_call(s.callee_symbol, s.args, /*want_result=*/false);
        return r.is_ok() ? Status::ok() : r.status();
      }
      case StmtKind::kExit: {
        if (ctx_.loop_stack.empty()) return compile_err("exit outside loop");
        const std::int32_t j = emit({.op = Op::kJmp, .cost = machine_.cost_branch * factor()});
        ctx_.loop_stack.back().breaks.push_back(j);
        return Status::ok();
      }
      case StmtKind::kCycle: {
        if (ctx_.loop_stack.empty()) return compile_err("cycle outside loop");
        const std::int32_t j = emit({.op = Op::kJmp, .cost = machine_.cost_branch * factor()});
        ctx_.loop_stack.back().cycles.push_back(j);
        return Status::ok();
      }
      case StmtKind::kReturn:
        emit({.op = Op::kRet, .cost = 0.0});
        return Status::ok();
      case StmtKind::kPrint: {
        PrintMeta meta;
        meta.text = s.print_text;
        for (const auto& a : s.print_args) {
          auto v = compile_expr(*a);
          if (!v.is_ok()) return v.status();
          const std::int32_t hold = alloc_temp();
          emit({.op = Op::kMov, .dst = hold, .a = v->slot, .cost = 0.0});
          meta.arg_slots.push_back(hold);
        }
        out_.prints.push_back(std::move(meta));
        emit({.op = Op::kPrint,
              .aux2 = static_cast<std::int32_t>(out_.prints.size() - 1),
              .cost = 1.0});
        return Status::ok();
      }
    }
    return compile_err("unknown statement kind");
  }

  Status compile_assign(const Stmt& s) {
    const Expr& lhs = *s.lhs;
    const Symbol& lsym = rp_.symbols.get(lhs.symbol);

    if (lhs.kind == ExprKind::kIndex) {
      auto aslot = array_slot_for(lhs.symbol);
      if (!aslot.is_ok()) return aslot.status();
      auto idx = compile_subscripts(lhs);
      if (!idx.is_ok()) return idx.status();
      auto v = compile_expr(*s.rhs);
      if (!v.is_ok()) return v.status();
      const Operand cast = ensure_type(*v, lsym.type);
      const int kind = lsym.type.is_real() ? lsym.type.kind : 8;
      emit({.op = Op::kStoreElem, .dst = cast.slot, .a = (*idx)[0], .b = (*idx)[1],
            .c = (*idx)[2], .aux = aslot.value(), .cost = elem_cost(kind)});
      return Status::ok();
    }
    if (lhs.is_array_value) {
      auto aslot = array_slot_for(lhs.symbol);
      if (!aslot.is_ok()) return aslot.status();
      if (s.rhs->is_array_value) {
        auto src = array_slot_for(s.rhs->symbol);
        if (!src.is_ok()) return src.status();
        emit({.op = Op::kArrayCopy, .aux = aslot.value(), .aux2 = src.value()});
        return Status::ok();
      }
      auto v = compile_expr(*s.rhs);
      if (!v.is_ok()) return v.status();
      const Operand cast = ensure_type(*v, lsym.type);
      emit({.op = Op::kArrayFill, .a = cast.slot, .aux = aslot.value()});
      return Status::ok();
    }

    // Scalar.
    auto v = compile_expr(*s.rhs);
    if (!v.is_ok()) return v.status();
    const Operand cast = ensure_type(*v, lsym.type);
    const auto local = ctx_.scalar_slot.find(lhs.symbol);
    if (local != ctx_.scalar_slot.end()) {
      emit({.op = Op::kMov, .dst = local->second, .a = cast.slot,
            .cost = machine_.scalar_access_cost * factor()});
      return Status::ok();
    }
    const auto global = global_scalar_of_symbol_.find(lhs.symbol);
    if (global == global_scalar_of_symbol_.end()) {
      return compile_err("no storage for assignment target " + lsym.qualified());
    }
    emit({.op = Op::kStoreGlobal, .a = cast.slot, .aux = global->second,
          .cost = machine_.scalar_access_cost * factor()});
    return Status::ok();
  }

  Status compile_if(const Stmt& s) {
    std::vector<std::int32_t> end_jumps;
    for (std::size_t i = 0; i < s.branches.size(); ++i) {
      const auto& branch = s.branches[i];
      std::int32_t skip = -1;
      if (branch.cond != nullptr) {
        reset_temps();
        auto cond = compile_expr(*branch.cond);
        if (!cond.is_ok()) return cond.status();
        skip = emit({.op = Op::kJmpIfFalse, .a = cond->slot,
                     .cost = machine_.cost_branch * factor()});
      }
      for (const auto& inner : branch.body) {
        if (Status st = compile_stmt(*inner); !st.is_ok()) return st;
      }
      const bool is_last = i + 1 == s.branches.size();
      if (!is_last) {
        end_jumps.push_back(emit({.op = Op::kJmp, .cost = 0.5 * factor()}));
      }
      if (skip >= 0) out_.code[static_cast<std::size_t>(skip)].aux =
          static_cast<std::int32_t>(out_.code.size());
    }
    for (const std::int32_t j : end_jumps) {
      out_.code[static_cast<std::size_t>(j)].aux = static_cast<std::int32_t>(out_.code.size());
    }
    return Status::ok();
  }

  Status compile_do(const Stmt& s) {
    // Loop metadata from the vectorization report.
    LoopMeta lmeta;
    const auto it = out_.vec_report.loops.find(s.id);
    if (it != out_.vec_report.loops.end()) {
      lmeta.status = it->second.status;
      // Without inlining, any call (even to an inlinable function) blocks
      // vectorization — this is the ablation knob.
      lmeta.vectorized = it->second.status == VecStatus::kVectorized &&
                         (options_.enable_inlining || !it->second.has_calls);
      lmeta.lanes = lmeta.vectorized ? it->second.effective_lanes : 1;
    }
    out_.loops.push_back(lmeta);
    const auto loop_meta_index = static_cast<std::int32_t>(out_.loops.size() - 1);

    const auto i_it = ctx_.scalar_slot.find(s.do_symbol);
    if (i_it == ctx_.scalar_slot.end()) {
      return compile_err("loop variable '" + s.do_var +
                         "' must be declared in the procedure, not at module scope");
    }
    const std::int32_t i_slot = i_it->second;
    reset_temps();
    auto lo = compile_expr(*s.lo);
    if (!lo.is_ok()) return lo.status();
    emit({.op = Op::kMov, .dst = i_slot, .a = lo->slot, .cost = machine_.cost_int_op});
    // Hoist hi/step into durable temps.
    auto hi = compile_expr(*s.hi);
    if (!hi.is_ok()) return hi.status();
    const std::int32_t hi_slot = persist_slot();
    emit({.op = Op::kMov, .dst = hi_slot, .a = hi->slot, .cost = 0.0});
    const std::int32_t step_slot = persist_slot();
    if (s.step != nullptr) {
      auto step = compile_expr(*s.step);
      if (!step.is_ok()) return step.status();
      emit({.op = Op::kMov, .dst = step_slot, .a = step->slot, .cost = 0.0});
    } else {
      emit({.op = Op::kLoadConst, .dst = step_slot, .imm = 1.0});
    }

    emit({.op = Op::kLoopBegin, .aux = loop_meta_index,
          .cost = lmeta.vectorized ? machine_.vector_loop_overhead : 0.0});

    const double body_factor =
        lmeta.vectorized ? 1.0 / static_cast<double>(lmeta.lanes) : 1.0;
    ctx_.vec_factor_stack.push_back(ctx_.vec_factor_stack.back() * body_factor);
    ctx_.loop_stack.emplace_back();

    const auto head = static_cast<std::int32_t>(out_.code.size());
    reset_temps();
    const std::int32_t cond = alloc_temp();
    emit({.op = Op::kLoopCond, .dst = cond, .a = i_slot, .b = hi_slot, .c = step_slot,
          .cost = machine_.cost_loop_iter * factor()});
    const std::int32_t exit_jump = emit({.op = Op::kJmpIfFalse, .a = cond, .cost = 0.0});

    for (const auto& inner : s.body) {
      if (Status st = compile_stmt(*inner); !st.is_ok()) return st;
    }

    const auto incr = static_cast<std::int32_t>(out_.code.size());
    emit({.op = Op::kAddI, .dst = i_slot, .a = i_slot, .b = step_slot,
          .cost = machine_.cost_int_op * factor()});
    emit({.op = Op::kJmp, .aux = head, .cost = 0.0});

    const auto end = static_cast<std::int32_t>(out_.code.size());
    out_.code[static_cast<std::size_t>(exit_jump)].aux = end;
    for (const std::int32_t j : ctx_.loop_stack.back().breaks) {
      out_.code[static_cast<std::size_t>(j)].aux = end;
    }
    for (const std::int32_t j : ctx_.loop_stack.back().cycles) {
      out_.code[static_cast<std::size_t>(j)].aux = incr;
    }
    ctx_.loop_stack.pop_back();
    ctx_.vec_factor_stack.pop_back();
    emit({.op = Op::kLoopEnd, .cost = 0.0});
    return Status::ok();
  }

  Status compile_do_while(const Stmt& s) {
    LoopMeta lmeta;  // never vectorized
    out_.loops.push_back(lmeta);
    emit({.op = Op::kLoopBegin, .aux = static_cast<std::int32_t>(out_.loops.size() - 1),
          .cost = 0.0});
    ctx_.loop_stack.emplace_back();
    const auto head = static_cast<std::int32_t>(out_.code.size());
    reset_temps();
    auto cond = compile_expr(*s.cond);
    if (!cond.is_ok()) return cond.status();
    const std::int32_t exit_jump =
        emit({.op = Op::kJmpIfFalse, .a = cond->slot, .cost = machine_.cost_loop_iter});
    for (const auto& inner : s.body) {
      if (Status st = compile_stmt(*inner); !st.is_ok()) return st;
    }
    emit({.op = Op::kJmp, .aux = head, .cost = 0.0});
    const auto end = static_cast<std::int32_t>(out_.code.size());
    out_.code[static_cast<std::size_t>(exit_jump)].aux = end;
    for (const std::int32_t j : ctx_.loop_stack.back().breaks) {
      out_.code[static_cast<std::size_t>(j)].aux = end;
    }
    for (const std::int32_t j : ctx_.loop_stack.back().cycles) {
      out_.code[static_cast<std::size_t>(j)].aux = head;
    }
    ctx_.loop_stack.pop_back();
    emit({.op = Op::kLoopEnd, .cost = 0.0});
    return Status::ok();
  }

  const ResolvedProgram& rp_;
  const MachineModel& machine_;
  const CompileOptions& options_;
  CompiledProgram out_;
  std::map<SymbolId, std::int32_t> proc_index_of_symbol_;
  std::map<SymbolId, std::int32_t> global_scalar_of_symbol_;
  std::map<SymbolId, std::int32_t> global_array_of_symbol_;
  ProcCtx ctx_;
};

}  // namespace

StatusOr<CompiledProgram> compile(const ftn::ResolvedProgram& rp,
                                  const MachineModel& machine,
                                  const CompileOptions& options) {
  return Compiler(rp, machine, options).run();
}

}  // namespace prose::sim
