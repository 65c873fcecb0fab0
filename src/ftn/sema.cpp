#include "ftn/sema.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "ftn/parser.h"
#include "prec/format.h"

namespace prose::ftn {
namespace {

class Resolver {
 public:
  explicit Resolver(Program program) : prog_(std::move(program)) {}

  StatusOr<ResolvedProgram> run() {
    // Pass 1: module scopes — module variables/parameters and procedure
    // signatures (so forward calls within and across modules resolve).
    for (auto& mod : prog_.modules) {
      if (module_scopes_.contains(mod.name)) {
        return err(mod.loc, "duplicate module '" + mod.name + "'");
      }
      Scope scope;
      // Imports first so local declarations are checked against them.
      for (const auto& use : mod.uses) {
        if (Status s = import_module(use, scope); !s.is_ok()) return s;
      }
      for (auto& decl : mod.decls) {
        if (Status s = declare_data(mod.name, /*proc=*/"", SymbolKind::kModuleVar,
                                    decl, scope);
            !s.is_ok()) {
          return s;
        }
      }
      // Register all procedure symbols before processing any declarations so
      // procedures can call siblings defined later in the module.
      for (auto& proc : mod.procedures) {
        if (Status s = register_procedure(mod, proc, scope); !s.is_ok()) return s;
      }
      for (auto& proc : mod.procedures) {
        if (Status s = declare_procedure_decls(mod, proc, scope); !s.is_ok()) return s;
      }
      module_scopes_.emplace(mod.name, std::move(scope));
    }
    // Pass 2: procedure bodies.
    for (auto& mod : prog_.modules) {
      for (auto& proc : mod.procedures) {
        if (Status s = resolve_procedure(mod, proc); !s.is_ok()) return s;
      }
    }
    return ResolvedProgram{std::move(prog_), std::move(symbols_)};
  }

 private:
  struct Scope {
    std::map<std::string, SymbolId> names;

    [[nodiscard]] std::optional<SymbolId> find(const std::string& name) const {
      const auto it = names.find(name);
      if (it == names.end()) return std::nullopt;
      return it->second;
    }
  };

  static Status err(SourceLoc loc, std::string message) {
    return Status(StatusCode::kSemanticError, std::move(message), loc);
  }

  Status import_module(const UseStmt& use, Scope& into) {
    const auto it = module_scopes_.find(use.module_name);
    if (it == module_scopes_.end()) {
      return err(use.loc, "use of unknown (or not-yet-defined) module '" +
                              use.module_name + "'");
    }
    const Scope& exporter = it->second;
    if (use.only.empty()) {
      for (const auto& [name, id] : exporter.names) {
        // Re-exported imports propagate, matching Fortran's default access.
        into.names.emplace(name, id);
      }
      return Status::ok();
    }
    for (const auto& name : use.only) {
      const auto sym = exporter.find(name);
      if (!sym.has_value()) {
        return err(use.loc, "'" + name + "' is not exported by module '" +
                                use.module_name + "'");
      }
      into.names.emplace(name, *sym);
    }
    return Status::ok();
  }

  /// Folds a constant expression (parameter initializers, dim extents).
  StatusOr<ConstValue> fold_const(const Expr& e, const Scope& scope) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return ConstValue{.is_real = false, .int_value = e.int_value};
      case ExprKind::kRealLit: {
        ConstValue v;
        v.is_real = true;
        v.real_value = e.real_kind == 8
                           ? e.real_value
                           : prec::quantize_kind(e.real_kind, e.real_value);
        return v;
      }
      case ExprKind::kVarRef: {
        const auto sym = scope.find(e.name);
        if (!sym.has_value()) {
          return err(e.loc, "unknown name '" + e.name + "' in constant expression");
        }
        const Symbol& s = symbols_.get(*sym);
        if (!s.const_value.has_value()) {
          return err(e.loc, "'" + e.name + "' is not a constant parameter");
        }
        return *s.const_value;
      }
      case ExprKind::kUnary: {
        auto v = fold_const(*e.lhs, scope);
        if (!v.is_ok()) return v.status();
        ConstValue out = v.value();
        if (e.unary_op == UnaryOp::kNeg) {
          out.int_value = -out.int_value;
          out.real_value = -out.real_value;
        } else if (e.unary_op == UnaryOp::kNot) {
          return err(e.loc, "logical constants are not supported here");
        }
        return out;
      }
      case ExprKind::kBinary: {
        auto a = fold_const(*e.lhs, scope);
        if (!a.is_ok()) return a.status();
        auto b = fold_const(*e.rhs, scope);
        if (!b.is_ok()) return b.status();
        const ConstValue& x = a.value();
        const ConstValue& y = b.value();
        ConstValue out;
        out.is_real = x.is_real || y.is_real;
        if (out.is_real) {
          const double u = x.as_real();
          const double w = y.as_real();
          switch (e.binary_op) {
            case BinaryOp::kAdd: out.real_value = u + w; break;
            case BinaryOp::kSub: out.real_value = u - w; break;
            case BinaryOp::kMul: out.real_value = u * w; break;
            case BinaryOp::kDiv: out.real_value = u / w; break;
            case BinaryOp::kPow: out.real_value = std::pow(u, w); break;
            default:
              return err(e.loc, "operator not allowed in constant expression");
          }
        } else {
          const std::int64_t u = x.int_value;
          const std::int64_t w = y.int_value;
          switch (e.binary_op) {
            case BinaryOp::kAdd: out.int_value = u + w; break;
            case BinaryOp::kSub: out.int_value = u - w; break;
            case BinaryOp::kMul: out.int_value = u * w; break;
            case BinaryOp::kDiv:
              if (w == 0) return err(e.loc, "division by zero in constant");
              out.int_value = u / w;
              break;
            case BinaryOp::kPow: {
              std::int64_t r = 1;
              for (std::int64_t i = 0; i < w; ++i) r *= u;
              out.int_value = r;
              break;
            }
            default:
              return err(e.loc, "operator not allowed in constant expression");
          }
        }
        return out;
      }
      case ExprKind::kIndex:
      case ExprKind::kCall: {
        // Allow min/max in constant context (used for workload sizing).
        const auto intr = find_intrinsic(e.name);
        if (intr == Intrinsic::kMin || intr == Intrinsic::kMax) {
          if (e.args.size() < 2) return err(e.loc, "min/max need two arguments");
          auto acc = fold_const(*e.args[0], scope);
          if (!acc.is_ok()) return acc.status();
          ConstValue out = acc.value();
          for (std::size_t i = 1; i < e.args.size(); ++i) {
            auto v = fold_const(*e.args[i], scope);
            if (!v.is_ok()) return v.status();
            const bool take_new = intr == Intrinsic::kMax
                                      ? v->as_real() > out.as_real()
                                      : v->as_real() < out.as_real();
            if (take_new) out = v.value();
          }
          return out;
        }
        return err(e.loc, "call not allowed in constant expression");
      }
      default:
        return err(e.loc, "expression not allowed in constant context");
    }
  }

  Status declare_data(const std::string& module_name, const std::string& proc_name,
                      SymbolKind kind, DeclEntity& decl, Scope& scope) {
    // Redeclaration of a local over an import is shadowing (allowed);
    // duplicate at the same level is an error if it maps to same qualified name.
    Symbol sym;
    sym.name = decl.name;
    sym.module_name = module_name;
    sym.proc_name = proc_name;
    sym.kind = decl.is_parameter ? SymbolKind::kParameterConst : kind;
    sym.type = decl.type;
    sym.intent = decl.intent;
    sym.decl_node = decl.id;

    if (const auto existing = symbols_.find_qualified(sym.qualified());
        existing.has_value()) {
      return err(decl.loc, "duplicate declaration of '" + decl.name + "'");
    }

    for (auto& dim : decl.dims) {
      if (dim.assumed()) {
        if (kind != SymbolKind::kDummyArg) {
          return err(decl.loc,
                     "assumed-shape array '" + decl.name + "' must be a dummy argument");
        }
        sym.extents.push_back(-1);
        dim.resolved = -1;
        continue;
      }
      auto v = fold_const(*dim.extent, scope);
      if (v.is_ok()) {
        if (v->is_real || v->int_value <= 0) {
          return err(decl.loc, "array extent of '" + decl.name +
                                   "' must be a positive integer constant");
        }
        sym.extents.push_back(v->int_value);
        dim.resolved = v->int_value;
        continue;
      }
      // Automatic array: a procedure-local array whose extent is a runtime
      // integer expression (e.g. `size(a)` inside a generated wrapper). The
      // extent expression is resolved now and evaluated at procedure entry.
      if (kind != SymbolKind::kLocalVar && kind != SymbolKind::kResultVar) {
        return v.status();
      }
      if (Status s = resolve_expr(*dim.extent, scope); !s.is_ok()) return s;
      if (dim.extent->type.base != BaseType::kInteger) {
        return err(decl.loc,
                   "automatic extent of '" + decl.name + "' must be an integer");
      }
      sym.extents.push_back(-2);
      dim.resolved = -2;
    }

    if (decl.is_parameter) {
      if (decl.is_array()) {
        return err(decl.loc, "array parameters are not supported");
      }
      auto v = fold_const(*decl.init, scope);
      if (!v.is_ok()) return v.status();
      ConstValue cv = v.value();
      if (decl.type.base == BaseType::kInteger && cv.is_real) {
        return err(decl.loc, "real initializer for integer parameter '" + decl.name + "'");
      }
      if (decl.type.is_real()) {
        cv.is_real = true;
        cv.real_value = cv.as_real();
        // A value that overflows the kind stays unrounded, so sim::compile
        // can turn each use into the trapping run-time cast a literal gets.
        const double rounded = prec::quantize_kind(decl.type.kind, cv.real_value);
        if (std::isfinite(rounded) || !std::isfinite(cv.real_value)) {
          cv.real_value = rounded;
        }
      }
      sym.const_value = cv;
    }

    const SymbolId id = symbols_.add(std::move(sym));
    decl.symbol = id;
    scope.names[decl.name] = id;  // locals shadow imports
    return Status::ok();
  }

  Status register_procedure(Module& mod, Procedure& proc, Scope& module_scope) {
    if (symbols_.find_qualified(mod.name + "::" + proc.name).has_value()) {
      return err(proc.loc, "duplicate name '" + proc.name + "' in module '" +
                               mod.name + "'");
    }
    Symbol proc_sym;
    proc_sym.name = proc.name;
    proc_sym.module_name = mod.name;
    proc_sym.kind = SymbolKind::kProcedure;
    proc_sym.proc_kind = proc.kind;
    proc_sym.decl_node = proc.id;
    proc_sym.generated = proc.generated;
    const SymbolId proc_id = symbols_.add(std::move(proc_sym));
    proc.symbol = proc_id;
    module_scope.names[proc.name] = proc_id;
    return Status::ok();
  }

  Status declare_procedure_decls(Module& mod, Procedure& proc, Scope& module_scope) {
    // Build the procedure's local scope for its *declarations* so that dummy
    // types and extents can reference module parameters.
    Scope local = module_scope;  // copy: locals shadow
    const SymbolId proc_id = proc.symbol;

    // Declare all entities in declaration order.
    for (auto& decl : proc.decls) {
      SymbolKind kind = SymbolKind::kLocalVar;
      const bool is_param =
          std::find(proc.param_names.begin(), proc.param_names.end(), decl.name) !=
          proc.param_names.end();
      if (is_param) {
        kind = SymbolKind::kDummyArg;
      } else if (proc.kind == ProcKind::kFunction && decl.name == proc.result_name) {
        kind = SymbolKind::kResultVar;
      }
      if (Status s = declare_data(mod.name, proc.name, kind, decl, local); !s.is_ok()) {
        return s;
      }
    }

    // Wire up the signature.
    Symbol& ps = symbols_.get(proc_id);
    for (const auto& pname : proc.param_names) {
      const DeclEntity* d = proc.find_decl(pname);
      if (d == nullptr || d->symbol == kInvalidSymbol) {
        return err(proc.loc,
                   "dummy argument '" + pname + "' of '" + proc.name + "' is not declared");
      }
      ps.params.push_back(d->symbol);
    }
    if (proc.kind == ProcKind::kFunction) {
      const DeclEntity* r = proc.find_decl(proc.result_name);
      if (r == nullptr || r->symbol == kInvalidSymbol) {
        return err(proc.loc, "result '" + proc.result_name + "' of function '" +
                                 proc.name + "' is not declared");
      }
      if (symbols_.get(r->symbol).is_array()) {
        return err(proc.loc, "array-valued functions are not supported");
      }
      ps.result = r->symbol;
    }
    proc_scopes_[mod.name + "::" + proc.name] = std::move(local);
    return Status::ok();
  }

  Status resolve_procedure(Module& mod, Procedure& proc) {
    Scope& scope = proc_scopes_.at(mod.name + "::" + proc.name);
    for (auto& stmt : proc.body) {
      if (Status s = resolve_stmt(*stmt, scope, /*loop_depth=*/0); !s.is_ok()) return s;
    }
    return Status::ok();
  }

  Status resolve_stmt(Stmt& stmt, Scope& scope, int loop_depth) {
    switch (stmt.kind) {
      case StmtKind::kAssign: return resolve_assign(stmt, scope);
      case StmtKind::kIf: {
        for (auto& branch : stmt.branches) {
          if (branch.cond != nullptr) {
            if (Status s = resolve_expr(*branch.cond, scope); !s.is_ok()) return s;
            if (branch.cond->type.base != BaseType::kLogical) {
              return err(branch.cond->loc, "if condition must be logical");
            }
          }
          for (auto& s2 : branch.body) {
            if (Status s = resolve_stmt(*s2, scope, loop_depth); !s.is_ok()) return s;
          }
        }
        return Status::ok();
      }
      case StmtKind::kDo: {
        const auto sym = scope.find(stmt.do_var);
        if (!sym.has_value()) {
          return err(stmt.loc, "undeclared loop variable '" + stmt.do_var + "'");
        }
        const Symbol& s = symbols_.get(*sym);
        if (!s.is_variable() || s.type.base != BaseType::kInteger || s.is_array()) {
          return err(stmt.loc, "loop variable '" + stmt.do_var + "' must be an integer scalar");
        }
        stmt.do_symbol = *sym;
        for (ExprPtr* bound : {&stmt.lo, &stmt.hi, &stmt.step}) {
          if (*bound == nullptr) continue;
          if (Status st = resolve_expr(**bound, scope); !st.is_ok()) return st;
          if ((*bound)->type.base != BaseType::kInteger) {
            return err((*bound)->loc, "loop bounds must be integers");
          }
        }
        for (auto& s2 : stmt.body) {
          if (Status st = resolve_stmt(*s2, scope, loop_depth + 1); !st.is_ok()) return st;
        }
        return Status::ok();
      }
      case StmtKind::kDoWhile: {
        if (Status s = resolve_expr(*stmt.cond, scope); !s.is_ok()) return s;
        if (stmt.cond->type.base != BaseType::kLogical) {
          return err(stmt.cond->loc, "do-while condition must be logical");
        }
        for (auto& s2 : stmt.body) {
          if (Status st = resolve_stmt(*s2, scope, loop_depth + 1); !st.is_ok()) return st;
        }
        return Status::ok();
      }
      case StmtKind::kCall: return resolve_call_stmt(stmt, scope);
      case StmtKind::kExit:
      case StmtKind::kCycle:
        if (loop_depth == 0) {
          return err(stmt.loc, "exit/cycle outside of a loop");
        }
        return Status::ok();
      case StmtKind::kReturn:
        return Status::ok();
      case StmtKind::kPrint:
        for (auto& a : stmt.print_args) {
          if (Status s = resolve_expr(*a, scope); !s.is_ok()) return s;
        }
        return Status::ok();
    }
    return err(stmt.loc, "internal: unknown statement kind");
  }

  Status resolve_assign(Stmt& stmt, Scope& scope) {
    // LHS: variable or array element; whole-array LHS allowed for broadcast /
    // copy assignment.
    Expr& lhs = *stmt.lhs;
    const auto sym = scope.find(lhs.name);
    if (!sym.has_value()) {
      return err(lhs.loc, "assignment to undeclared name '" + lhs.name + "'");
    }
    const Symbol& s = symbols_.get(*sym);
    if (!s.is_variable()) {
      return err(lhs.loc, "cannot assign to '" + lhs.name + "'");
    }
    if (s.kind == SymbolKind::kParameterConst) {
      return err(lhs.loc, "cannot assign to parameter '" + lhs.name + "'");
    }
    lhs.symbol = *sym;
    lhs.type = s.type;

    if (lhs.kind == ExprKind::kIndex) {
      if (!s.is_array()) {
        return err(lhs.loc, "'" + lhs.name + "' is not an array");
      }
      if (static_cast<int>(lhs.args.size()) != s.rank()) {
        return err(lhs.loc, "wrong number of subscripts for '" + lhs.name + "'");
      }
      for (auto& idx : lhs.args) {
        if (Status st = resolve_expr(*idx, scope); !st.is_ok()) return st;
        if (idx->type.base != BaseType::kInteger) {
          return err(idx->loc, "subscripts must be integers");
        }
      }
    } else if (s.is_array()) {
      lhs.is_array_value = true;  // whole-array assignment
    }

    if (Status st = resolve_expr(*stmt.rhs, scope); !st.is_ok()) return st;

    const Expr& rhs = *stmt.rhs;
    if (lhs.is_array_value) {
      // Broadcast (scalar rhs) or copy (array rhs of identical shape).
      if (rhs.is_array_value) {
        const Symbol& rs = symbols_.get(rhs.symbol);
        if (rs.rank() != s.rank()) {
          return err(rhs.loc, "array shape mismatch in whole-array assignment");
        }
        for (int d = 0; d < s.rank(); ++d) {
          if (s.extents[static_cast<std::size_t>(d)] > 0 &&
              rs.extents[static_cast<std::size_t>(d)] > 0 &&
              s.extents[static_cast<std::size_t>(d)] !=
                  rs.extents[static_cast<std::size_t>(d)]) {
            return err(rhs.loc, "array extent mismatch in whole-array assignment");
          }
        }
      }
      if (rhs.type.base == BaseType::kLogical || s.type.base == BaseType::kLogical) {
        if (rhs.type.base != s.type.base) {
          return err(rhs.loc, "type mismatch in array assignment");
        }
      }
      return Status::ok();
    }
    // Scalar assignment: implicit conversion between numeric types is the
    // Fortran assignment rule (the only implicit conversion in the language).
    if ((lhs.type.base == BaseType::kLogical) != (rhs.type.base == BaseType::kLogical)) {
      return err(rhs.loc, "cannot assign between logical and numeric");
    }
    if (rhs.is_array_value) {
      return err(rhs.loc, "cannot assign whole array to scalar");
    }
    return Status::ok();
  }

  Status resolve_call_stmt(Stmt& stmt, Scope& scope) {
    const auto sym = scope.find(stmt.callee);
    if (!sym.has_value()) {
      return err(stmt.loc, "call to unknown procedure '" + stmt.callee + "'");
    }
    const Symbol& s = symbols_.get(*sym);
    if (s.kind != SymbolKind::kProcedure || s.proc_kind != ProcKind::kSubroutine) {
      return err(stmt.loc, "'" + stmt.callee + "' is not a subroutine");
    }
    stmt.callee_symbol = *sym;
    return check_call_args(stmt.loc, s, stmt.args, scope);
  }

  Status check_call_args(SourceLoc loc, const Symbol& proc, std::vector<ExprPtr>& args,
                         Scope& scope) {
    if (args.size() != proc.params.size()) {
      return err(loc, "wrong number of arguments for '" + proc.name + "' (expected " +
                          std::to_string(proc.params.size()) + ", got " +
                          std::to_string(args.size()) + ")");
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
      Expr& a = *args[i];
      if (Status s = resolve_expr(a, scope); !s.is_ok()) return s;
      const Symbol& dummy = symbols_.get(proc.params[i]);
      const int actual_rank = a.is_array_value
                                  ? symbols_.get(a.symbol).rank()
                                  : 0;
      if (actual_rank != dummy.rank()) {
        return err(a.loc, "rank mismatch for argument " + std::to_string(i + 1) +
                              " of '" + proc.name + "'");
      }
      if ((a.type.base == BaseType::kLogical) != (dummy.type.base == BaseType::kLogical)) {
        return err(a.loc, "type mismatch for argument " + std::to_string(i + 1) +
                              " of '" + proc.name + "'");
      }
      // Integer actual to real dummy (and vice versa) is rejected; real-kind
      // mismatches are left for the wrapper generator.
      if (a.type.base == BaseType::kInteger && dummy.type.is_real()) {
        return err(a.loc, "integer actual for real dummy argument " +
                              std::to_string(i + 1) + " of '" + proc.name + "'");
      }
      if (a.type.is_real() && dummy.type.base == BaseType::kInteger) {
        return err(a.loc, "real actual for integer dummy argument " +
                              std::to_string(i + 1) + " of '" + proc.name + "'");
      }
      // Writable dummies need writable actuals (variable designators).
      if (dummy.intent == Intent::kOut || dummy.intent == Intent::kInOut) {
        const bool designator =
            (a.kind == ExprKind::kVarRef || a.kind == ExprKind::kIndex) &&
            a.symbol != kInvalidSymbol &&
            symbols_.get(a.symbol).kind != SymbolKind::kParameterConst;
        if (!designator) {
          return err(a.loc, "argument " + std::to_string(i + 1) + " of '" + proc.name +
                                "' must be a variable (intent out/inout)");
        }
      }
    }
    return Status::ok();
  }

  Status resolve_expr(Expr& e, Scope& scope) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        e.type = {BaseType::kInteger, 4};
        return Status::ok();
      case ExprKind::kRealLit:
        e.type = {BaseType::kReal, e.real_kind};
        return Status::ok();
      case ExprKind::kLogicalLit:
        e.type = {BaseType::kLogical, 4};
        return Status::ok();
      case ExprKind::kVarRef: {
        const auto sym = scope.find(e.name);
        if (!sym.has_value()) {
          return err(e.loc, "unknown name '" + e.name + "'");
        }
        const Symbol& s = symbols_.get(*sym);
        if (s.kind == SymbolKind::kProcedure) {
          return err(e.loc, "procedure '" + e.name + "' used as a value");
        }
        e.symbol = *sym;
        e.type = s.type;
        e.is_array_value = s.is_array();
        return Status::ok();
      }
      case ExprKind::kIndex:
      case ExprKind::kCall:
        return resolve_index_or_call(e, scope);
      case ExprKind::kUnary: {
        if (Status s = resolve_expr(*e.lhs, scope); !s.is_ok()) return s;
        if (e.lhs->is_array_value) {
          return err(e.loc, "whole arrays are not allowed in expressions");
        }
        if (e.unary_op == UnaryOp::kNot) {
          if (e.lhs->type.base != BaseType::kLogical) {
            return err(e.loc, ".not. requires a logical operand");
          }
        } else if (e.lhs->type.base == BaseType::kLogical) {
          return err(e.loc, "numeric unary operator on logical operand");
        }
        e.type = e.lhs->type;
        return Status::ok();
      }
      case ExprKind::kBinary: {
        if (Status s = resolve_expr(*e.lhs, scope); !s.is_ok()) return s;
        if (Status s = resolve_expr(*e.rhs, scope); !s.is_ok()) return s;
        if (e.lhs->is_array_value || e.rhs->is_array_value) {
          return err(e.loc, "whole arrays are not allowed in expressions");
        }
        const ScalarType& a = e.lhs->type;
        const ScalarType& b = e.rhs->type;
        if (is_logical(e.binary_op)) {
          if (a.base != BaseType::kLogical || b.base != BaseType::kLogical) {
            return err(e.loc, "logical operator on non-logical operands");
          }
          e.type = {BaseType::kLogical, 4};
          return Status::ok();
        }
        if (a.base == BaseType::kLogical || b.base == BaseType::kLogical) {
          return err(e.loc, "numeric operator on logical operand");
        }
        if (is_comparison(e.binary_op)) {
          e.type = {BaseType::kLogical, 4};
          return Status::ok();
        }
        e.type = promote(a, b);
        return Status::ok();
      }
    }
    return err(e.loc, "internal: unknown expression kind");
  }

  /// Fortran numeric promotion, generalized to the parameterized-format
  /// lattice: two reals join via format containment (real(8) > real(4) on
  /// the hardware-only lattice); a real beats an integer.
  static ScalarType promote(const ScalarType& a, const ScalarType& b) {
    if (a.is_real() && b.is_real()) {
      return {BaseType::kReal, prec::promote_kind(a.kind, b.kind)};
    }
    if (a.is_real()) return {BaseType::kReal, a.kind};
    if (b.is_real()) return {BaseType::kReal, b.kind};
    return {BaseType::kInteger, 4};
  }

  Status resolve_index_or_call(Expr& e, Scope& scope) {
    // Precedence: visible variable (array indexing) > procedure > intrinsic.
    const auto sym = scope.find(e.name);
    if (sym.has_value() && symbols_.get(*sym).is_variable()) {
      const Symbol& s = symbols_.get(*sym);
      if (!s.is_array()) {
        return err(e.loc, "'" + e.name + "' is a scalar and cannot be subscripted");
      }
      if (static_cast<int>(e.args.size()) != s.rank()) {
        return err(e.loc, "wrong number of subscripts for '" + e.name + "'");
      }
      e.kind = ExprKind::kIndex;
      e.symbol = *sym;
      e.type = s.type;
      for (auto& idx : e.args) {
        if (Status st = resolve_expr(*idx, scope); !st.is_ok()) return st;
        if (idx->type.base != BaseType::kInteger) {
          return err(idx->loc, "subscripts must be integers");
        }
      }
      return Status::ok();
    }
    if (sym.has_value() && symbols_.get(*sym).kind == SymbolKind::kProcedure) {
      const Symbol& s = symbols_.get(*sym);
      if (s.proc_kind != ProcKind::kFunction) {
        return err(e.loc, "subroutine '" + e.name + "' called as a function");
      }
      e.kind = ExprKind::kCall;
      e.symbol = *sym;
      e.type = symbols_.get(s.result).type;
      return check_call_args(e.loc, s, e.args, scope);
    }
    const auto intr = find_intrinsic(e.name);
    if (intr.has_value()) {
      e.kind = ExprKind::kCall;
      e.symbol = kInvalidSymbol;  // intrinsic: identified by name
      return resolve_intrinsic(e, *intr, scope);
    }
    return err(e.loc, "unknown function or array '" + e.name + "'");
  }

  Status resolve_intrinsic(Expr& e, Intrinsic intr, Scope& scope) {
    for (auto& a : e.args) {
      if (Status s = resolve_expr(*a, scope); !s.is_ok()) return s;
    }
    const auto nargs = e.args.size();
    const auto arg_type = [&](std::size_t i) { return e.args[i]->type; };
    const auto require_args = [&](std::size_t lo, std::size_t hi) -> Status {
      if (nargs < lo || nargs > hi) {
        return err(e.loc, std::string("wrong number of arguments for '") +
                              intrinsic_name(intr) + "'");
      }
      return Status::ok();
    };
    const auto require_scalar_numeric = [&](std::size_t i) -> Status {
      if (e.args[i]->is_array_value || arg_type(i).base == BaseType::kLogical) {
        return err(e.args[i]->loc, "argument must be a numeric scalar");
      }
      return Status::ok();
    };

    switch (intr) {
      case Intrinsic::kSum:
      case Intrinsic::kMinval:
      case Intrinsic::kMaxval: {
        if (Status s = require_args(1, 1); !s.is_ok()) return s;
        if (!e.args[0]->is_array_value) {
          return err(e.args[0]->loc,
                     std::string(intrinsic_name(intr)) + " requires a whole-array argument");
        }
        e.type = arg_type(0);
        return Status::ok();
      }
      case Intrinsic::kReal: {
        if (Status s = require_args(1, 2); !s.is_ok()) return s;
        if (Status s = require_scalar_numeric(0); !s.is_ok()) return s;
        int kind = 4;
        if (nargs == 2) {
          if (e.args[1]->kind != ExprKind::kIntLit ||
              (e.args[1]->int_value != 4 && e.args[1]->int_value != 8)) {
            return err(e.args[1]->loc, "kind argument of real() must be literal 4 or 8");
          }
          kind = static_cast<int>(e.args[1]->int_value);
        }
        e.type = {BaseType::kReal, kind};
        return Status::ok();
      }
      case Intrinsic::kDble: {
        if (Status s = require_args(1, 1); !s.is_ok()) return s;
        if (Status s = require_scalar_numeric(0); !s.is_ok()) return s;
        e.type = {BaseType::kReal, 8};
        return Status::ok();
      }
      case Intrinsic::kInt:
      case Intrinsic::kFloor:
      case Intrinsic::kNint: {
        if (Status s = require_args(1, 1); !s.is_ok()) return s;
        if (Status s = require_scalar_numeric(0); !s.is_ok()) return s;
        e.type = {BaseType::kInteger, 4};
        return Status::ok();
      }
      case Intrinsic::kEpsilon:
      case Intrinsic::kHuge:
      case Intrinsic::kTiny: {
        if (Status s = require_args(1, 1); !s.is_ok()) return s;
        if (!arg_type(0).is_real()) {
          return err(e.loc, "epsilon/huge/tiny require a real argument");
        }
        e.type = arg_type(0);
        return Status::ok();
      }
      case Intrinsic::kMin:
      case Intrinsic::kMax: {
        if (Status s = require_args(2, 8); !s.is_ok()) return s;
        ScalarType t = arg_type(0);
        for (std::size_t i = 0; i < nargs; ++i) {
          if (Status s = require_scalar_numeric(i); !s.is_ok()) return s;
          t = promote(t, arg_type(i));
        }
        e.type = t;
        return Status::ok();
      }
      case Intrinsic::kMod:
      case Intrinsic::kSign:
      case Intrinsic::kAtan2: {
        if (Status s = require_args(2, 2); !s.is_ok()) return s;
        if (Status s = require_scalar_numeric(0); !s.is_ok()) return s;
        if (Status s = require_scalar_numeric(1); !s.is_ok()) return s;
        e.type = promote(arg_type(0), arg_type(1));
        return Status::ok();
      }
      case Intrinsic::kSize: {
        if (Status s = require_args(1, 2); !s.is_ok()) return s;
        if (!e.args[0]->is_array_value) {
          return err(e.args[0]->loc, "size() requires a whole-array argument");
        }
        if (nargs == 2) {
          const Symbol& arr = symbols_.get(e.args[0]->symbol);
          if (e.args[1]->kind != ExprKind::kIntLit || e.args[1]->int_value < 1 ||
              e.args[1]->int_value > arr.rank()) {
            return err(e.args[1]->loc, "dim argument of size() must be a literal in 1..rank");
          }
        }
        e.type = {BaseType::kInteger, 4};
        return Status::ok();
      }
      case Intrinsic::kMpiAllreduceSum:
      case Intrinsic::kMpiAllreduceMax:
      case Intrinsic::kMpiAllreduceMin: {
        if (Status s = require_args(1, 1); !s.is_ok()) return s;
        if (Status s = require_scalar_numeric(0); !s.is_ok()) return s;
        e.type = arg_type(0);
        return Status::ok();
      }
      default: {
        // Elemental single-argument math.
        if (Status s = require_args(1, 1); !s.is_ok()) return s;
        if (Status s = require_scalar_numeric(0); !s.is_ok()) return s;
        // abs() keeps integer type; transcendentals force real.
        if (intr == Intrinsic::kAbs) {
          e.type = arg_type(0);
        } else {
          e.type = arg_type(0).is_real() ? arg_type(0) : ScalarType{BaseType::kReal, 4};
        }
        return Status::ok();
      }
    }
  }

  Program prog_;
  SymbolTable symbols_;
  std::map<std::string, Scope> module_scopes_;
  std::map<std::string, Scope> proc_scopes_;
};

}  // namespace

StatusOr<ResolvedProgram> resolve(Program program) {
  return Resolver(std::move(program)).run();
}

StatusOr<ResolvedProgram> parse_and_resolve(std::string_view source,
                                            std::string file_name) {
  auto prog = parse_source(source, std::move(file_name));
  if (!prog.is_ok()) return prog.status();
  return resolve(std::move(prog.value()));
}

}  // namespace prose::ftn
