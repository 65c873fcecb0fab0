#include "ftn/unparse.h"

#include <cstdio>
#include <sstream>

#include "support/strings.h"

namespace prose::ftn {
namespace {

std::string indent_str(int indent) { return std::string(static_cast<std::size_t>(indent) * 2, ' '); }

/// Renders a real literal preserving its kind (d-exponent for kind 8).
std::string real_lit_text(double value, int kind) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  std::string s = buf;
  const bool has_exp = s.find('e') != std::string::npos;
  const bool has_dot = s.find('.') != std::string::npos;
  if (!has_exp && !has_dot) s += ".0";
  if (kind == 8) {
    if (has_exp) {
      s = replace_all(std::move(s), "e", "d");
    } else {
      s += "d0";
    }
  } else if (!has_exp) {
    // kind 4 without exponent: plain decimal is already kind 4.
  }
  return s;
}

int precedence(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEqv:
    case BinaryOp::kNeqv: return 1;
    case BinaryOp::kOr: return 2;
    case BinaryOp::kAnd: return 3;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: return 5;
    case BinaryOp::kAdd:
    case BinaryOp::kSub: return 6;
    case BinaryOp::kMul:
    case BinaryOp::kDiv: return 7;
    case BinaryOp::kPow: return 9;
  }
  return 0;
}

std::string expr_text(const Expr& e, int parent_prec);

std::string args_text(const std::vector<ExprPtr>& args) {
  std::string out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out += ", ";
    out += expr_text(*args[i], 0);
  }
  return out;
}

std::string expr_text(const Expr& e, int parent_prec) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return std::to_string(e.int_value);
    case ExprKind::kRealLit:
      return real_lit_text(e.real_value, e.real_kind);
    case ExprKind::kLogicalLit:
      return e.logical_value ? ".true." : ".false.";
    case ExprKind::kVarRef:
      return e.name;
    case ExprKind::kIndex:
    case ExprKind::kCall:
      return e.name + "(" + args_text(e.args) + ")";
    case ExprKind::kUnary: {
      const std::string inner = expr_text(*e.lhs, 8);
      const std::string text = std::string(to_string(e.unary_op)) +
                               (e.unary_op == UnaryOp::kNot ? " " : "") + inner;
      // Unary minus binds looser than **; parenthesize under any binary parent.
      return parent_prec > 0 ? "(" + text + ")" : text;
    }
    case ExprKind::kBinary: {
      const int prec = precedence(e.binary_op);
      // Render left operand at this precedence, right operand one tighter
      // (left associativity); ** is right-associative.
      const bool right_assoc = e.binary_op == BinaryOp::kPow;
      const std::string lhs = expr_text(*e.lhs, right_assoc ? prec + 1 : prec);
      const std::string rhs = expr_text(*e.rhs, right_assoc ? prec : prec + 1);
      std::string text = lhs + " " + to_string(e.binary_op) + " " + rhs;
      if (prec < parent_prec) text = "(" + text + ")";
      return text;
    }
  }
  return "?";
}

void stmt_text(const Stmt& s, int indent, std::ostringstream& os);

void body_text(const std::vector<StmtPtr>& body, int indent, std::ostringstream& os) {
  for (const auto& s : body) stmt_text(*s, indent, os);
}

void stmt_text(const Stmt& s, int indent, std::ostringstream& os) {
  const std::string pad = indent_str(indent);
  switch (s.kind) {
    case StmtKind::kAssign:
      os << pad << expr_text(*s.lhs, 0) << " = " << expr_text(*s.rhs, 0) << '\n';
      return;
    case StmtKind::kIf: {
      for (std::size_t i = 0; i < s.branches.size(); ++i) {
        const IfBranch& b = s.branches[i];
        if (i == 0) {
          os << pad << "if (" << expr_text(*b.cond, 0) << ") then\n";
        } else if (b.cond != nullptr) {
          os << pad << "else if (" << expr_text(*b.cond, 0) << ") then\n";
        } else {
          os << pad << "else\n";
        }
        body_text(b.body, indent + 1, os);
      }
      os << pad << "end if\n";
      return;
    }
    case StmtKind::kDo: {
      os << pad << "do " << s.do_var << " = " << expr_text(*s.lo, 0) << ", "
         << expr_text(*s.hi, 0);
      if (s.step != nullptr) os << ", " << expr_text(*s.step, 0);
      os << '\n';
      body_text(s.body, indent + 1, os);
      os << pad << "end do\n";
      return;
    }
    case StmtKind::kDoWhile: {
      os << pad << "do while (" << expr_text(*s.cond, 0) << ")\n";
      body_text(s.body, indent + 1, os);
      os << pad << "end do\n";
      return;
    }
    case StmtKind::kCall:
      os << pad << "call " << s.callee << "(" << args_text(s.args) << ")\n";
      return;
    case StmtKind::kExit:
      os << pad << "exit\n";
      return;
    case StmtKind::kCycle:
      os << pad << "cycle\n";
      return;
    case StmtKind::kReturn:
      os << pad << "return\n";
      return;
    case StmtKind::kPrint: {
      os << pad << "print *";
      if (!s.print_text.empty()) os << ", '" << s.print_text << "'";
      for (const auto& a : s.print_args) os << ", " << expr_text(*a, 0);
      os << '\n';
      return;
    }
  }
}

}  // namespace

std::string unparse_expr(const Expr& expr) { return expr_text(expr, 0); }

std::string unparse_decl(const DeclEntity& d) {
  std::string out = to_string(d.type);
  if (d.is_parameter) out += ", parameter";
  switch (d.intent) {
    case Intent::kIn: out += ", intent(in)"; break;
    case Intent::kOut: out += ", intent(out)"; break;
    case Intent::kInOut: out += ", intent(inout)"; break;
    case Intent::kNone: break;
  }
  out += " :: ";
  out += d.name;
  if (d.is_array()) {
    out += "(";
    for (std::size_t i = 0; i < d.dims.size(); ++i) {
      if (i) out += ", ";
      if (d.dims[i].assumed()) {
        out += ":";
      } else {
        out += unparse_expr(*d.dims[i].extent);
      }
    }
    out += ")";
  }
  if (d.init != nullptr) {
    out += " = ";
    out += unparse_expr(*d.init);
  }
  return out;
}

std::string unparse(const Procedure& proc, int indent) {
  std::ostringstream os;
  const std::string pad = indent_str(indent);
  const char* keyword = proc.kind == ProcKind::kSubroutine ? "subroutine" : "function";
  os << pad << keyword << ' ' << proc.name << '(';
  for (std::size_t i = 0; i < proc.param_names.size(); ++i) {
    if (i) os << ", ";
    os << proc.param_names[i];
  }
  os << ')';
  if (proc.kind == ProcKind::kFunction && proc.result_name != proc.name) {
    os << " result(" << proc.result_name << ')';
  }
  os << '\n';
  for (const auto& d : proc.decls) {
    os << indent_str(indent + 1) << unparse_decl(d) << '\n';
  }
  body_text(proc.body, indent + 1, os);
  os << pad << "end " << keyword << ' ' << proc.name << '\n';
  return os.str();
}

std::string unparse(const Module& m) {
  std::ostringstream os;
  os << "module " << m.name << '\n';
  for (const auto& use : m.uses) {
    os << "  use " << use.module_name;
    if (!use.only.empty()) {
      os << ", only: ";
      for (std::size_t i = 0; i < use.only.size(); ++i) {
        if (i) os << ", ";
        os << use.only[i];
      }
    }
    os << '\n';
  }
  os << "  implicit none\n";
  for (const auto& d : m.decls) {
    os << "  " << unparse_decl(d) << '\n';
  }
  if (!m.procedures.empty()) {
    os << "contains\n";
    for (const auto& p : m.procedures) {
      os << '\n' << unparse(p, 1);
    }
  }
  os << "end module " << m.name << '\n';
  return os.str();
}

std::string unparse(const Program& program) {
  std::string out;
  for (const auto& m : program.modules) {
    if (!out.empty()) out += '\n';
    out += unparse(m);
  }
  return out;
}

std::string source_diff(const Program& before, const Program& after) {
  const std::vector<std::string> a = split(unparse(before), '\n');
  const std::vector<std::string> b = split(unparse(after), '\n');
  // Simple LCS-free diff: walk both sides, emitting changed lines. Adequate
  // for precision-tuning diffs, which only alter declarations and add
  // wrapper procedures at module tails.
  std::ostringstream os;
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (i < a.size() && j < b.size() && a[i] == b[j]) {
      ++i;
      ++j;
      continue;
    }
    // Look ahead for a resync point on the `after` side (insertions), then
    // on the `before` side (deletions).
    bool resynced = false;
    for (std::size_t look = 1; look <= 40 && !resynced; ++look) {
      if (j + look < b.size() && i < a.size() && a[i] == b[j + look]) {
        for (std::size_t k = 0; k < look; ++k) os << "+ " << b[j + k] << '\n';
        j += look;
        resynced = true;
      } else if (i + look < a.size() && j < b.size() && a[i + look] == b[j]) {
        for (std::size_t k = 0; k < look; ++k) os << "- " << a[i + k] << '\n';
        i += look;
        resynced = true;
      }
    }
    if (resynced) continue;
    if (i < a.size()) os << "- " << a[i++] << '\n';
    if (j < b.size()) os << "+ " << b[j++] << '\n';
  }
  return os.str();
}

}  // namespace prose::ftn
