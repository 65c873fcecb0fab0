#include "ftn/callgraph.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace prose::ftn {
namespace {

class Builder {
 public:
  Builder(const ResolvedProgram& rp, std::vector<CallSite>& sites)
      : rp_(rp), sites_(sites) {}

  void run() {
    for (const auto& mod : rp_.program.modules) {
      for (const auto& proc : mod.procedures) {
        caller_ = proc.symbol;
        for (const auto& s : proc.body) walk_stmt(*s, 0, 1.0);
      }
    }
  }

 private:
  void add_site(NodeId node, SymbolId callee, bool is_function, SourceLoc loc,
                int depth, double trips) {
    sites_.push_back(CallSite{.node = node,
                              .caller = caller_,
                              .callee = callee,
                              .is_function_call = is_function,
                              .loop_depth = depth,
                              .estimated_calls = trips,
                              .loc = loc});
  }

  /// Constant trip count of a do loop if its bounds folded at sema time;
  /// conservative default otherwise.
  double trip_estimate(const Stmt& s) const {
    if (s.kind == StmtKind::kDoWhile) return CallGraph::kDefaultTrip;
    const auto lit = [](const Expr* e) -> std::optional<std::int64_t> {
      if (e == nullptr) return std::nullopt;
      if (e->kind == ExprKind::kIntLit) return e->int_value;
      // `-5` parses as unary minus around a literal.
      if (e->kind == ExprKind::kUnary && e->unary_op == UnaryOp::kNeg &&
          e->lhs->kind == ExprKind::kIntLit) {
        return -e->lhs->int_value;
      }
      return std::nullopt;
    };
    const auto lo = lit(s.lo.get());
    const auto hi = lit(s.hi.get());
    const auto step = s.step == nullptr ? std::optional<std::int64_t>(1) : lit(s.step.get());
    if (lo && hi && step && *step != 0) {
      const double n = std::floor(static_cast<double>(*hi - *lo + *step) /
                                  static_cast<double>(*step));
      return std::max(0.0, n);
    }
    return CallGraph::kDefaultTrip;
  }

  void walk_expr(const Expr& e, int depth, double trips) {
    if (e.kind == ExprKind::kCall && e.symbol != kInvalidSymbol) {
      add_site(e.id, e.symbol, /*is_function=*/true, e.loc, depth, trips);
    }
    for (const auto& a : e.args) {
      if (a) walk_expr(*a, depth, trips);
    }
    if (e.lhs) walk_expr(*e.lhs, depth, trips);
    if (e.rhs) walk_expr(*e.rhs, depth, trips);
  }

  void walk_stmt(const Stmt& s, int depth, double trips) {
    switch (s.kind) {
      case StmtKind::kAssign:
        walk_expr(*s.lhs, depth, trips);
        walk_expr(*s.rhs, depth, trips);
        return;
      case StmtKind::kIf:
        for (const auto& b : s.branches) {
          if (b.cond) walk_expr(*b.cond, depth, trips);
          for (const auto& inner : b.body) walk_stmt(*inner, depth, trips);
        }
        return;
      case StmtKind::kDo:
      case StmtKind::kDoWhile: {
        const double t = trip_estimate(s);
        if (s.lo) walk_expr(*s.lo, depth, trips);
        if (s.hi) walk_expr(*s.hi, depth, trips);
        if (s.step) walk_expr(*s.step, depth, trips);
        if (s.cond) walk_expr(*s.cond, depth + 1, trips * t);
        for (const auto& inner : s.body) walk_stmt(*inner, depth + 1, trips * t);
        return;
      }
      case StmtKind::kCall:
        add_site(s.id, s.callee_symbol, /*is_function=*/false, s.loc, depth, trips);
        for (const auto& a : s.args) walk_expr(*a, depth, trips);
        return;
      case StmtKind::kPrint:
        for (const auto& a : s.print_args) walk_expr(*a, depth, trips);
        return;
      case StmtKind::kExit:
      case StmtKind::kCycle:
      case StmtKind::kReturn:
        return;
    }
  }

  const ResolvedProgram& rp_;
  std::vector<CallSite>& sites_;
  SymbolId caller_ = kInvalidSymbol;
};

}  // namespace

CallGraph CallGraph::build(const ResolvedProgram& rp) {
  CallGraph g;
  Builder(rp, g.sites_).run();
  for (std::size_t i = 0; i < g.sites_.size(); ++i) {
    g.by_caller_[g.sites_[i].caller].push_back(i);
  }
  return g;
}

std::vector<const CallSite*> CallGraph::sites_from(SymbolId caller) const {
  std::vector<const CallSite*> out;
  const auto it = by_caller_.find(caller);
  if (it == by_caller_.end()) return out;
  out.reserve(it->second.size());
  for (const auto i : it->second) out.push_back(&sites_[i]);
  return out;
}

std::vector<SymbolId> CallGraph::callees_of(SymbolId caller) const {
  std::set<SymbolId> unique;
  for (const auto* s : sites_from(caller)) unique.insert(s->callee);
  return {unique.begin(), unique.end()};
}

bool CallGraph::is_recursive(SymbolId proc) const {
  // proc is recursive iff proc is reachable from its own callees.
  std::set<SymbolId> seen;
  std::vector<SymbolId> work = callees_of(proc);
  while (!work.empty()) {
    const SymbolId p = work.back();
    work.pop_back();
    if (p == proc) return true;
    if (!seen.insert(p).second) continue;
    for (const SymbolId c : callees_of(p)) work.push_back(c);
  }
  return false;
}

}  // namespace prose::ftn
