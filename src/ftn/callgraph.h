// Call graph over a resolved program.
//
// Used by the taint reducer (which procedures to keep), the wrapper generator
// (call-site enumeration), and the §V static cost model (estimated call
// volumes from loop nesting).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ftn/ast.h"
#include "ftn/sema.h"

namespace prose::ftn {

/// One static call site (a `call` statement or function-call expression).
struct CallSite {
  NodeId node = kInvalidNode;          // Stmt id (call stmt) or Expr id (call expr)
  SymbolId caller = kInvalidSymbol;    // enclosing procedure
  SymbolId callee = kInvalidSymbol;    // target procedure
  bool is_function_call = false;
  int loop_depth = 0;                  // static nesting depth at the site
  /// Product of constant-foldable trip counts of enclosing loops; loops with
  /// unknown trips contribute `kDefaultTrip` each. A static proxy for call
  /// volume.
  double estimated_calls = 1.0;
  SourceLoc loc;
};

class CallGraph {
 public:
  static constexpr double kDefaultTrip = 16.0;

  /// Builds the graph; the program must be resolved.
  static CallGraph build(const ResolvedProgram& rp);

  [[nodiscard]] const std::vector<CallSite>& sites() const { return sites_; }

  /// Call sites with the given caller.
  [[nodiscard]] std::vector<const CallSite*> sites_from(SymbolId caller) const;

  /// Direct callees of a procedure (unique, sorted).
  [[nodiscard]] std::vector<SymbolId> callees_of(SymbolId caller) const;

  /// True if the graph has a cycle (recursion). The VM supports recursion,
  /// but the inliner refuses to inline recursive procedures.
  [[nodiscard]] bool is_recursive(SymbolId proc) const;

 private:
  std::vector<CallSite> sites_;
  std::map<SymbolId, std::vector<std::size_t>> by_caller_;
};

}  // namespace prose::ftn
