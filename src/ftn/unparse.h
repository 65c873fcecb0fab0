// Unparser: renders an AST back to Fortran-subset source.
//
// Used for (1) round-trip testing of the frontend, (2) emitting transformed
// mixed-precision variants in a form domain experts can read (a stated goal
// of the paper's source-to-source approach), and (3) the variant diffs shown
// by the tuner's reports (paper Fig. 3).
#pragma once

#include <string>

#include "ftn/ast.h"

namespace prose::ftn {

std::string unparse(const Program& program);
std::string unparse(const Module& module);
std::string unparse(const Procedure& proc, int indent = 0);
std::string unparse_expr(const Expr& expr);
std::string unparse_decl(const DeclEntity& decl);

/// Unified-style diff of two programs' unparsed text (context-free: only
/// changed lines, prefixed with -/+). Used for Fig. 3-style variant reports.
std::string source_diff(const Program& before, const Program& after);

}  // namespace prose::ftn
