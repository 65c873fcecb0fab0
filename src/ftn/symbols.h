// Symbol table produced by semantic resolution.
//
// Symbols are the currency of the whole pipeline: search atoms are the
// real-typed variable symbols of the targeted scope, the parameter-passing
// graph's nodes are symbols, and the bytecode compiler allocates storage per
// symbol.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ftn/ast.h"
#include "support/status.h"

namespace prose::ftn {

enum class SymbolKind : std::uint8_t {
  kModuleVar,
  kLocalVar,
  kDummyArg,
  kResultVar,
  kParameterConst,
  kProcedure,
};

/// Folded compile-time constant (parameters and dim extents).
struct ConstValue {
  bool is_real = false;
  std::int64_t int_value = 0;
  double real_value = 0.0;

  [[nodiscard]] double as_real() const {
    return is_real ? real_value : static_cast<double>(int_value);
  }
};

struct Symbol {
  SymbolId id = kInvalidSymbol;
  std::string name;        // bare lower-case name
  std::string module_name; // owning module
  std::string proc_name;   // owning procedure, empty for module scope
  SymbolKind kind = SymbolKind::kLocalVar;

  // Data symbols.
  ScalarType type;
  std::vector<std::int64_t> extents;  // per dimension; -1 for assumed shape
  Intent intent = Intent::kNone;
  std::optional<ConstValue> const_value;  // parameters only
  NodeId decl_node = kInvalidNode;        // DeclEntity id (atoms key off this)

  // Procedure symbols.
  ProcKind proc_kind = ProcKind::kSubroutine;
  std::vector<SymbolId> params;
  SymbolId result = kInvalidSymbol;
  bool generated = false;

  [[nodiscard]] bool is_variable() const {
    return kind == SymbolKind::kModuleVar || kind == SymbolKind::kLocalVar ||
           kind == SymbolKind::kDummyArg || kind == SymbolKind::kResultVar;
  }
  [[nodiscard]] bool is_array() const { return !extents.empty(); }
  [[nodiscard]] int rank() const { return static_cast<int>(extents.size()); }
  [[nodiscard]] std::string qualified() const {
    std::string q = module_name;
    q += "::";
    if (!proc_name.empty()) {
      q += proc_name;
      q += "::";
    }
    q += name;
    return q;
  }
  /// Total elements for explicit constant shapes; 0 if any extent is assumed
  /// (-1) or automatic/runtime (-2).
  [[nodiscard]] std::int64_t element_count() const {
    if (extents.empty()) return 1;
    std::int64_t n = 1;
    for (const auto e : extents) {
      if (e < 0) return 0;
      n *= e;
    }
    return n;
  }
};

class SymbolTable {
 public:
  SymbolId add(Symbol sym);

  [[nodiscard]] const Symbol& get(SymbolId id) const;
  [[nodiscard]] Symbol& get(SymbolId id);
  [[nodiscard]] std::size_t size() const { return symbols_.size(); }

  /// All symbols in creation order (id order).
  [[nodiscard]] const std::vector<Symbol>& all() const { return symbols_; }

  /// Procedure lookup by "module::name".
  [[nodiscard]] std::optional<SymbolId> find_procedure(const std::string& module_name,
                                                       const std::string& name) const;

  /// Variable lookup by qualified name ("mod::proc::var" / "mod::var").
  [[nodiscard]] std::optional<SymbolId> find_qualified(const std::string& qualified) const;

 private:
  std::vector<Symbol> symbols_;
  std::map<std::string, SymbolId> by_qualified_;
};

/// Intrinsic functions known to the subset.
enum class Intrinsic : std::uint8_t {
  kAbs, kSqrt, kExp, kLog, kSin, kCos, kTan, kAtan, kAtan2,
  kMin, kMax, kMod, kSign, kFloor, kInt, kNint, kReal, kDble,
  kSum, kMinval, kMaxval, kEpsilon, kHuge, kTiny, kSize,
  // MPI collectives modeled as value-preserving intrinsics with
  // communication cost (single simulated process owns the global domain).
  kMpiAllreduceSum, kMpiAllreduceMax, kMpiAllreduceMin,
};

/// Looks up an intrinsic by lower-case name.
std::optional<Intrinsic> find_intrinsic(const std::string& name);
const char* intrinsic_name(Intrinsic i);

/// True for the MPI collective intrinsics.
bool intrinsic_is_collective(Intrinsic i);

}  // namespace prose::ftn
