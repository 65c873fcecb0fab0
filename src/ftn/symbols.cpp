#include "ftn/symbols.h"

namespace prose::ftn {

SymbolId SymbolTable::add(Symbol sym) {
  sym.id = static_cast<SymbolId>(symbols_.size() + 1);
  const std::string q = sym.qualified();
  symbols_.push_back(std::move(sym));
  by_qualified_[q] = symbols_.back().id;
  return symbols_.back().id;
}

const Symbol& SymbolTable::get(SymbolId id) const {
  PROSE_CHECK(id != kInvalidSymbol && id <= symbols_.size());
  return symbols_[id - 1];
}

Symbol& SymbolTable::get(SymbolId id) {
  PROSE_CHECK(id != kInvalidSymbol && id <= symbols_.size());
  return symbols_[id - 1];
}

std::optional<SymbolId> SymbolTable::find_procedure(const std::string& module_name,
                                                    const std::string& name) const {
  const auto it = by_qualified_.find(module_name + "::" + name);
  if (it == by_qualified_.end()) return std::nullopt;
  if (get(it->second).kind != SymbolKind::kProcedure) return std::nullopt;
  return it->second;
}

std::optional<SymbolId> SymbolTable::find_qualified(const std::string& qualified) const {
  const auto it = by_qualified_.find(qualified);
  if (it == by_qualified_.end()) return std::nullopt;
  return it->second;
}

namespace {
struct IntrinsicEntry {
  const char* name;
  Intrinsic value;
};
constexpr IntrinsicEntry kIntrinsics[] = {
    {"abs", Intrinsic::kAbs},       {"sqrt", Intrinsic::kSqrt},
    {"exp", Intrinsic::kExp},       {"log", Intrinsic::kLog},
    {"sin", Intrinsic::kSin},       {"cos", Intrinsic::kCos},
    {"tan", Intrinsic::kTan},       {"atan", Intrinsic::kAtan},
    {"atan2", Intrinsic::kAtan2},   {"min", Intrinsic::kMin},
    {"max", Intrinsic::kMax},       {"mod", Intrinsic::kMod},
    {"sign", Intrinsic::kSign},     {"floor", Intrinsic::kFloor},
    {"int", Intrinsic::kInt},       {"nint", Intrinsic::kNint},
    {"real", Intrinsic::kReal},     {"dble", Intrinsic::kDble},
    {"sum", Intrinsic::kSum},       {"minval", Intrinsic::kMinval},
    {"maxval", Intrinsic::kMaxval}, {"epsilon", Intrinsic::kEpsilon},
    {"huge", Intrinsic::kHuge},     {"tiny", Intrinsic::kTiny},
    {"size", Intrinsic::kSize},
    {"mpi_allreduce_sum", Intrinsic::kMpiAllreduceSum},
    {"mpi_allreduce_max", Intrinsic::kMpiAllreduceMax},
    {"mpi_allreduce_min", Intrinsic::kMpiAllreduceMin},
};
}  // namespace

std::optional<Intrinsic> find_intrinsic(const std::string& name) {
  for (const auto& e : kIntrinsics) {
    if (name == e.name) return e.value;
  }
  return std::nullopt;
}

const char* intrinsic_name(Intrinsic i) {
  for (const auto& e : kIntrinsics) {
    if (e.value == i) return e.name;
  }
  return "?";
}

bool intrinsic_is_collective(Intrinsic i) {
  return i == Intrinsic::kMpiAllreduceSum || i == Intrinsic::kMpiAllreduceMax ||
         i == Intrinsic::kMpiAllreduceMin;
}

}  // namespace prose::ftn
