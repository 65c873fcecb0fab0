// Bytecode for the evaluation substrate's register VM.
//
// The compiler (compile.h) lowers a resolved, wrapper-complete program to
// this form; the VM (vm.h) executes it with genuine IEEE float/double
// arithmetic while accumulating simulated cycles from per-instruction costs
// computed at compile time (vectorization amortization included).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ftn/sema.h"
#include "sim/machine.h"
#include "sim/vectorize.h"

namespace prose::sim {

enum class Op : std::uint8_t {
  // The compiler never emits kNop. It stays as the zero default of
  // Instr::op, and VmVerify.FallThroughProcedureRejected blanks a
  // procedure's terminator to it to open a fall-through; the static opcode
  // census (VmGolden.EveryOpcodeIsDecodedInSomeGoldenProgram) exempts it.
  kNop = 0,
  kLoadConst,   // dst <- imm (pre-rounded to the slot's kind)
  kMov,         // dst <- slot a (same kind)
  kCastF32,     // dst <- fl(a): round to binary32
  kCastF64,     // dst <- a (widen; value already representable)
  kCastInt,     // dst <- trunc(a) (aux2: 0=trunc, 1=floor, 2=nearest)
  kLoadGlobal,  // dst <- globals[aux]
  kStoreGlobal, // globals[aux] <- a

  kAddF32, kSubF32, kMulF32, kDivF32, kPowF32,
  kAddF64, kSubF64, kMulF64, kDivF64, kPowF64,
  kAddI, kSubI, kMulI, kDivI, kPowI,
  kNegF32, kNegF64, kNegI,

  kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe,  // dst <- a OP b (0/1)
  kAnd, kOr, kNot, kEqv, kNeqv,

  kIntrin1,     // dst <- fn(a); aux = Intrinsic, kind field selects rounding
  kIntrin2,     // dst <- fn(a, b)

  kLoadElem,    // dst <- arrays[aux][a, b, c]
  kStoreElem,   // arrays[aux][a, b, c] <- dst (dst doubles as source)
  kArrayFill,   // arrays[aux] <- broadcast(a)
  kArrayCopy,   // arrays[aux] <- arrays[aux2] elementwise (casting as needed)
  kReduce,      // dst <- reduce(arrays[aux]); aux2: 0=sum, 1=min, 2=max
  kArraySize,   // dst <- extent of arrays[aux]; aux2 = dim (0 = total)

  kAllReduce,   // dst <- a; charges collective cost; aux2: ignored op tag

  kJmp,         // pc <- aux
  kJmpIfFalse,  // if a == 0: pc <- aux
  kLoopCond,    // dst <- (step>0 ? i<=hi : i>=hi); a=i, b=hi, c=step
  kLoopBegin,   // charges vector prologue; aux = loop meta index
  kLoopEnd,

  kAllocArray,  // allocate automatic array; aux = frame array slot

  kCall,        // aux = callee proc index, aux2 = call-site meta index
  kRet,
  kPrint,       // appends formatted args to the VM print log; aux2 = meta

  // Parameterized-format arithmetic (src/prec): compute in binary64, then
  // quantize the result to the instruction's custom kind.
  kAddFmt, kSubFmt, kMulFmt, kDivFmt, kPowFmt,
  kNegFmt,
  kCastFmt,     // dst <- quantize(a) to the instruction's kind
};

struct Instr {
  Op op = Op::kNop;
  std::uint16_t kind = 8;  // operand kind where relevant (4/8/custom encoded)
  std::int32_t dst = -1;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t c = -1;
  std::int32_t aux = -1;
  std::int32_t aux2 = -1;
  double imm = 0.0;
  double cost = 0.0;      // simulated cycles charged when executed
};

/// Where a frame array slot gets its storage.
enum class ArrayBinding : std::uint8_t {
  kGlobal,     // module array: aux = global array index
  kLocal,      // procedure-local with constant shape
  kAutomatic,  // procedure-local with runtime extents
  kDummy,      // bound to the caller's array at call time
};

struct ArraySlotMeta {
  ArrayBinding binding = ArrayBinding::kLocal;
  int kind = 8;
  int rank = 1;
  std::int64_t extents[3] = {0, 0, 0};       // constant extents (kLocal/kGlobal)
  std::int32_t global_index = -1;            // kGlobal
  std::int32_t dummy_position = -1;          // kDummy: index among array params
  /// kAutomatic: slots holding the runtime extents, filled by the procedure
  /// prologue before kAllocLocal (extent exprs are compiled into the
  /// prologue).
  std::int32_t extent_slots[3] = {-1, -1, -1};
  std::string name;                          // for diagnostics
};

/// Scalar-argument writeback target after a call returns.
enum class WritebackKind : std::uint8_t { kNone, kSlot, kGlobal, kElement };

struct ScalarArgMeta {
  std::int32_t value_slot = -1;   // caller slot holding the evaluated argument
  int dummy_kind = 8;             // kind of the callee's dummy (equals actual)
  WritebackKind writeback = WritebackKind::kNone;
  std::int32_t wb_slot = -1;      // kSlot: caller slot; kGlobal: global index
  std::int32_t wb_array = -1;     // kElement: caller array slot
  std::int32_t wb_index[3] = {-1, -1, -1};  // kElement: caller slots with indices
};

struct ArrayArgMeta {
  std::int32_t caller_array_slot = -1;
};

struct CallSiteMeta {
  std::int32_t callee = -1;
  std::vector<ScalarArgMeta> scalar_args;   // in dummy order (scalars only)
  std::vector<ArrayArgMeta> array_args;     // in dummy order (arrays only)
  std::int32_t result_slot = -1;            // caller slot for function results
  bool inlined = false;                     // zero overhead, inherits vec scale
  double inline_scale = 1.0;                // cost multiplier for callee body
};

struct LoopMeta {
  bool vectorized = false;
  int lanes = 1;
  VecStatus status = VecStatus::kVectorized;
};

struct ProcMeta {
  std::string module_name;
  std::string name;
  ftn::SymbolId symbol = ftn::kInvalidSymbol;
  std::int32_t first_instr = 0;
  std::int32_t num_slots = 0;               // scalar frame size
  std::vector<ArraySlotMeta> arrays;        // frame array slots
  std::vector<std::int32_t> scalar_param_slots;  // dummy order (scalars)
  /// Qualified source name per scalar slot (real-typed declared variables
  /// only; empty for temps and non-real slots). Debug metadata for the
  /// shadow-execution blame reports — never consulted by normal execution.
  std::vector<std::string> slot_names;
  std::int32_t result_slot = -1;
  bool instrument = false;                  // open a GPTL region per call
  bool inlinable = false;
  bool generated = false;

  [[nodiscard]] std::string qualified() const { return module_name + "::" + name; }
};

struct GlobalScalarMeta {
  std::string qualified;
  int kind = 8;
  double init = 0.0;
};

struct GlobalArrayMeta {
  std::string qualified;
  int kind = 8;
  int rank = 1;
  std::int64_t extents[3] = {0, 0, 0};
};

struct PrintMeta {
  std::string text;
  std::vector<std::int32_t> arg_slots;
};

struct CompiledProgram {
  std::vector<Instr> code;
  std::vector<ProcMeta> procs;
  std::vector<CallSiteMeta> call_sites;
  std::vector<LoopMeta> loops;
  std::vector<GlobalScalarMeta> global_scalars;
  std::vector<GlobalArrayMeta> global_arrays;
  std::vector<PrintMeta> prints;
  std::map<std::string, std::int32_t> proc_index;           // "mod::proc"
  std::map<std::string, std::int32_t> global_scalar_index;  // "mod::var"
  std::map<std::string, std::int32_t> global_array_index;
  VectorizationReport vec_report;
  MachineModel machine;

  [[nodiscard]] std::size_t code_size() const { return code.size(); }
};

}  // namespace prose::sim
