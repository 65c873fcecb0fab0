// One-time lowering of CompiledProgram bytecode into a flat, pre-validated,
// dispatch-ready instruction stream — the only form the VM executes.
//
// decode() does three things once per program that would otherwise cost
// work on every executed instruction:
//   1. Verify: every operand slot, array slot, global index, jump target,
//      call-site record, and writeback target is checked once, up front. A
//      malformed program is rejected here with a diagnostic instead of
//      crashing (or faulting) mid-run. The execution engines can therefore
//      index everything unchecked.
//   2. Resolve: polymorphic decisions the bytecode leaves to execution
//      time are folded into the opcode or the decoded fields — the
//      kind of a kStoreGlobal target, the vectorization verdict of a
//      kLoopBegin, the op-mix class, the kCastInt rounding mode, and the
//      quantizer of each custom format.
//   3. Fuse: adjacent pairs that dominate the dynamic mix (loop-head
//      cond+branch, compare+branch, increment+back-edge, cast+mov,
//      cast/arith+store, load+arith) are rewritten into superinstructions
//      that execute both components under a single dispatch. Fusion is
//      structural only: the second component stays in place in the stream
//      and both components keep their exact unfused semantics and
//      accounting, so fused and unfused runs are bit-identical (including
//      OpMix and the simulated clock).
//
// The decoded stream keeps a 1:1 index mapping with the bytecode (decoded
// index == bytecode pc), so branch targets, return addresses, and fault pcs
// need no translation. Every bytecode field is copied into the DecodedInstr,
// so the shadow engine's hooks (vm_shadow.h) read the handler's own decoded
// instruction, never the bytecode. A fused pair occupies its original two
// positions; the second position is provably unreachable by any jump (fusion
// requires the second instruction not be a basic-block leader).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "prec/format.h"
#include "sim/bytecode.h"
#include "support/status.h"

namespace prose::sim {

// Decoded opcode space: the bytecode ops, plus resolved variants, plus
// superinstructions. The X-macro is the single source of truth — the
// threaded engine's label table and the switch engine's case list are both
// generated from it, so a missing handler is a compile error.
#define PROSE_VM_FOR_EACH_XOP(X)                                          \
  X(kNop)                                                                 \
  X(kLoadConst)                                                           \
  X(kMov)                                                                 \
  X(kCastF32)                                                             \
  X(kCastF64)                                                             \
  X(kCastInt)                                                             \
  X(kLoadGlobal)                                                          \
  X(kStoreGlobalF32)                                                      \
  X(kStoreGlobalF64)                                                      \
  X(kAddF32)                                                              \
  X(kSubF32)                                                              \
  X(kMulF32)                                                              \
  X(kDivF32)                                                              \
  X(kPowF32)                                                              \
  X(kAddF64)                                                              \
  X(kSubF64)                                                              \
  X(kMulF64)                                                              \
  X(kDivF64)                                                              \
  X(kPowF64)                                                              \
  X(kAddI)                                                                \
  X(kSubI)                                                                \
  X(kMulI)                                                                \
  X(kDivI)                                                                \
  X(kPowI)                                                                \
  X(kNegF32)                                                              \
  X(kNegF64)                                                              \
  X(kNegI)                                                                \
  X(kCmpEq)                                                               \
  X(kCmpNe)                                                               \
  X(kCmpLt)                                                               \
  X(kCmpLe)                                                               \
  X(kCmpGt)                                                               \
  X(kCmpGe)                                                               \
  X(kAnd)                                                                 \
  X(kOr)                                                                  \
  X(kNot)                                                                 \
  X(kEqv)                                                                 \
  X(kNeqv)                                                                \
  X(kIntrin1)                                                             \
  X(kIntrin2)                                                             \
  X(kLoadElem)                                                            \
  X(kStoreElem)                                                           \
  X(kArrayFill)                                                           \
  X(kArrayCopy)                                                           \
  X(kReduce)                                                              \
  X(kArraySize)                                                           \
  X(kAllReduce)                                                           \
  X(kJmp)                                                                 \
  X(kJmpIfFalse)                                                          \
  X(kLoopCond)                                                            \
  X(kLoopBeginVec)                                                        \
  X(kLoopBeginScalar)                                                     \
  X(kLoopEnd)                                                             \
  X(kAllocArray)                                                          \
  X(kCall)                                                                \
  X(kRet)                                                                 \
  X(kPrint)                                                               \
  /* --- superinstructions: two bytecode ops, one dispatch --- */         \
  X(kFusedLoopCondJmp)      /* kLoopCond + kJmpIfFalse (loop head) */     \
  X(kFusedIncJmp)           /* kAddI + kJmp (loop back edge) */           \
  X(kFusedCmpEqJmp)                                                       \
  X(kFusedCmpNeJmp)                                                       \
  X(kFusedCmpLtJmp)                                                       \
  X(kFusedCmpLeJmp)                                                       \
  X(kFusedCmpGtJmp)                                                       \
  X(kFusedCmpGeJmp)                                                       \
  X(kFusedCastF32Mov)                                                     \
  X(kFusedCastF64Mov)                                                     \
  X(kFusedCastF32Store)     /* kCastF32 + kStoreElem */                   \
  X(kFusedCastF64Store)                                                   \
  X(kFusedLoadAddF32)       /* kLoadElem + kAddF32 */                     \
  X(kFusedLoadSubF32)                                                     \
  X(kFusedLoadMulF32)                                                     \
  X(kFusedLoadDivF32)                                                     \
  X(kFusedLoadAddF64)                                                     \
  X(kFusedLoadSubF64)                                                     \
  X(kFusedLoadMulF64)                                                     \
  X(kFusedLoadDivF64)                                                     \
  X(kFusedAddStoreF32)      /* kAddF32 + kStoreElem */                    \
  X(kFusedSubStoreF32)                                                    \
  X(kFusedMulStoreF32)                                                    \
  X(kFusedDivStoreF32)                                                    \
  X(kFusedAddStoreF64)                                                    \
  X(kFusedSubStoreF64)                                                    \
  X(kFusedMulStoreF64)                                                    \
  X(kFusedDivStoreF64)                                                    \
  X(kFusedConstAddF32)      /* kLoadConst + kAddF32 (coefficient feeds) */ \
  X(kFusedConstSubF32)                                                    \
  X(kFusedConstMulF32)                                                    \
  X(kFusedConstDivF32)                                                    \
  X(kFusedConstAddF64)                                                    \
  X(kFusedConstSubF64)                                                    \
  X(kFusedConstMulF64)                                                    \
  X(kFusedConstDivF64)                                                    \
  X(kFusedConstAddI)        /* kLoadConst + kAddI (subscript arithmetic) */ \
  X(kFusedConstSubI)                                                      \
  X(kFusedConstMulI)                                                      \
  X(kFusedLoadElemConst)    /* kLoadElem + kLoadConst (stencil preload) */ \
  X(kFusedLoadGlobalConst)  /* kLoadGlobal + kLoadConst */                \
  X(kFusedConstLoadElem)    /* kLoadConst + kLoadElem */                  \
  /* --- parameterized-format ops (src/prec); never fused --- */          \
  X(kAddFmt)                                                              \
  X(kSubFmt)                                                              \
  X(kMulFmt)                                                              \
  X(kDivFmt)                                                              \
  X(kPowFmt)                                                              \
  X(kNegFmt)                                                              \
  X(kCastFmt)                                                             \
  X(kStoreGlobalFmt)

enum class XOp : std::uint8_t {
#define PROSE_VM_XOP_ENUM(name) name,
  PROSE_VM_FOR_EACH_XOP(PROSE_VM_XOP_ENUM)
#undef PROSE_VM_XOP_ENUM
};

inline constexpr std::size_t kNumXOps = []() {
  std::size_t n = 0;
#define PROSE_VM_XOP_COUNT(name) ++n;
  PROSE_VM_FOR_EACH_XOP(PROSE_VM_XOP_COUNT)
#undef PROSE_VM_XOP_COUNT
  return n;
}();

/// Superinstruction families, for the vm/fused/* flight-recorder counters
/// and the bench fusion hit-rate. Purely observability: fused execution
/// never reaches OpMix (both components count under their original class).
enum FusedFamily : std::uint8_t {
  kFuseLoopCondJmp = 0,
  kFuseIncJmp,
  kFuseCmpJmp,
  kFuseCastMov,
  kFuseCastStore,
  kFuseLoadArith,
  kFuseArithStore,
  kFuseConstArith,
  kFuseLoadConst,
  kNumFusedFamilies,
};

/// Op-mix class of a decoded instruction, precomputed so the hot loop does
/// an array increment instead of re-classifying the opcode. The one op-mix
/// classifier; the goldens in tests/golden/ pin every OpMix field.
enum MixClass : std::uint8_t {
  kMixFp32 = 0,
  kMixFp64,
  kMixInt,
  kMixCast,
  kMixMem,
  kMixCall,
  kMixBranch,
  kMixIntrinsic,
  kMixOther,
  kMixFmt,  // parameterized-format arithmetic (kAddFmt..kNegFmt)
  kNumMixClasses,
};

/// One pre-validated, dispatch-ready instruction. `target` is the threaded
/// engine's handler address (prefilled at decode time when the build has
/// computed goto; null otherwise — the switch engine never reads it).
struct DecodedInstr {
  const void* target = nullptr;
  double imm = 0.0;
  double cost = 0.0;
  std::int32_t dst = -1;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t c = -1;
  std::int32_t aux = -1;
  std::int32_t aux2 = -1;
  XOp op = XOp::kNop;
  std::uint16_t kind = 8;  // operand kind where relevant (4/8/custom encoded)
  std::uint8_t mix = kMixOther;
  std::uint8_t sub = 0;   // kCastInt rounding mode; FusedFamily for fusions;
                          // DecodedProgram::formats index for custom kinds
};

struct DecodeOptions {
  /// Run the superinstruction fuser. Off = plain pre-validated stream;
  /// results are bit-identical either way (the fusion-neutrality test pins
  /// this), only dispatch counts differ.
  bool fuse = true;
};

/// The decoded form of one CompiledProgram. Owns no reference to the
/// program, but is only meaningful for the exact program it was decoded
/// from (the engines still read proc/call-site/print metadata from the
/// program). Immutable after decode — safe to share across threads and Vm
/// instances.
struct DecodedProgram {
  std::vector<DecodedInstr> code;
  /// One quantizer per custom format the program rounds to, resolved once
  /// here so no handler decodes a kind. Every *Fmt op and every intrinsic
  /// with a custom result kind carries its entry's index in `sub`.
  std::vector<prec::Quantizer> formats;
  bool fused = false;
  /// Static fusion census: how many pairs the fuser rewrote, per family.
  std::uint64_t fused_sites = 0;
  std::array<std::uint64_t, kNumFusedFamilies> family_sites{};
};

/// Verifies and lowers `program`. Returns InvalidArgument with a
/// "decode: ..." diagnostic naming the offending instruction if the
/// program is malformed (bad register/array/global indices, jump targets
/// outside the owning procedure, truncated call argument lists, procedures
/// that can fall off their code range, unknown intrinsics).
StatusOr<std::shared_ptr<const DecodedProgram>> decode(
    const CompiledProgram& program, const DecodeOptions& options = {});

/// Handler-address table of the threaded engine (indexed by XOp), or null
/// when the build has no computed-goto support. Defined in
/// vm_engine_threaded.cpp.
const void* const* threaded_label_table();

}  // namespace prose::sim
