// Decoded-stream execution engines and dispatch-policy plumbing.
//
// vm_engine.inc holds the single shared engine body; it is included three
// times below — as a portable switch loop, as a direct-threaded
// computed-goto loop (when the compiler supports labels-as-values), and as
// the switch loop with shadow-precision hooks. See decode.h for the decoded
// instruction format and DESIGN.md §13 for the design.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>

#include "ftn/symbols.h"
#include "sim/decode.h"
#include "sim/vm.h"
#include "sim/vm_shadow.h"

namespace prose::sim {

using ftn::Intrinsic;

// Build configuration (normally injected by CMake as compile definitions on
// prose_sim; default to the portable configuration when absent).
#ifndef PROSE_HAS_COMPUTED_GOTO
#define PROSE_HAS_COMPUTED_GOTO 0
#endif

// ---------------------------------------------------------------------------
// Engine instantiations.

#define VM_SHADOW 0
#define VM_USE_CGOTO 0
#define VM_ENGINE_NAME vm_engine_switch
#include "sim/vm_engine.inc"  // NOLINT(bugprone-suspicious-include)
#undef VM_ENGINE_NAME
#undef VM_USE_CGOTO
#undef VM_SHADOW

#define VM_SHADOW 1
#define VM_USE_CGOTO 0
#define VM_ENGINE_NAME vm_engine_shadow
#include "sim/vm_engine.inc"  // NOLINT(bugprone-suspicious-include)
#undef VM_ENGINE_NAME
#undef VM_USE_CGOTO
#undef VM_SHADOW

#if PROSE_HAS_COMPUTED_GOTO

#define VM_SHADOW 0
#define VM_USE_CGOTO 1
#define VM_ENGINE_NAME vm_engine_threaded
#include "sim/vm_engine.inc"  // NOLINT(bugprone-suspicious-include)
#undef VM_ENGINE_NAME
#undef VM_USE_CGOTO
#undef VM_SHADOW

#else  // !PROSE_HAS_COMPUTED_GOTO

// No computed goto in this build: the threaded entry point exists (so
// callers link either way) but reports no label table, and execution
// falls through to the switch engine.
Status vm_engine_threaded(Vm* vm, const DecodedProgram* decoded,
                          const void* const** table_out) {
  if (table_out != nullptr) {
    *table_out = nullptr;
    return Status::ok();
  }
  return vm_engine_switch(vm, decoded);
}

#endif  // PROSE_HAS_COMPUTED_GOTO

const void* const* threaded_label_table() {
  static const void* const* const table = [] {
    const void* const* out = nullptr;
    (void)vm_engine_threaded(nullptr, nullptr, &out);
    return out;
  }();
  return table;
}

// ---------------------------------------------------------------------------
// Dispatch policy.

bool Vm::threaded_available() { return threaded_label_table() != nullptr; }

VmDispatch Vm::default_dispatch() {
  return threaded_available() ? VmDispatch::kThreaded : VmDispatch::kSwitch;
}

VmDispatch Vm::resolved_dispatch() const {
  if (shadow_) return VmDispatch::kSwitch;  // the shadow engine is a switch loop
  VmDispatch d = options_.dispatch;
  if (d == VmDispatch::kAuto) d = default_dispatch();
  if (d == VmDispatch::kThreaded && !threaded_available()) d = VmDispatch::kSwitch;
  return d;
}

StatusOr<const DecodedProgram*> Vm::ensure_decoded() {
  // A shadow Vm hooks every bytecode instruction, so it never runs a
  // supplied (possibly fused) stream: it decodes its own, unfused.
  if (options_.decoded != nullptr && !shadow_) return options_.decoded.get();
  if (!decode_attempted_) {
    decode_attempted_ = true;
    auto d = decode(*program_, DecodeOptions{.fuse = options_.fuse && !shadow_});
    if (d.is_ok()) {
      decoded_local_ = std::move(d).value();
    } else {
      decode_status_ = d.status();
    }
  }
  if (!decode_status_.is_ok()) return decode_status_;
  return decoded_local_.get();
}

}  // namespace prose::sim
