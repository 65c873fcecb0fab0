// The direct-threaded (computed-goto) engine: one expansion of
// vm_engine.inc, and its handler-label table.
#include "sim/decode.h"
#include "sim/vm.h"

// Normally injected by CMake as a compile definition on prose_sim; default
// to the portable configuration when absent.
#ifndef PROSE_HAS_COMPUTED_GOTO
#define PROSE_HAS_COMPUTED_GOTO 0
#endif

#if PROSE_HAS_COMPUTED_GOTO

#define VM_SHADOW 0
#define VM_USE_CGOTO 1
#define VM_ENGINE_NAME vm_engine_threaded
#include "sim/vm_engine.inc"  // NOLINT(bugprone-suspicious-include)

#else  // !PROSE_HAS_COMPUTED_GOTO

namespace prose::sim {

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

}  // namespace prose::sim

#endif  // PROSE_HAS_COMPUTED_GOTO

namespace prose::sim {

const void* const* threaded_label_table() {
  static const void* const* const table = [] {
    const void* const* out = nullptr;
    (void)vm_engine_threaded(nullptr, nullptr, &out);
    return out;
  }();
  return table;
}

}  // namespace prose::sim
