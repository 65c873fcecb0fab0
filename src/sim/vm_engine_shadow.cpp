// The shadow-precision engine: the switch expansion of vm_engine.inc with
// the vm_shadow.h hooks inlined into every handler.
#define VM_SHADOW 1
#define VM_USE_CGOTO 0
#define VM_ENGINE_NAME vm_engine_shadow
#include "sim/vm_engine.inc"  // NOLINT(bugprone-suspicious-include)
