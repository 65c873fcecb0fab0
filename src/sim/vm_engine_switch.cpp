// The portable switch-dispatch engine: one expansion of vm_engine.inc.
#define VM_SHADOW 0
#define VM_USE_CGOTO 0
#define VM_ENGINE_NAME vm_engine_switch
#include "sim/vm_engine.inc"  // NOLINT(bugprone-suspicious-include)
