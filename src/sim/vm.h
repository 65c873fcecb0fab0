// Register VM executing compiled programs with genuine IEEE float/double
// semantics and simulated-cycle accounting.
//
// Numerics are real: kind-4 operations are computed in binary32, kind-8 in
// binary64, conversions round exactly as the hardware would. Time is
// simulated: every instruction charges its compile-time cost (scaled for
// inlined callees) to a SimClock, with per-procedure attribution and optional
// GPTL regions for instrumented procedures.
//
// Failure modes map to the paper's variant outcomes:
//   * non-finite arithmetic results  → RuntimeFault ("Error" column)
//   * out-of-bounds subscripts       → RuntimeFault
//   * exceeding the cycle budget     → Timeout (3× baseline in campaigns)
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gptl/gptl.h"
#include "prec/format.h"
#include "sim/bytecode.h"
#include "support/status.h"

namespace prose::sim {

struct DecodedProgram;  // decode.h
struct DecodedInstr;    // decode.h
enum class XOp : std::uint8_t;  // decode.h

/// Dispatch mechanism for the VM's one engine, which runs the pre-decoded
/// stream (decode.h). Both mechanisms are bit-identical in outcomes, error
/// metrics, cycle/cast accounting, OpMix, and the print log — the goldens in
/// tests/golden/ pin them. They differ only in host speed:
///   * kSwitch   — a portable switch-dispatch loop.
///   * kThreaded — a direct-threaded computed-goto loop (GCC/Clang). Falls
///     back to kSwitch when the build has no computed-goto support.
///   * kAuto     — the build's engine: kThreaded where the compiler has
///     computed goto, kSwitch where it does not.
enum class VmDispatch : std::uint8_t { kAuto, kSwitch, kThreaded };

/// Dynamic superinstruction dispatch counts for one call() — how many fused
/// pairs each family executed. Observability only (the vm/fused/* counters
/// and the bench fusion hit-rate): fused components still count under their
/// original OpMix classes, so OpMix is fusion-neutral by construction.
struct FusedStats {
  std::uint64_t loop_cond_jmp = 0;
  std::uint64_t inc_jmp = 0;
  std::uint64_t cmp_jmp = 0;
  std::uint64_t cast_mov = 0;
  std::uint64_t cast_store = 0;
  std::uint64_t load_arith = 0;
  std::uint64_t arith_store = 0;
  std::uint64_t const_arith = 0;
  std::uint64_t load_const = 0;

  /// Fused pair dispatches; each pair covers two executed instructions.
  [[nodiscard]] std::uint64_t pairs() const {
    return loop_cond_jmp + inc_jmp + cmp_jmp + cast_mov + cast_store +
           load_arith + arith_store + const_arith + load_const;
  }
  [[nodiscard]] std::uint64_t covered() const { return 2 * pairs(); }
};

struct VmOptions {
  bool trap_nonfinite = true;
  /// Simulated-cycle budget for one call(); exceeding it returns Timeout.
  double cycle_budget = std::numeric_limits<double>::infinity();
  /// Hard instruction-count backstop against runaway loops.
  std::uint64_t max_instructions = 4'000'000'000ull;
  std::size_t max_frames = 4096;
  /// Shadow-precision execution: carry a binary64 shadow value for every
  /// scalar slot, module scalar, and array element alongside the
  /// mixed-precision primary values, and record divergence provenance
  /// (see ShadowReport). Hard invariant: shadow bookkeeping never perturbs
  /// simulated cycles, outcomes, or the OpMix — it is pure observability.
  /// A shadow Vm runs its own switch-loop expansion, whose every handler
  /// inlines the shadow hook for its op (vm_shadow.h), on an unfused stream
  /// it decodes itself, regardless of `dispatch`, `fuse`, and `decoded`.
  bool shadow = false;
  /// Execution engine (see VmDispatch). kAuto resolves to the build default.
  VmDispatch dispatch = VmDispatch::kAuto;
  /// Superinstruction fusion for the decoded engines. Results are
  /// bit-identical with fusion on or off; off exists for the
  /// fusion-neutrality test and A/B benchmarking.
  bool fuse = true;
  /// Pre-decoded instruction stream (must come from decode() of this Vm's
  /// exact program). The evaluator decodes each variant in its own timed
  /// stage and passes the stream here. Null = decode lazily on the first
  /// call().
  std::shared_ptr<const DecodedProgram> decoded;
};

/// Per-procedure execution statistics (collected without instrumentation
/// overhead — this is the data behind Figure 6).
struct ProcRunStats {
  std::uint64_t calls = 0;
  double inclusive_cycles = 0.0;
  double exclusive_cycles = 0.0;

  [[nodiscard]] double mean_call_cycles() const {
    return calls == 0 ? 0.0 : inclusive_cycles / static_cast<double>(calls);
  }
};

/// Executed-instruction mix for one call() — observability data for the
/// flight recorder (op-mix, cast-count, vectorized-vs-scalar counters per
/// run). Pure accounting: nothing here feeds back into the cost model, so a
/// run's simulated cycles are identical whether or not anyone reads this.
struct OpMix {
  std::uint64_t fp32_arith = 0;   // binary32 add/sub/mul/div/pow/neg
  std::uint64_t fp64_arith = 0;   // binary64 add/sub/mul/div/pow/neg
  std::uint64_t fmt_arith = 0;    // parameterized-format add/sub/mul/div/pow/neg
  std::uint64_t int_arith = 0;
  std::uint64_t casts = 0;        // executed kind conversions (incl. format quantize)
  std::uint64_t mem = 0;          // element loads/stores, fills, copies, reductions
  std::uint64_t calls = 0;
  std::uint64_t branches = 0;     // jumps, conditional branches, loop conditions
  std::uint64_t intrinsics = 0;
  std::uint64_t other = 0;
  /// kLoopBegin executions, split by the loop's vectorization verdict.
  std::uint64_t vector_loop_entries = 0;
  std::uint64_t scalar_loop_entries = 0;

  [[nodiscard]] std::uint64_t fp_arith() const { return fp32_arith + fp64_arith; }
};

struct RunResult {
  Status status;
  double cycles = 0.0;            // simulated cycles for this call
  std::uint64_t instructions = 0;
  double cast_cycles = 0.0;       // cycles spent on kind conversions
  OpMix op_mix;
  /// Superinstruction dispatches (all-zero under fuse=false and under
  /// shadow). Deliberately outside OpMix: fusion must not change the op-mix
  /// a run reports.
  FusedStats fused;
};

/// Divergence record of one named variable under shadow execution. Relative
/// divergence of a value is |primary - shadow| / max(|primary|, |shadow|)
/// (0 when equal, +inf when either side is non-finite), so finite
/// divergences are bounded by 2 and a value flushed to zero scores 1.
struct ShadowVarStats {
  double max_rel_div = 0.0;   // max divergence observed at writes
  std::uint64_t writes = 0;   // writes recorded against this variable

  friend bool operator==(const ShadowVarStats&, const ShadowVarStats&) = default;
};

/// Per-procedure shadow statistics. "Introduced" divergence is per-op
/// max(0, result_div - max operand_div): error born in this procedure, as
/// opposed to contamination propagated from upstream — the root-cause
/// ranking signal.
struct ShadowProcStats {
  double introduced_sum = 0.0;
  double introduced_max = 0.0;
  double max_rel_div = 0.0;              // max divergence of values written here
  std::uint64_t cancellations = 0;       // catastrophic-cancellation events
  std::uint64_t control_divergences = 0; // branches the shadow run would take differently
  double cast_cycles = 0.0;              // simulated cast cycles spent in this proc
  bool faulted = false;                  // the run faulted/timed out here

  friend bool operator==(const ShadowProcStats&, const ShadowProcStats&) = default;
};

/// Everything the shadow execution learned about one call().
struct ShadowReport {
  bool enabled = false;
  double max_rel_div = 0.0;
  std::uint64_t cancellations = 0;
  std::uint64_t control_divergences = 0;
  /// First site where a written value's divergence exceeded 1e-6 (well above
  /// a single binary32 rounding at ~6e-8 — the onset of accumulation, not
  /// one benign rounding). Instruction index is relative to the procedure.
  bool has_first_divergence = false;
  std::string first_divergence_proc;
  std::int32_t first_divergence_instr = -1;
  /// Procedure in which the run faulted or timed out; empty if it finished.
  std::string fault_proc;
  std::map<std::string, ShadowVarStats> vars;    // qualified variable name
  std::map<std::string, ShadowProcStats> procs;  // qualified procedure name

  friend bool operator==(const ShadowReport&, const ShadowReport&) = default;
};

/// Dense multi-dimensional array storage (column-major, 1-based like Fortran).
class ArrayStorage {
 public:
  /// `machine` resolves the kind's element bytes and vector lanes once, here:
  /// the array-wide handlers charge them on every execution.
  ArrayStorage(int kind, int rank, const std::int64_t* extents,
               const MachineModel& machine);

  [[nodiscard]] int kind() const { return kind_; }
  /// MachineModel::bytes_for_kind and lanes_for_kind of kind().
  [[nodiscard]] double bytes() const { return bytes_; }
  [[nodiscard]] int lanes() const { return lanes_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] std::int64_t extent(int dim) const { return extents_[dim]; }
  [[nodiscard]] std::int64_t total() const { return total_; }

  /// Linear index from 1-based subscripts; negative on out-of-bounds.
  /// Inline: called once per array access in the execution engines' hottest
  /// handlers, where an out-of-line call would dominate the element work.
  [[nodiscard]] std::int64_t linearize(std::int64_t i, std::int64_t j,
                                       std::int64_t k) const {
    if (i < 1 || i > extents_[0]) return -1;
    std::int64_t linear = i - 1;
    if (rank_ >= 2) {
      if (j < 1 || j > extents_[1]) return -1;
      linear += extents_[0] * (j - 1);
    }
    if (rank_ >= 3) {
      if (k < 1 || k > extents_[2]) return -1;
      linear += extents_[0] * extents_[1] * (k - 1);
    }
    return linear;
  }

  [[nodiscard]] double get(std::int64_t linear) const {
    return kind_ == 4 ? static_cast<double>(f32_[static_cast<std::size_t>(linear)])
                      : f64_[static_cast<std::size_t>(linear)];
  }
  void set(std::int64_t linear, double value) {
    if (kind_ == 4) {
      f32_[static_cast<std::size_t>(linear)] = static_cast<float>(value);
    } else {
      set_exact(linear, custom_ ? quant_(value) : value);
    }
  }

  /// Custom formats store the already-quantized binary64 image of the
  /// format's value (every custom value is exactly representable in
  /// binary64), so quantize-on-set is the whole storage semantics. Handlers
  /// that also need the overflow flag round once with quantizer() and store
  /// the result with set_exact.
  [[nodiscard]] bool custom() const { return custom_; }
  [[nodiscard]] const prec::Quantizer& quantizer() const { return quant_; }
  /// Stores a value the array's (non-kind-4) format represents exactly.
  void set_exact(std::int64_t linear, double value) {
    f64_[static_cast<std::size_t>(linear)] = value;
  }

  /// Shadow-execution support: an optional binary64 mirror of the payload,
  /// initialized from the current primary values. Never consulted by get/set.
  void enable_shadow();
  [[nodiscard]] bool has_shadow() const { return !shadow_.empty(); }
  [[nodiscard]] double shadow_get(std::int64_t linear) const {
    return shadow_[static_cast<std::size_t>(linear)];
  }
  void shadow_set(std::int64_t linear, double value) {
    shadow_[static_cast<std::size_t>(linear)] = value;
  }

 private:
  int kind_;
  int rank_;
  double bytes_;
  int lanes_;
  bool custom_ = false;            // kind_ is a parameterized format
  prec::Quantizer quant_;          // resolved once; only read when custom_
  std::int64_t extents_[3] = {1, 1, 1};
  std::int64_t total_ = 0;
  std::vector<float> f32_;
  std::vector<double> f64_;
  std::vector<double> shadow_;
};

class Vm;

/// The runtime faults an execution engine raises; Vm::engine_fault turns one
/// into its Status. `kind` names the format where the message does.
enum class EngineFault : std::uint8_t {
  kCycleBudget,          // Timeout "cycle budget exceeded"
  kInstructionLimit,     // "instruction limit exceeded"
  kCastOverflow,         // "overflow converting to real(<kind>)"
  kArithOverflow,        // "overflow in <format> arithmetic"
  kNonFiniteResult,      // "non-finite <f32|f64|format> result"
  kReadOutOfBounds,
  kWriteOutOfBounds,
  kStoreNonFinite,
  kStoreOverflowArray,   // "overflow storing to real(<kind>) array"
  kStoreOverflowGlobal,  // "overflow storing to real(<kind>) module variable"
  kIntDivByZero,
  kNonFiniteIntrinsic,
  kCopyShapeMismatch,
  kCopyOverflow,         // "overflow converting array to real(<kind>)"
  kNonFiniteReduction,
  kBadAutomaticExtent,
};

/// Decoded-stream execution engines, one translation unit each
/// (vm_engine_{switch,threaded,shadow}.cpp). Free friend functions rather
/// than members so the threaded engine can export its handler-label table
/// without an instance (vm == nullptr, table_out set).
Status vm_engine_switch(Vm* vm, const DecodedProgram* decoded);
Status vm_engine_shadow(Vm* vm, const DecodedProgram* decoded);
Status vm_engine_threaded(Vm* vm, const DecodedProgram* decoded,
                          const void* const** table_out);

class Vm {
 public:
  explicit Vm(const CompiledProgram* program, VmOptions options = {});

  /// True when this build's threaded (computed-goto) engine exists.
  [[nodiscard]] static bool threaded_available();
  /// What VmDispatch::kAuto resolves to in this build.
  [[nodiscard]] static VmDispatch default_dispatch();
  /// The dispatch call() will actually use, after resolving kAuto and the
  /// threaded→switch fallback (a shadow Vm always runs the switch loop).
  [[nodiscard]] VmDispatch resolved_dispatch() const;

  /// Re-initializes all module storage (zeros + declared initializers).
  void reset();

  // --- module data access for harness drivers ---
  /// Test fixture: sim_vm_test and coverage_extra_test seed module inputs
  /// with it (branch selectors, overflow operands) before a call.
  Status set_scalar(const std::string& qualified, double value);
  StatusOr<double> get_scalar(const std::string& qualified) const;
  /// Test fixture: coverage_extra_test checks its size validation and the
  /// round trip through get_array.
  Status set_array(const std::string& qualified, std::span<const double> values);
  StatusOr<std::vector<double>> get_array(const std::string& qualified) const;

  /// Runs a no-argument entry procedure ("module::proc") to completion.
  RunResult call(const std::string& qualified_proc);

  [[nodiscard]] const std::vector<ProcRunStats>& proc_stats() const { return proc_stats_; }
  [[nodiscard]] const ProcRunStats* proc_stats(const std::string& qualified) const;

  [[nodiscard]] gptl::Timers& timers() { return timers_; }
  [[nodiscard]] const gptl::Timers& timers() const { return timers_; }
  [[nodiscard]] double now() const { return clock_.now(); }
  [[nodiscard]] const std::string& print_log() const { return print_log_; }
  [[nodiscard]] const CompiledProgram& program() const { return *program_; }

  /// Divergence provenance accumulated since reset() (empty/disabled unless
  /// VmOptions::shadow was set).
  [[nodiscard]] ShadowReport shadow_report() const;

 private:
  struct Frame {
    std::int32_t proc = -1;
    std::size_t slot_base = 0;
    std::int32_t return_pc = -1;
    std::int32_t site = -1;          // CallSiteMeta index (-1 for the entry)
    std::size_t caller_slot_base = 0;
    double scale = 1.0;              // inlined-call cost multiplier
    double entry_cycles = 0.0;
    double child_cycles = 0.0;
    std::vector<ArrayStorage*> arrays;             // bound views
    std::vector<std::unique_ptr<ArrayStorage>> owned;  // locals/automatics
  };

  Status push_frame(std::int32_t proc_index, std::int32_t site_index,
                    std::int32_t return_pc);
  void bind_frame_arrays(Frame& frame, const ProcMeta& meta, const CallSiteMeta* site);
  Status pop_frame(std::int32_t& pc);

  [[nodiscard]] Status fault(const std::string& message) const;
  /// An engine fault at `pc`: records fault_pc_ and builds the Status into
  /// `out`. The one place an engine builds a message, kept out of the hot
  /// handlers; `out` is the engine's status, so a fault site destroys no
  /// temporary.
#if defined(__GNUC__) || defined(__clang__)
  [[gnu::cold, gnu::noinline]]
#endif
  void engine_fault(EngineFault what, int kind, std::int32_t pc, Status& out);
  /// kPrint: appends the print's text and argument values to print_log_.
  void print(const PrintMeta& meta, const double* slots);
  /// GPTL region index of an instrumented procedure, interned on its first
  /// entry (so region order is the order of first entry).
  std::size_t timer_region(std::int32_t proc);

  friend Status vm_engine_switch(Vm* vm, const DecodedProgram* decoded);
  friend Status vm_engine_shadow(Vm* vm, const DecodedProgram* decoded);
  friend Status vm_engine_threaded(Vm* vm, const DecodedProgram* decoded,
                                   const void* const** table_out);

  /// Returns the decoded stream for program_ (options_.decoded if supplied
  /// and this Vm is not shadowing, else decoded once and cached), or the
  /// decode failure.
  StatusOr<const DecodedProgram*> ensure_decoded();

  // --- shadow execution (all no-ops unless options_.shadow) ---
  // The per-instruction hooks are inline, in vm_shadow.h: shadow_step is
  // instantiated once per decoded op by the shadow engine's handlers.
  void init_shadow_tables();
  std::int32_t shadow_var_index(const std::string& name);
  template <XOp kOp>
  void shadow_step(const DecodedInstr& in, const Frame& frame, std::int32_t pc,
                   const DecodedProgram& decoded);
  void shadow_branch(const DecodedInstr& in, const Frame& frame);
  void note_shadow_div(double div, std::int32_t proc, std::int32_t pc);
  void note_shadow_write(std::int32_t dst, double div, const Frame& frame,
                         std::int32_t pc);
  void note_shadow_var(std::int32_t var, double div);
  void note_shadow_fault(const Status& status);

  double slot(std::size_t index) const { return slots_[index]; }

  const CompiledProgram* program_;
  VmOptions options_;
  gptl::SimClock clock_;
  gptl::Timers timers_;
  std::vector<double> globals_;
  std::vector<ArrayStorage> global_arrays_;
  std::vector<double> slots_;
  std::vector<Frame> frames_;
  std::vector<ProcRunStats> proc_stats_;
  std::vector<std::int64_t> timer_region_;  // per proc; -1 until interned
  std::string print_log_;
  double run_start_cycles_ = 0.0;
  double cast_cycles_ = 0.0;
  std::uint64_t instructions_ = 0;
  OpMix op_mix_;
  FusedStats fused_;                // per-call, like op_mix_
  std::int32_t fault_pc_ = -1;
  /// Lazily decoded stream (when options_.decoded was not supplied) and the
  /// sticky decode verdict, so a malformed program fails every call the
  /// same way without re-running the verifier.
  std::shared_ptr<const DecodedProgram> decoded_local_;
  Status decode_status_ = Status::ok();
  bool decode_attempted_ = false;

  // --- shadow execution state (allocated only when options_.shadow) ---
  bool shadow_ = false;
  std::vector<double> shadow_slots_;    // parallel to slots_
  std::vector<double> shadow_globals_;  // parallel to globals_
  std::vector<ShadowProcStats> shadow_procs_;       // per proc index
  std::vector<ShadowVarStats> shadow_vars_;         // per tracked variable
  std::vector<std::string> shadow_var_names_;       // parallel to shadow_vars_
  std::map<std::string, std::int32_t> shadow_var_index_;
  std::vector<std::vector<std::int32_t>> slot_var_;   // proc → slot → var (-1)
  std::vector<std::vector<std::int32_t>> array_var_;  // proc → array slot → var
  std::vector<std::int32_t> global_var_;              // global scalar → var
  double shadow_max_div_ = 0.0;
  std::uint64_t shadow_cancellations_ = 0;
  std::uint64_t shadow_control_divs_ = 0;
  std::int32_t first_div_proc_ = -1;
  std::int32_t first_div_instr_ = -1;   // absolute instruction index
  std::int32_t shadow_fault_proc_ = -1;
};

}  // namespace prose::sim
