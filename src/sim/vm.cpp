#include "sim/vm.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/decode.h"
#include "sim/vm_shadow.h"

namespace prose::sim {

// ---------------------------------------------------------------------------
// ArrayStorage
// ---------------------------------------------------------------------------

ArrayStorage::ArrayStorage(int kind, int rank, const std::int64_t* extents,
                           const MachineModel& machine)
    : kind_(kind),
      rank_(rank),
      bytes_(machine.bytes_for_kind(kind)),
      lanes_(machine.lanes_for_kind(kind)) {
  total_ = 1;
  for (int r = 0; r < rank; ++r) {
    PROSE_CHECK_MSG(extents[r] > 0, "array extent must be positive");
    extents_[r] = extents[r];
    total_ *= extents[r];
  }
  if (kind_ == 4) {
    f32_.assign(static_cast<std::size_t>(total_), 0.0f);
  } else {
    f64_.assign(static_cast<std::size_t>(total_), 0.0);
  }
  if (prec::is_custom_kind(kind_)) {
    custom_ = true;
    quant_ = prec::Quantizer(prec::decode_kind(kind_));
  }
}

void ArrayStorage::enable_shadow() {
  shadow_.resize(static_cast<std::size_t>(total_));
  for (std::int64_t i = 0; i < total_; ++i) {
    shadow_[static_cast<std::size_t>(i)] = get(i);
  }
}

// ---------------------------------------------------------------------------
// Vm
// ---------------------------------------------------------------------------

Vm::Vm(const CompiledProgram* program, VmOptions options)
    : program_(program),
      options_(options),
      timers_(&clock_, gptl::TimerOptions{
                           .overhead_cycles_per_pair = program->machine.gptl_overhead_cycles}) {
  PROSE_CHECK(program_ != nullptr);
  timer_region_.assign(program_->procs.size(), -1);
  shadow_ = options_.shadow;
  if (shadow_) init_shadow_tables();
  reset();
}

void Vm::reset() {
  globals_.clear();
  globals_.reserve(program_->global_scalars.size());
  for (const auto& g : program_->global_scalars) globals_.push_back(g.init);
  global_arrays_.clear();
  global_arrays_.reserve(program_->global_arrays.size());
  for (const auto& g : program_->global_arrays) {
    global_arrays_.emplace_back(g.kind, g.rank, g.extents, program_->machine);
  }
  slots_.clear();
  frames_.clear();
  proc_stats_.assign(program_->procs.size(), ProcRunStats{});
  print_log_.clear();
  cast_cycles_ = 0.0;
  instructions_ = 0;
  op_mix_ = OpMix{};
  fused_ = FusedStats{};
  if (shadow_) {
    shadow_globals_ = globals_;
    for (auto& arr : global_arrays_) arr.enable_shadow();
    shadow_slots_.clear();
    shadow_procs_.assign(program_->procs.size(), ShadowProcStats{});
    std::fill(shadow_vars_.begin(), shadow_vars_.end(), ShadowVarStats{});
    shadow_max_div_ = 0.0;
    shadow_cancellations_ = 0;
    shadow_control_divs_ = 0;
    first_div_proc_ = -1;
    first_div_instr_ = -1;
    shadow_fault_proc_ = -1;
  }
}

Status Vm::set_scalar(const std::string& qualified, double value) {
  const auto it = program_->global_scalar_index.find(qualified);
  if (it == program_->global_scalar_index.end()) {
    return Status(StatusCode::kNotFound, "no module scalar '" + qualified + "'");
  }
  // The shadow copy keeps the unrounded binary64 input — shadow execution is
  // "what the all-binary64 run would have computed".
  if (shadow_) shadow_globals_[static_cast<std::size_t>(it->second)] = value;
  const int kind = program_->global_scalars[static_cast<std::size_t>(it->second)].kind;
  if (kind != 8) value = prec::quantize_kind(kind, value);
  globals_[static_cast<std::size_t>(it->second)] = value;
  return Status::ok();
}

StatusOr<double> Vm::get_scalar(const std::string& qualified) const {
  const auto it = program_->global_scalar_index.find(qualified);
  if (it == program_->global_scalar_index.end()) {
    return Status(StatusCode::kNotFound, "no module scalar '" + qualified + "'");
  }
  return globals_[static_cast<std::size_t>(it->second)];
}

Status Vm::set_array(const std::string& qualified, std::span<const double> values) {
  const auto it = program_->global_array_index.find(qualified);
  if (it == program_->global_array_index.end()) {
    return Status(StatusCode::kNotFound, "no module array '" + qualified + "'");
  }
  ArrayStorage& arr = global_arrays_[static_cast<std::size_t>(it->second)];
  if (static_cast<std::int64_t>(values.size()) != arr.total()) {
    return Status(StatusCode::kInvalidArgument,
                  "size mismatch for '" + qualified + "': expected " +
                      std::to_string(arr.total()) + ", got " +
                      std::to_string(values.size()));
  }
  for (std::int64_t i = 0; i < arr.total(); ++i) {
    arr.set(i, values[static_cast<std::size_t>(i)]);
    if (shadow_) arr.shadow_set(i, values[static_cast<std::size_t>(i)]);
  }
  return Status::ok();
}

StatusOr<std::vector<double>> Vm::get_array(const std::string& qualified) const {
  const auto it = program_->global_array_index.find(qualified);
  if (it == program_->global_array_index.end()) {
    return Status(StatusCode::kNotFound, "no module array '" + qualified + "'");
  }
  const ArrayStorage& arr = global_arrays_[static_cast<std::size_t>(it->second)];
  std::vector<double> out(static_cast<std::size_t>(arr.total()));
  for (std::int64_t i = 0; i < arr.total(); ++i) {
    out[static_cast<std::size_t>(i)] = arr.get(i);
  }
  return out;
}

const ProcRunStats* Vm::proc_stats(const std::string& qualified) const {
  const auto it = program_->proc_index.find(qualified);
  if (it == program_->proc_index.end()) return nullptr;
  return &proc_stats_[static_cast<std::size_t>(it->second)];
}

Status Vm::fault(const std::string& message) const {
  std::string where;
  if (!frames_.empty()) {
    where = " in " + program_->procs[static_cast<std::size_t>(frames_.back().proc)].qualified();
  }
  return Status(StatusCode::kRuntimeFault, message + where);
}

namespace {

/// How a fault message names a real kind: "kind=4", or the format's name.
std::string real_kind(int kind) {
  return kind == 4 ? std::string("kind=4") : prec::kind_name(kind);
}

}  // namespace

void Vm::engine_fault(EngineFault what, int kind, std::int32_t pc, Status& out) {
  fault_pc_ = pc;
  out = [&]() -> Status {
    switch (what) {
      case EngineFault::kCycleBudget:
        return Status(StatusCode::kTimeout, "cycle budget exceeded");
      case EngineFault::kInstructionLimit:
        return Status(StatusCode::kRuntimeFault, "instruction limit exceeded");
      case EngineFault::kCastOverflow:
        return fault("overflow converting to real(" + real_kind(kind) + ")");
      case EngineFault::kArithOverflow:
        return fault("overflow in " + prec::kind_name(kind) + " arithmetic");
      case EngineFault::kNonFiniteResult:
        return fault("non-finite " +
                     (kind == 4 ? std::string("f32")
                                : kind == 8 ? std::string("f64") : prec::kind_name(kind)) +
                     " result");
      case EngineFault::kReadOutOfBounds:
        return fault("array subscript out of bounds (read)");
      case EngineFault::kWriteOutOfBounds:
        return fault("array subscript out of bounds (write)");
      case EngineFault::kStoreNonFinite:
        return fault("storing non-finite value");
      case EngineFault::kStoreOverflowArray:
        return fault("overflow storing to real(" + real_kind(kind) + ") array");
      case EngineFault::kStoreOverflowGlobal:
        return fault("overflow storing to real(" + real_kind(kind) + ") module variable");
      case EngineFault::kIntDivByZero:
        return fault("integer division by zero");
      case EngineFault::kNonFiniteIntrinsic:
        return fault("non-finite intrinsic result");
      case EngineFault::kCopyShapeMismatch:
        return fault("array shape mismatch in copy");
      case EngineFault::kCopyOverflow:
        return fault("overflow converting array to real(" + real_kind(kind) + ")");
      case EngineFault::kNonFiniteReduction:
        return fault("non-finite reduction result");
      case EngineFault::kBadAutomaticExtent:
        return fault("non-positive automatic array extent");
    }
    return fault("unknown engine fault");
  }();
}

void Vm::print(const PrintMeta& meta, const double* slots) {
  print_log_ += meta.text;
  char buf[40];
  for (const auto s : meta.arg_slots) {
    std::snprintf(buf, sizeof buf, " %.9g", slots[s]);
    print_log_ += buf;
  }
  print_log_ += '\n';
}

std::size_t Vm::timer_region(std::int32_t proc) {
  std::int64_t& region = timer_region_[static_cast<std::size_t>(proc)];
  if (region < 0) {
    region = static_cast<std::int64_t>(
        timers_.region(program_->procs[static_cast<std::size_t>(proc)].qualified()));
  }
  return static_cast<std::size_t>(region);
}

void Vm::bind_frame_arrays(Frame& frame, const ProcMeta& meta, const CallSiteMeta* site) {
  frame.arrays.resize(meta.arrays.size(), nullptr);
  for (std::size_t i = 0; i < meta.arrays.size(); ++i) {
    const ArraySlotMeta& a = meta.arrays[i];
    switch (a.binding) {
      case ArrayBinding::kGlobal:
        frame.arrays[i] = &global_arrays_[static_cast<std::size_t>(a.global_index)];
        break;
      case ArrayBinding::kLocal: {
        frame.owned.push_back(
            std::make_unique<ArrayStorage>(a.kind, a.rank, a.extents, program_->machine));
        frame.arrays[i] = frame.owned.back().get();
        break;
      }
      case ArrayBinding::kAutomatic:
        frame.arrays[i] = nullptr;  // allocated by kAllocArray
        break;
      case ArrayBinding::kDummy: {
        PROSE_CHECK(site != nullptr);
        const auto& binding =
            site->array_args[static_cast<std::size_t>(a.dummy_position)];
        // Caller is the frame below the new one.
        const Frame& caller = frames_[frames_.size() - 2];
        frame.arrays[i] =
            caller.arrays[static_cast<std::size_t>(binding.caller_array_slot)];
        break;
      }
    }
  }
}

Status Vm::push_frame(std::int32_t proc_index, std::int32_t site_index,
                      std::int32_t return_pc) {
  if (frames_.size() >= options_.max_frames) {
    return fault("call stack overflow");
  }
  const ProcMeta& meta = program_->procs[static_cast<std::size_t>(proc_index)];
  const CallSiteMeta* site =
      site_index >= 0 ? &program_->call_sites[static_cast<std::size_t>(site_index)] : nullptr;

  Frame frame;
  frame.proc = proc_index;
  frame.slot_base = slots_.size();
  frame.return_pc = return_pc;
  frame.site = site_index;
  frame.caller_slot_base = frames_.empty() ? 0 : frames_.back().slot_base;
  frame.scale = (site != nullptr && site->inlined) ? site->inline_scale : 1.0;
  frame.entry_cycles = clock_.now();
  slots_.resize(slots_.size() + static_cast<std::size_t>(meta.num_slots), 0.0);
  if (shadow_) shadow_slots_.resize(slots_.size(), 0.0);
  frames_.push_back(std::move(frame));

  Frame& f = frames_.back();
  bind_frame_arrays(f, meta, site);
  if (shadow_) {
    for (auto& owned : f.owned) {
      if (!owned->has_shadow()) owned->enable_shadow();
    }
  }

  // Copy scalar arguments (kinds already match by the wrapper invariant).
  if (site != nullptr) {
    PROSE_CHECK(site->scalar_args.size() == meta.scalar_param_slots.size());
    for (std::size_t i = 0; i < site->scalar_args.size(); ++i) {
      const std::size_t to =
          f.slot_base + static_cast<std::size_t>(meta.scalar_param_slots[i]);
      const std::size_t from =
          f.caller_slot_base +
          static_cast<std::size_t>(site->scalar_args[i].value_slot);
      slots_[to] = slots_[from];
      if (shadow_) shadow_slots_[to] = shadow_slots_[from];
    }
  }
  if (meta.instrument) {
    if (Status s = timers_.start(timer_region(proc_index)); !s.is_ok()) return s;
  }
  return Status::ok();
}

Status Vm::pop_frame(std::int32_t& pc) {
  Frame& f = frames_.back();
  const ProcMeta& meta = program_->procs[static_cast<std::size_t>(f.proc)];
  const double inclusive = clock_.now() - f.entry_cycles;
  ProcRunStats& stats = proc_stats_[static_cast<std::size_t>(f.proc)];
  stats.calls += 1;
  stats.inclusive_cycles += inclusive;
  stats.exclusive_cycles += inclusive - f.child_cycles;

  if (meta.instrument) {
    if (Status s = timers_.stop(timer_region(f.proc)); !s.is_ok()) return s;
  }

  // Writebacks and result copy into the caller. Shadow values ride along
  // unrounded; element indices always come from the primary slots.
  if (f.site >= 0) {
    const CallSiteMeta& site = program_->call_sites[static_cast<std::size_t>(f.site)];
    for (std::size_t i = 0; i < site.scalar_args.size(); ++i) {
      const ScalarArgMeta& arg = site.scalar_args[i];
      if (arg.writeback == WritebackKind::kNone) continue;
      const std::size_t from =
          f.slot_base + static_cast<std::size_t>(meta.scalar_param_slots[i]);
      const double value = slots_[from];
      const double shadow_value = shadow_ ? shadow_slots_[from] : 0.0;
      switch (arg.writeback) {
        case WritebackKind::kSlot: {
          const std::size_t to =
              f.caller_slot_base + static_cast<std::size_t>(arg.wb_slot);
          slots_[to] = value;
          if (shadow_) shadow_slots_[to] = shadow_value;
          break;
        }
        case WritebackKind::kGlobal: {
          double v = value;
          const int gk =
              program_->global_scalars[static_cast<std::size_t>(arg.wb_slot)].kind;
          if (gk != 8) v = prec::quantize_kind(gk, v);
          globals_[static_cast<std::size_t>(arg.wb_slot)] = v;
          if (shadow_) {
            shadow_globals_[static_cast<std::size_t>(arg.wb_slot)] = shadow_value;
            if (global_var_[static_cast<std::size_t>(arg.wb_slot)] >= 0) {
              note_shadow_var(global_var_[static_cast<std::size_t>(arg.wb_slot)],
                              shadow_detail::rel_div(v, shadow_value));
            }
          }
          break;
        }
        case WritebackKind::kElement: {
          const Frame& caller = frames_[frames_.size() - 2];
          ArrayStorage* arr =
              caller.arrays[static_cast<std::size_t>(arg.wb_array)];
          const auto idx_value = [&](int r) -> std::int64_t {
            if (arg.wb_index[r] < 0) return 1;
            return static_cast<std::int64_t>(
                slots_[f.caller_slot_base + static_cast<std::size_t>(arg.wb_index[r])]);
          };
          const std::int64_t linear =
              arr->linearize(idx_value(0), idx_value(1), idx_value(2));
          if (linear < 0) return fault("out-of-bounds writeback");
          arr->set(linear, value);
          if (shadow_ && arr->has_shadow()) arr->shadow_set(linear, shadow_value);
          break;
        }
        case WritebackKind::kNone:
          break;
      }
    }
    if (site.result_slot >= 0 && meta.result_slot >= 0) {
      const std::size_t to =
          f.caller_slot_base + static_cast<std::size_t>(site.result_slot);
      const std::size_t from =
          f.slot_base + static_cast<std::size_t>(meta.result_slot);
      slots_[to] = slots_[from];
      if (shadow_) shadow_slots_[to] = shadow_slots_[from];
    }
  }

  pc = f.return_pc;
  slots_.resize(f.slot_base);
  if (shadow_) shadow_slots_.resize(f.slot_base);
  frames_.pop_back();
  if (!frames_.empty()) frames_.back().child_cycles += inclusive;
  return Status::ok();
}

RunResult Vm::call(const std::string& qualified_proc) {
  RunResult result;
  const auto it = program_->proc_index.find(qualified_proc);
  if (it == program_->proc_index.end()) {
    result.status = Status(StatusCode::kNotFound, "no procedure '" + qualified_proc + "'");
    return result;
  }
  const ProcMeta& meta = program_->procs[static_cast<std::size_t>(it->second)];
  if (!meta.scalar_param_slots.empty() || !meta.arrays.empty()) {
    // Entry procedures may reference module arrays (bound lazily as globals),
    // but must not have dummies.
    for (const auto& a : meta.arrays) {
      if (a.binding == ArrayBinding::kDummy) {
        result.status = Status(StatusCode::kInvalidArgument,
                               "entry procedure must have no arguments");
        return result;
      }
    }
    if (!meta.scalar_param_slots.empty()) {
      result.status = Status(StatusCode::kInvalidArgument,
                             "entry procedure must have no arguments");
      return result;
    }
  }

  // Decode up front: a decode failure (malformed program) must surface
  // before any frame is pushed or any cycle is charged.
  auto decoded = ensure_decoded();
  if (!decoded.is_ok()) {
    result.status = decoded.status();
    return result;
  }

  run_start_cycles_ = clock_.now();
  const double cast_start = cast_cycles_;
  const std::uint64_t instr_start = instructions_;
  op_mix_ = OpMix{};  // per-call mix (observability; see RunResult::op_mix)
  fused_ = FusedStats{};

  Status pushed = push_frame(it->second, /*site_index=*/-1, /*return_pc=*/-1);
  if (!pushed.is_ok()) {
    result.status = pushed;
    return result;
  }
  if (shadow_) {
    result.status = vm_engine_shadow(this, decoded.value());
  } else if (resolved_dispatch() == VmDispatch::kThreaded) {
    result.status = vm_engine_threaded(this, decoded.value(), nullptr);
  } else {
    result.status = vm_engine_switch(this, decoded.value());
  }
  if (shadow_ && !result.status.is_ok()) note_shadow_fault(result.status);
  // Unwind any remaining frames on fault/timeout so the VM can be reused.
  while (!frames_.empty()) {
    const Frame& f = frames_.back();
    const ProcMeta& m = program_->procs[static_cast<std::size_t>(f.proc)];
    if (m.instrument) (void)timers_.stop(timer_region(f.proc));
    slots_.resize(f.slot_base);
    frames_.pop_back();
  }
  result.cycles = clock_.now() - run_start_cycles_;
  result.cast_cycles = cast_cycles_ - cast_start;
  result.instructions = instructions_ - instr_start;
  result.op_mix = op_mix_;
  result.fused = fused_;
  return result;
}

// ---------------------------------------------------------------------------
// Dispatch policy. The engines themselves are vm_engine_{switch,threaded,
// shadow}.cpp, one expansion of vm_engine.inc each.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Shadow execution: tables, fault attribution, the report. The
// per-instruction hooks are in vm_shadow.h.
// ---------------------------------------------------------------------------

std::int32_t Vm::shadow_var_index(const std::string& name) {
  if (name.empty()) return -1;
  const auto it = shadow_var_index_.find(name);
  if (it != shadow_var_index_.end()) return it->second;
  const auto idx = static_cast<std::int32_t>(shadow_vars_.size());
  shadow_var_index_[name] = idx;
  shadow_vars_.push_back(ShadowVarStats{});
  shadow_var_names_.push_back(name);
  return idx;
}

void Vm::init_shadow_tables() {
  global_var_.resize(program_->global_scalars.size(), -1);
  for (std::size_t g = 0; g < program_->global_scalars.size(); ++g) {
    global_var_[g] = shadow_var_index(program_->global_scalars[g].qualified);
  }
  slot_var_.resize(program_->procs.size());
  array_var_.resize(program_->procs.size());
  for (std::size_t p = 0; p < program_->procs.size(); ++p) {
    const ProcMeta& meta = program_->procs[p];
    slot_var_[p].assign(static_cast<std::size_t>(meta.num_slots), -1);
    for (std::size_t s = 0; s < meta.slot_names.size() &&
                            s < slot_var_[p].size(); ++s) {
      slot_var_[p][s] = shadow_var_index(meta.slot_names[s]);
    }
    array_var_[p].assign(meta.arrays.size(), -1);
    for (std::size_t a = 0; a < meta.arrays.size(); ++a) {
      const ArraySlotMeta& am = meta.arrays[a];
      std::string name = am.name;
      if (name.empty() && am.binding == ArrayBinding::kGlobal) {
        name = program_->global_arrays[static_cast<std::size_t>(am.global_index)]
                   .qualified;
      }
      array_var_[p][a] = shadow_var_index(name);
    }
  }
}

void Vm::note_shadow_fault(const Status& status) {
  if (frames_.empty()) return;
  const Frame& f = frames_.back();
  shadow_fault_proc_ = f.proc;
  shadow_procs_[static_cast<std::size_t>(f.proc)].faulted = true;
  const double inf = std::numeric_limits<double>::infinity();
  note_shadow_div(inf, f.proc, fault_pc_);
  if (status.code() != StatusCode::kRuntimeFault || fault_pc_ < 0) return;
  // Name the overflow/non-finite target when the faulting instruction has
  // one — this is how "demote cond_probe → binary32 overflow" gets pinned to
  // the variable instead of just the procedure.
  const Instr& in = program_->code[static_cast<std::size_t>(fault_pc_)];
  const auto& vars = slot_var_[static_cast<std::size_t>(f.proc)];
  const auto named_slot = [&](std::int32_t s) -> std::int32_t {
    if (s < 0 || static_cast<std::size_t>(s) >= vars.size()) return -1;
    return vars[static_cast<std::size_t>(s)];
  };
  std::int32_t var = -1;
  switch (in.op) {
    case Op::kStoreGlobal:
      var = global_var_[static_cast<std::size_t>(in.aux)];
      break;
    case Op::kStoreElem:
    case Op::kArrayFill:
    case Op::kArrayCopy:
      var = array_var_[static_cast<std::size_t>(f.proc)]
                      [static_cast<std::size_t>(in.aux)];
      break;
    default:
      var = named_slot(in.dst);
      break;
  }
  if (var >= 0) note_shadow_var(var, inf);
}

ShadowReport Vm::shadow_report() const {
  ShadowReport report;
  report.enabled = shadow_;
  if (!shadow_) return report;
  report.max_rel_div = shadow_max_div_;
  report.cancellations = shadow_cancellations_;
  report.control_divergences = shadow_control_divs_;
  if (first_div_proc_ >= 0) {
    const ProcMeta& meta = program_->procs[static_cast<std::size_t>(first_div_proc_)];
    report.has_first_divergence = true;
    report.first_divergence_proc = meta.qualified();
    report.first_divergence_instr =
        first_div_instr_ >= 0 ? first_div_instr_ - meta.first_instr : -1;
  }
  if (shadow_fault_proc_ >= 0) {
    report.fault_proc =
        program_->procs[static_cast<std::size_t>(shadow_fault_proc_)].qualified();
  }
  for (std::size_t v = 0; v < shadow_vars_.size(); ++v) {
    if (shadow_vars_[v].writes == 0) continue;
    report.vars[shadow_var_names_[v]] = shadow_vars_[v];
  }
  for (std::size_t p = 0; p < shadow_procs_.size(); ++p) {
    const ShadowProcStats& ps = shadow_procs_[p];
    const bool active = ps.introduced_sum > 0.0 || ps.cancellations > 0 ||
                        ps.control_divergences > 0 || ps.cast_cycles > 0.0 ||
                        ps.max_rel_div > 0.0 || ps.faulted;
    if (!active) continue;
    report.procs[program_->procs[p].qualified()] = ps;
  }
  return report;
}

}  // namespace prose::sim
