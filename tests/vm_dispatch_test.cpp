// Dispatch-mode equivalence suite: switch and threaded dispatch, fused and
// unfused streams, and shadow and plain runs must be BIT-IDENTICAL in
// everything a run measures — outcomes, error metrics, simulated cycles,
// cast accounting, OpMix, print log — and must reproduce the checked-in
// goldens (golden.h). They are allowed to differ in exactly two
// observables: host wall-clock time and the FusedStats dispatch counters
// (zero under fuse=false and under shadow). Campaigns run once, on the
// engine the build picked, against golden lines that both engines
// reproduced when they were recorded; a build without computed goto runs
// the same lines on the switch engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "golden.h"
#include "golden_programs.h"
#include "models/models.h"
#include "prec/format.h"
#include "sim/compile.h"
#include "sim/decode.h"
#include "sim/vm.h"
#include "support/strings.h"
#include "test_util.h"
#include "tuner/campaign.h"
#include "tuner/report.h"

namespace prose {
namespace {

using prose::testing::expect_golden;
using prose::testing::hex64;
using prose::testing::kAllOpsSource;
using prose::testing::kFaultSource;
using prose::testing::kFmtCastOverflowSource;
using prose::testing::kFmtCopyOverflowSource;
using prose::testing::kFmtNanSource;
using prose::testing::kFmtOverflowSource;
using prose::testing::kFmtParamOverflowSource;
using prose::testing::kFmtSource;
using prose::testing::kLogicSource;
using prose::testing::kMixedSource;
using prose::testing::kParamOverflowSource;
using prose::testing::kTimeoutSource;
using prose::testing::kTrapSource;
using prose::testing::must_resolve;
using sim::CompiledProgram;
using sim::RunResult;
using sim::Vm;
using sim::VmDispatch;
using sim::VmOptions;

// ---------------------------------------------------------------------------
// VM-level equivalence
// ---------------------------------------------------------------------------

struct Executed {
  RunResult run;
  std::string print_log;
  double now = 0.0;
};

CompiledProgram compile_src(const std::string& src) {
  auto rp = must_resolve(src);
  auto compiled = sim::compile(rp, sim::MachineModel{});
  if (!compiled.is_ok()) {
    throw std::runtime_error("compile failed: " + compiled.status().to_string());
  }
  return std::move(compiled.value());
}

Executed execute(Vm& vm, const std::string& entry = "m::go") {
  Executed e;
  e.run = vm.call(entry);
  e.print_log = vm.print_log();
  e.now = vm.now();
  return e;
}

Executed run_with(const CompiledProgram& p, VmDispatch dispatch,
                  VmOptions vopts = {}) {
  vopts.dispatch = dispatch;
  Vm vm(&p, vopts);
  return execute(vm);
}

/// Exact equality on everything but FusedStats (compared by the caller,
/// since it legitimately differs between engines).
void expect_same_run(const Executed& a, const Executed& b, const char* what) {
  EXPECT_EQ(a.run.status.code(), b.run.status.code()) << what;
  EXPECT_EQ(a.run.status.message(), b.run.status.message()) << what;
  EXPECT_EQ(a.run.cycles, b.run.cycles) << what;
  EXPECT_EQ(a.run.instructions, b.run.instructions) << what;
  EXPECT_EQ(a.run.cast_cycles, b.run.cast_cycles) << what;
  EXPECT_EQ(a.run.op_mix.fp32_arith, b.run.op_mix.fp32_arith) << what;
  EXPECT_EQ(a.run.op_mix.fp64_arith, b.run.op_mix.fp64_arith) << what;
  EXPECT_EQ(a.run.op_mix.int_arith, b.run.op_mix.int_arith) << what;
  EXPECT_EQ(a.run.op_mix.casts, b.run.op_mix.casts) << what;
  EXPECT_EQ(a.run.op_mix.mem, b.run.op_mix.mem) << what;
  EXPECT_EQ(a.run.op_mix.calls, b.run.op_mix.calls) << what;
  EXPECT_EQ(a.run.op_mix.branches, b.run.op_mix.branches) << what;
  EXPECT_EQ(a.run.op_mix.intrinsics, b.run.op_mix.intrinsics) << what;
  EXPECT_EQ(a.run.op_mix.other, b.run.op_mix.other) << what;
  EXPECT_EQ(a.run.op_mix.vector_loop_entries, b.run.op_mix.vector_loop_entries)
      << what;
  EXPECT_EQ(a.run.op_mix.scalar_loop_entries, b.run.op_mix.scalar_loop_entries)
      << what;
  EXPECT_EQ(a.print_log, b.print_log) << what;
  EXPECT_EQ(a.now, b.now) << what;
}

/// Checks one run against its golden line (tests/golden/vm_goldens.txt).
void expect_golden_run(const std::string& id, const Executed& e) {
  expect_golden(prose::testing::run_line(id, e.run, e.print_log));
}

/// Every ShadowReport field, doubles as bit patterns — the text whose hash
/// a program's .shadow golden line stores.
std::string render_shadow(const sim::ShadowReport& r) {
  using prose::testing::bits;
  std::string s = std::string("enabled=") + (r.enabled ? "1" : "0");
  s += " max_rel_div=" + bits(r.max_rel_div);
  s += " cancellations=" + std::to_string(r.cancellations);
  s += " control_divergences=" + std::to_string(r.control_divergences);
  if (r.has_first_divergence) {
    s += "\nfirst=" + r.first_divergence_proc + "@" +
         std::to_string(r.first_divergence_instr);
  }
  s += "\nfault=" + r.fault_proc;
  for (const auto& [name, v] : r.vars) {
    s += "\nvar " + name + " max=" + bits(v.max_rel_div) +
         " writes=" + std::to_string(v.writes);
  }
  for (const auto& [name, p] : r.procs) {
    s += "\nproc " + name + " isum=" + bits(p.introduced_sum) +
         " imax=" + bits(p.introduced_max) + " max=" + bits(p.max_rel_div) +
         " cancellations=" + std::to_string(p.cancellations) +
         " control=" + std::to_string(p.control_divergences) +
         " cast=" + bits(p.cast_cycles) + (p.faulted ? " faulted" : "");
  }
  return s;
}

/// Runs `p` shadowed and checks both halves against the goldens: the
/// primary run must reproduce the plain line of `id` (shadowing perturbs
/// nothing), and the report the `<id>.shadow` line.
void expect_golden_shadow(const std::string& id, const CompiledProgram& p,
                          VmOptions vopts = {}) {
  vopts.shadow = true;
  Vm vm(&p, vopts);
  const Executed e = execute(vm);
  expect_golden_run(id, e);
  const sim::ShadowReport report = vm.shadow_report();
  expect_golden(id + ".shadow vars=" + std::to_string(report.vars.size()) +
                " procs=" + std::to_string(report.procs.size()) +
                " report=" + hex64(fnv1a64(render_shadow(report))));
}

TEST(VmDispatch, MixedWorkloadIdenticalAcrossEngines) {
  const CompiledProgram p = compile_src(kMixedSource);
  const Executed sw = run_with(p, VmDispatch::kSwitch);
  const Executed threaded = run_with(p, VmDispatch::kThreaded);
  ASSERT_TRUE(sw.run.status.is_ok()) << sw.run.status.to_string();
  expect_same_run(sw, threaded, "switch vs threaded");
  expect_golden_run("program.mixed", sw);
  expect_golden_run("program.mixed", threaded);
  expect_golden_shadow("program.mixed", p);
  // Both dispatch loops run the same fused stream, so they agree on exactly
  // how many superinstructions they dispatched.
  EXPECT_GT(sw.run.fused.pairs(), 0u);
  EXPECT_EQ(sw.run.fused.loop_cond_jmp, threaded.run.fused.loop_cond_jmp);
  EXPECT_EQ(sw.run.fused.inc_jmp, threaded.run.fused.inc_jmp);
  EXPECT_EQ(sw.run.fused.cmp_jmp, threaded.run.fused.cmp_jmp);
  EXPECT_EQ(sw.run.fused.cast_mov, threaded.run.fused.cast_mov);
  EXPECT_EQ(sw.run.fused.cast_store, threaded.run.fused.cast_store);
  EXPECT_EQ(sw.run.fused.load_arith, threaded.run.fused.load_arith);
  EXPECT_EQ(sw.run.fused.arith_store, threaded.run.fused.arith_store);
  EXPECT_EQ(sw.run.fused.const_arith, threaded.run.fused.const_arith);
  EXPECT_EQ(sw.run.fused.load_const, threaded.run.fused.load_const);
  EXPECT_LE(sw.run.fused.covered(), sw.run.instructions);
}

TEST(VmDispatch, FusionNeutrality) {
  // fuse=false must not change a single measured value — only FusedStats.
  const CompiledProgram p = compile_src(kMixedSource);
  for (const VmDispatch d : {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
    VmOptions fused_on, fused_off;
    fused_off.fuse = false;
    const Executed on = run_with(p, d, fused_on);
    const Executed off = run_with(p, d, fused_off);
    expect_same_run(on, off, "fuse on vs off");
    EXPECT_GT(on.run.fused.pairs(), 0u);
    EXPECT_EQ(off.run.fused.pairs(), 0u);
  }
}

TEST(VmDispatch, RuntimeFaultIdenticalAcrossEngines) {
  // Out-of-bounds subscript hit mid-loop: same fault message, same partial
  // accounting at the moment of the fault.
  const CompiledProgram p = compile_src(kFaultSource);
  const Executed sw = run_with(p, VmDispatch::kSwitch);
  const Executed threaded = run_with(p, VmDispatch::kThreaded);
  ASSERT_FALSE(sw.run.status.is_ok());
  EXPECT_EQ(sw.run.status.code(), StatusCode::kRuntimeFault);
  expect_same_run(sw, threaded, "fault: switch vs threaded");
  expect_golden_run("program.fault", sw);
  expect_golden_run("program.fault", threaded);
  expect_golden_shadow("program.fault", p);
}

TEST(VmDispatch, NonFiniteTrapIdenticalAcrossEngines) {
  const CompiledProgram p = compile_src(kTrapSource);
  const Executed sw = run_with(p, VmDispatch::kSwitch);
  const Executed threaded = run_with(p, VmDispatch::kThreaded);
  ASSERT_FALSE(sw.run.status.is_ok());
  expect_same_run(sw, threaded, "trap: switch vs threaded");
  expect_golden_run("program.trap", sw);
  expect_golden_run("program.trap", threaded);
  expect_golden_shadow("program.trap", p);
}

TEST(VmDispatch, TimeoutIdenticalAcrossEngines) {
  // A cycle budget that trips mid-run: both dispatch loops check the budget
  // on the same 256-instruction stride, fused pairs included, so the timeout
  // fires at the identical instruction count and simulated time.
  const CompiledProgram p = compile_src(kTimeoutSource);
  VmOptions vopts;
  vopts.cycle_budget = 5000.0;
  const Executed sw = run_with(p, VmDispatch::kSwitch, vopts);
  const Executed threaded = run_with(p, VmDispatch::kThreaded, vopts);
  ASSERT_EQ(sw.run.status.code(), StatusCode::kTimeout) << sw.run.status.to_string();
  expect_same_run(sw, threaded, "timeout: switch vs threaded");
  expect_golden_run("program.timeout", sw);
  expect_golden_run("program.timeout", threaded);
  expect_golden_shadow("program.timeout", p, vopts);
}

TEST(VmDispatch, FormatOpsMatchGoldens) {
  const CompiledProgram p = compile_src(kFmtSource);
  for (const VmDispatch d : {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
    VmOptions fused_off;
    fused_off.fuse = false;
    const Executed on = run_with(p, d);
    const Executed off = run_with(p, d, fused_off);
    ASSERT_TRUE(on.run.status.is_ok()) << on.run.status.to_string();
    EXPECT_GT(on.run.op_mix.fmt_arith, 0u);
    expect_same_run(on, off, "fmt: fuse on vs off");
    expect_golden_run("program.fmt", on);
  }
  expect_golden_shadow("program.fmt", p);
}

TEST(VmDispatch, FormatOverflowFaultsMatchGoldens) {
  // binary16 tops out at 65504: an arithmetic result past it, an array copy
  // and a run-time conversion of a binary64 value past it are
  // directed-overflow faults; 0/0 is a non-finite-result fault.
  const struct {
    const char* id;
    const char* source;
  } cases[] = {
      {"program.fmt_overflow", kFmtOverflowSource},
      {"program.fmt_copy_overflow", kFmtCopyOverflowSource},
      {"program.fmt_cast_overflow", kFmtCastOverflowSource},
      {"program.fmt_nan", kFmtNanSource},
  };
  for (const auto& c : cases) {
    const CompiledProgram p = compile_src(c.source);
    for (const VmDispatch d : {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
      const Executed e = run_with(p, d);
      EXPECT_EQ(e.run.status.code(), StatusCode::kRuntimeFault) << c.id;
      expect_golden_run(c.id, e);
    }
    expect_golden_shadow(c.id, p);
  }
}

TEST(VmDispatch, OverflowingParameterTrapsLikeALiteral) {
  // A parameter whose value overflows its kind is not folded to +inf: the
  // assignment converts it at run time, and that cast faults exactly as the
  // literal's does.
  const struct {
    const char* id;
    const char* source;
    const char* message;
  } cases[] = {
      {"program.param_overflow", kParamOverflowSource,
       "overflow converting to real(kind=4) in m::go"},
      {"program.fmt_param_overflow", kFmtParamOverflowSource,
       "overflow converting to real(e5m10) in m::go"},
  };
  for (const auto& c : cases) {
    const CompiledProgram p = compile_src(c.source);
    for (const VmDispatch d : {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
      const Executed e = run_with(p, d);
      EXPECT_EQ(e.run.status.code(), StatusCode::kRuntimeFault) << c.id;
      EXPECT_EQ(e.run.status.message(), c.message) << c.id;
      expect_golden_run(c.id, e);
    }
    expect_golden_shadow(c.id, p);
  }
}

TEST(VmDispatch, AllOpsProgramMatchesGoldens) {
  const CompiledProgram p = compile_src(kAllOpsSource);
  // The ops are on the program's one straight-line loop body, so being in
  // the decoded streams means being dispatched; the golden's op counts pin
  // how often.
  const auto has = [](const sim::DecodedProgram& d, sim::XOp op) {
    return std::any_of(d.code.begin(), d.code.end(),
                       [op](const sim::DecodedInstr& in) { return in.op == op; });
  };
  auto fused = sim::decode(p, sim::DecodeOptions{.fuse = true});
  auto unfused = sim::decode(p, sim::DecodeOptions{.fuse = false});
  ASSERT_TRUE(fused.is_ok() && unfused.is_ok());
  for (const sim::XOp op :
       {sim::XOp::kCastInt, sim::XOp::kPowF32, sim::XOp::kCmpNe, sim::XOp::kOr,
        sim::XOp::kFusedCmpNeJmp}) {
    EXPECT_TRUE(has(*fused.value(), op)) << static_cast<int>(op);
  }
  for (const std::uint8_t mode : {0, 1, 2}) {
    EXPECT_TRUE(std::any_of(unfused.value()->code.begin(), unfused.value()->code.end(),
                            [mode](const sim::DecodedInstr& in) {
                              return in.op == sim::XOp::kCastInt && in.sub == mode;
                            }))
        << "kCastInt rounding mode " << static_cast<int>(mode);
  }

  for (const VmDispatch d : {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
    VmOptions fused_off;
    fused_off.fuse = false;
    const Executed on = run_with(p, d);
    const Executed off = run_with(p, d, fused_off);
    ASSERT_TRUE(on.run.status.is_ok()) << on.run.status.to_string();
    expect_same_run(on, off, "allops: fuse on vs off");
    EXPECT_GT(on.run.fused.cmp_jmp, 0u);
    expect_golden_run("program.allops", on);
  }
  expect_golden_shadow("program.allops", p);
}

TEST(VmDispatch, LogicAndPowerOpsMatchGoldens) {
  const CompiledProgram p = compile_src(kLogicSource);
  for (const VmDispatch d : {VmDispatch::kSwitch, VmDispatch::kThreaded}) {
    VmOptions fused_off;
    fused_off.fuse = false;
    const Executed on = run_with(p, d);
    const Executed off = run_with(p, d, fused_off);
    ASSERT_TRUE(on.run.status.is_ok()) << on.run.status.to_string();
    expect_same_run(on, off, "logic: fuse on vs off");
    EXPECT_GT(on.run.fused.arith_store, 0u);
    EXPECT_GT(on.run.fused.cast_store, 0u);
    expect_golden_run("program.logic", on);
  }
  expect_golden_shadow("program.logic", p);
}

TEST(VmDispatch, ShadowRunsUnfusedDecodedStream) {
  // A shadow Vm hooks every bytecode instruction, so it ignores a supplied
  // fused stream and runs its own unfused one on the shadow switch loop:
  // report and primary run match a shadow run with no stream supplied, and
  // the primary run matches a plain threaded run.
  const CompiledProgram p = compile_src(kMixedSource);
  auto fused = sim::decode(p, sim::DecodeOptions{.fuse = true});
  ASSERT_TRUE(fused.is_ok()) << fused.status().to_string();
  ASSERT_GT(fused.value()->fused_sites, 0u);

  VmOptions supplied;
  supplied.shadow = true;
  supplied.dispatch = VmDispatch::kThreaded;
  supplied.decoded = fused.value();
  Vm with_stream(&p, supplied);
  EXPECT_EQ(with_stream.resolved_dispatch(), VmDispatch::kSwitch);
  const Executed a = execute(with_stream);
  ASSERT_TRUE(a.run.status.is_ok()) << a.run.status.to_string();
  EXPECT_EQ(a.run.fused.pairs(), 0u);

  VmOptions own;
  own.shadow = true;
  Vm without_stream(&p, own);
  const Executed b = execute(without_stream);
  expect_same_run(a, b, "shadow: supplied fused stream vs own stream");
  const sim::ShadowReport report = with_stream.shadow_report();
  EXPECT_TRUE(report.enabled);
  EXPECT_GT(report.max_rel_div, 0.0);  // s4 is binary32: the shadow diverges
  EXPECT_EQ(report, without_stream.shadow_report());

  expect_same_run(a, run_with(p, VmDispatch::kThreaded), "shadow vs plain threaded");
}

TEST(VmDispatch, ResolutionRules) {
  // kAuto resolves to the build default; threaded degrades to switch when
  // the build lacks computed goto.
  const CompiledProgram p = compile_src(kMixedSource);
  {
    Vm vm(&p, {});
    EXPECT_EQ(vm.resolved_dispatch(), Vm::default_dispatch());
    EXPECT_NE(vm.resolved_dispatch(), VmDispatch::kAuto);
  }
  {
    VmOptions vopts;
    vopts.dispatch = VmDispatch::kThreaded;
    Vm vm(&p, vopts);
    EXPECT_EQ(vm.resolved_dispatch(), Vm::threaded_available()
                                          ? VmDispatch::kThreaded
                                          : VmDispatch::kSwitch);
  }
}

// ---------------------------------------------------------------------------
// Campaign-level goldens: the build's engine on the paper's models
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Golden line of one campaign: its journal's size and FNV-1a, the hash of
/// its search_line, and one FNV-1a hash over every other field a campaign
/// reports — the summary row (doubles as bit patterns), per-record attempts,
/// lost variants, final kinds, and the rendered Figure 6, final-variant and
/// diagnosis reports.
std::string campaign_line(const std::string& id, const tuner::CampaignResult& r,
                          const std::string& journal) {
  using prose::testing::bits;
  const tuner::CampaignSummary& s = r.summary;
  std::string rest = s.model + " " + std::to_string(s.total) + " " +
                     bits(s.pass_pct) + " " + bits(s.fail_pct) + " " +
                     bits(s.timeout_pct) + " " + bits(s.error_pct) + " " +
                     bits(s.lost_pct) + " " + bits(s.best_speedup) + " " +
                     (s.finished ? "1" : "0") + " " + bits(s.wall_hours) +
                     "\nattempts";
  for (const tuner::VariantRecord& rec : r.search.records) {
    rest += " " + std::to_string(rec.eval.attempts);
  }
  rest += "\nlost " + std::to_string(r.search.lost) + "\nkinds";
  for (const auto& [name, kind] : r.final_kinds) {
    rest += " " + name + "=" + std::to_string(kind);
  }
  rest += "\n" + tuner::figure6_csv(r.figure6) + "\n" +
          tuner::final_variant_report(r) + "\ndiagnosis " +
          (r.diagnosis.enabled ? "1 " : "0 ") +
          std::to_string(r.diagnosis.rejected) + " " +
          std::to_string(r.diagnosis.diagnosed) + "\n";
  if (r.diagnosis.enabled) rest += tuner::diagnosis_report(r);
  return id + " bytes=" + std::to_string(journal.size()) +
         " fnv=" + hex64(fnv1a64(journal)) +
         " records=" + std::to_string(r.search.records.size()) +
         " search=" +
         hex64(fnv1a64(prose::testing::search_line("search", r.search))) +
         " campaign=" + hex64(fnv1a64(rest));
}

/// Runs `spec` once with a journal on the build's engine and checks the
/// campaign against its golden line.
void expect_campaign_golden(const std::string& id,
                            const tuner::TargetSpec& spec,
                            tuner::CampaignOptions options) {
  options.journal_path =
      std::string(::testing::TempDir()) + "/vmdisp." + id + ".jsonl";
  auto result = tuner::run_campaign(spec, options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  expect_golden(campaign_line(id, result.value(), slurp(options.journal_path)));
}

tuner::CampaignOptions small_campaign(std::size_t jobs, bool diagnose,
                                      std::size_t max_variants = 0) {
  tuner::CampaignOptions options;
  options.cluster.nodes = 4;
  options.jobs = jobs;
  options.diagnose = diagnose;
  options.max_variants = max_variants;
  return options;
}

TEST(VmDispatchCampaign, FunarcAllJobsAndDiagnose) {
  // funarc is cheap enough for the full matrix; faults included so the
  // retry and quarantine paths execute.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    for (const bool diagnose : {false, true}) {
      tuner::CampaignOptions options = small_campaign(jobs, diagnose);
      options.fault_spec = "compile:p=0.08;transient:p=0.35;straggler:p=0.1,slow=4x";
      options.retry.max_attempts = 2;
      expect_campaign_golden("campaign.funarc.j" + std::to_string(jobs) +
                                 (diagnose ? ".diag" : ".plain"),
                             models::funarc_target(), options);
    }
  }
}

TEST(VmDispatchCampaign, Mom6) {
  expect_campaign_golden("campaign.mom6.j1", models::mom6_target(),
                         small_campaign(1, false, 12));
  expect_campaign_golden("campaign.mom6.j4.diag", models::mom6_target(),
                         small_campaign(4, true, 12));
}

TEST(VmDispatchCampaign, Adcirc) {
  expect_campaign_golden("campaign.adcirc.j1", models::adcirc_target(),
                         small_campaign(1, false, 12));
  expect_campaign_golden("campaign.adcirc.j4.diag", models::adcirc_target(),
                         small_campaign(4, true, 12));
}

TEST(VmDispatchCampaign, Mpas) {
  expect_campaign_golden("campaign.mpas.j1", models::mpas_target(),
                         small_campaign(1, false, 12));
  expect_campaign_golden("campaign.mpas.j4.diag", models::mpas_target(),
                         small_campaign(4, true, 12));
}

TEST(VmDispatchCampaign, GoldenJournalHashes) {
  // The journal bytes of a diagnosed funarc campaign and a k-level MPAS-A
  // campaign, pinned as golden hashes: the build's engine must write exactly
  // the recorded search, evaluations, and shadow-diagnosis provenance. (The
  // diagnosed MPAS-A journal is pinned by campaign.mpas.j4.diag in
  // VmDispatchCampaign.Mpas.)
  struct Case {
    const char* id;
    tuner::TargetSpec spec;
    std::size_t max_variants;
    bool diagnose = true;
    const char* formats = "";
  };
  const Case cases[] = {
      {"journal.funarc.j4.diag", models::funarc_target(), 0},
      {"journal.mpas.klevel.cap12.j4", models::mpas_target(), 12, false,
       "binary16,bfloat16,binary32,binary64"},
  };
  for (const Case& c : cases) {
    tuner::CampaignOptions options =
        small_campaign(4, c.diagnose, c.max_variants);
    options.formats = prec::parse_format_list(c.formats);
    options.journal_path =
        std::string(::testing::TempDir()) + "/vmdisp." + c.id + ".jsonl";
    auto result = tuner::run_campaign(c.spec, options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    const std::string bytes = slurp(options.journal_path);
    expect_golden(std::string(c.id) + " bytes=" + std::to_string(bytes.size()) +
                  " fnv=" + hex64(fnv1a64(bytes)));
  }
}

}  // namespace
}  // namespace prose
