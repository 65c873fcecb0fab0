// Golden oracle for the paper's four models: both dispatch loops must
// reproduce the checked-in lines of tests/golden/vm_goldens.txt (see
// golden.h). Per model, three configurations — all-64, uniform-32, and the
// default campaign's 1-minimal configuration (its key is stored on the
// golden line) — each recorded as the plain run under every dispatch plus a
// digest of the shadow diagnosis. Two more cases pin the custom-format
// (k-level) path the same way: funarc in uniform bfloat16, and the
// 1-minimal configuration of the four-format MPAS-A campaign. The journal
// goldens live in vm_dispatch_test.cpp (VmDispatchCampaign.GoldenJournalHashes).
// A static opcode census over every golden program closes the file.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ftn/sema.h"
#include "ftn/transform.h"
#include "golden.h"
#include "golden_programs.h"
#include "models/models.h"
#include "prec/format.h"
#include "sim/compile.h"
#include "sim/decode.h"
#include "sim/vm.h"
#include "test_util.h"
#include "tuner/campaign.h"
#include "tuner/evaluator.h"

namespace prose {
namespace {

using prose::testing::bits;
using prose::testing::expect_golden;
using prose::testing::golden_field;
using prose::testing::hex64;
using sim::VmDispatch;

constexpr VmDispatch kEngines[] = {VmDispatch::kSwitch, VmDispatch::kThreaded};

/// Every field of a BlameReport, doubles as bit patterns — the text whose
/// hash the golden diag line stores.
std::string render_blame(const tuner::BlameReport& r) {
  std::string s = "key=" + r.key + "\noutcome=" + tuner::to_string(r.outcome);
  s += "\nmax_rel_div=" + bits(r.max_rel_div);
  s += " cancellations=" + std::to_string(r.cancellations);
  s += " control_divergences=" + std::to_string(r.control_divergences);
  if (r.has_first_divergence) {
    s += "\nfirst=" + r.first_divergence_proc + "@" +
         std::to_string(r.first_divergence_instr);
  }
  s += "\nfault=" + r.fault_proc;
  for (const tuner::VariableBlame& v : r.variables) {
    s += "\nvar " + v.qualified + (v.demoted ? " demoted" : " kept") +
         " max=" + bits(v.max_rel_div) + " writes=" + std::to_string(v.writes);
  }
  for (const tuner::ProcedureBlame& p : r.procedures) {
    s += "\nproc " + p.qualified + " blame=" + bits(p.blame) +
         " isum=" + bits(p.introduced_sum) + " imax=" + bits(p.introduced_max) +
         " max=" + bits(p.max_rel_div) +
         " cancellations=" + std::to_string(p.cancellations) +
         " control=" + std::to_string(p.control_divergences) +
         " cast=" + bits(p.cast_cycles) + (p.faulted ? " faulted" : "");
  }
  return s;
}

/// Transforms and compiles `config` the way the evaluator does, with the
/// hotspot instrumented. A failure's message is the golden line's error text.
StatusOr<sim::CompiledProgram> compile_config(const tuner::TargetSpec& spec,
                                              const ftn::ResolvedProgram& pristine,
                                              const tuner::SearchSpace& space,
                                              const tuner::Config& config) {
  auto variant = ftn::make_variant(pristine.program, space.to_assignment(config));
  if (!variant.is_ok()) {
    return Status(variant.status().code(),
                  "transform-error " + variant.status().to_string());
  }
  sim::CompileOptions copts;
  for (const auto& proc : spec.hotspot_procs) copts.instrument.insert(proc);
  auto compiled = sim::compile(variant.value(), spec.machine, copts);
  if (!compiled.is_ok()) {
    return Status(compiled.status().code(),
                  "compile-error " + compiled.status().to_string());
  }
  return compiled;
}

/// Runs `config` the way the evaluator does (compile_config, set up, call
/// the entry) on one engine.
std::string run_config_line(const std::string& id, const tuner::TargetSpec& spec,
                            const ftn::ResolvedProgram& pristine,
                            const tuner::SearchSpace& space,
                            const tuner::Config& config, double cycle_budget,
                            VmDispatch engine) {
  auto compiled = compile_config(spec, pristine, space, config);
  if (!compiled.is_ok()) return id + " " + compiled.status().message();
  sim::VmOptions vopts;
  vopts.cycle_budget = cycle_budget;
  vopts.dispatch = engine;
  sim::Vm vm(&compiled.value(), vopts);
  if (spec.setup) {
    if (Status s = spec.setup(vm); !s.is_ok()) return id + " setup-error " + s.to_string();
  }
  const sim::RunResult run = vm.call(spec.entry);
  return prose::testing::run_line(id, run, vm.print_log());
}

/// One golden case: the id its lines carry, and the kind every atom gets,
/// or 0 for the configuration whose key its golden line stores (key=).
struct GoldenCase {
  std::string id;
  int uniform_kind = 0;
};

/// The configuration of one case: uniform, or the key on its golden line.
tuner::Config case_config(const GoldenCase& c, const tuner::SearchSpace& space) {
  if (c.uniform_kind != 0) return space.uniform(c.uniform_kind);
  tuner::Config config;
  config.kinds = prec::parse_kind_key(golden_field(c.id, "key"));
  return config;
}

/// Checks each case's plain run under every engine and its shadow
/// diagnosis against the golden lines.
void check_cases(const tuner::TargetSpec& spec, const std::vector<GoldenCase>& cases) {
  auto ev = tuner::Evaluator::create(spec);
  ASSERT_TRUE(ev.is_ok()) << ev.status().to_string();
  auto pristine = ftn::parse_and_resolve(spec.source, spec.name);
  ASSERT_TRUE(pristine.is_ok()) << pristine.status().to_string();
  const tuner::SearchSpace& space = (*ev)->space();
  // The evaluator's timeout rule: 3x the baseline's simulated cycles.
  const double budget = 3.0 * (*ev)->baseline().whole_cycles;

  for (const GoldenCase& c : cases) {
    const std::string& id = c.id;
    const std::string key = golden_field(id, "key");
    ASSERT_TRUE(c.uniform_kind != 0 || !key.empty()) << "no key= on golden line " << id;
    const tuner::Config config = case_config(c, space);
    ASSERT_EQ(config.kinds.size(), space.size()) << id;
    for (const VmDispatch engine : kEngines) {
      std::string line = run_config_line(id, spec, pristine.value(), space, config,
                                         budget, engine);
      if (!key.empty()) line.insert(id.size(), " key=" + key);
      expect_golden(line, std::string(" under ") + tuner::to_string(engine));
    }
    auto report = (*ev)->diagnose(config);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    expect_golden(id + ".diag outcome=" + tuner::to_string(report->outcome) +
                  " variables=" + std::to_string(report->variables.size()) +
                  " procedures=" + std::to_string(report->procedures.size()) +
                  " blame=" + hex64(fnv1a64(render_blame(report.value()))));
  }
}

std::vector<GoldenCase> model_cases(const std::string& model) {
  return {{model + ".all64", 8}, {model + ".uniform32", 4}, {model + ".minimal"}};
}

/// `spec` on the four-format k-level lattice.
tuner::TargetSpec klevel(tuner::TargetSpec spec) {
  spec.formats = prec::parse_format_list("binary16,bfloat16,binary32,binary64");
  return spec;
}

// The k-level lattice: every real atom in one custom format, and the
// 1-minimal configuration of the default four-format MPAS-A campaign.
std::vector<GoldenCase> funarc_bfloat16_cases() {
  return {{"funarc.uniform_bfloat16", prec::kind_from_name("bfloat16")}};
}
std::vector<GoldenCase> mpas_klevel_cases() { return {{"mpas.klevel.minimal"}}; }

TEST(VmGolden, Funarc) { check_cases(models::funarc_target(), model_cases("funarc")); }
TEST(VmGolden, Mpas) { check_cases(models::mpas_target(), model_cases("mpas")); }
TEST(VmGolden, Adcirc) { check_cases(models::adcirc_target(), model_cases("adcirc")); }
TEST(VmGolden, Mom6) { check_cases(models::mom6_target(), model_cases("mom6")); }
TEST(VmGolden, FunarcUniformBfloat16) {
  check_cases(klevel(models::funarc_target()), funarc_bfloat16_cases());
}
TEST(VmGolden, MpasKLevelMinimal) {
  check_cases(klevel(models::mpas_target()), mpas_klevel_cases());
}

// Static opcode census: every decoded opcode appears in the fused or the
// unfused stream of at least one golden program (the models' golden
// configurations and the hand-written program.* sources), so a golden line
// pins each handler. kNop is exempt; bytecode.h says why.
TEST(VmGolden, EveryOpcodeIsDecodedInSomeGoldenProgram) {
  std::vector<bool> seen(sim::kNumXOps, false);
  const auto census = [&](const std::string& id, const sim::CompiledProgram& p) {
    for (const bool fuse : {true, false}) {
      auto decoded = sim::decode(p, sim::DecodeOptions{.fuse = fuse});
      ASSERT_TRUE(decoded.is_ok()) << id << ": " << decoded.status().to_string();
      for (const sim::DecodedInstr& in : decoded.value()->code) {
        seen[static_cast<std::size_t>(in.op)] = true;
      }
    }
  };
  for (const auto& [id, source] : prose::testing::kGoldenPrograms) {
    auto compiled = sim::compile(prose::testing::must_resolve(source), sim::MachineModel{});
    ASSERT_TRUE(compiled.is_ok()) << id << ": " << compiled.status().to_string();
    census(id, compiled.value());
  }
  const std::pair<tuner::TargetSpec, std::vector<GoldenCase>> model_goldens[] = {
      {models::funarc_target(), model_cases("funarc")},
      {models::mpas_target(), model_cases("mpas")},
      {models::adcirc_target(), model_cases("adcirc")},
      {models::mom6_target(), model_cases("mom6")},
      {klevel(models::funarc_target()), funarc_bfloat16_cases()},
      {klevel(models::mpas_target()), mpas_klevel_cases()},
  };
  for (const auto& [spec, cases] : model_goldens) {
    auto ev = tuner::Evaluator::create(spec);
    ASSERT_TRUE(ev.is_ok()) << ev.status().to_string();
    auto pristine = ftn::parse_and_resolve(spec.source, spec.name);
    ASSERT_TRUE(pristine.is_ok()) << pristine.status().to_string();
    for (const GoldenCase& c : cases) {
      auto compiled = compile_config(spec, pristine.value(), (*ev)->space(),
                                     case_config(c, (*ev)->space()));
      ASSERT_TRUE(compiled.is_ok()) << c.id << ": " << compiled.status().to_string();
      census(c.id, compiled.value());
    }
  }

  static constexpr const char* kNames[] = {
#define PROSE_XOP_NAME(name) #name,
      PROSE_VM_FOR_EACH_XOP(PROSE_XOP_NAME)
#undef PROSE_XOP_NAME
  };
  for (std::size_t op = 0; op < sim::kNumXOps; ++op) {
    if (op == static_cast<std::size_t>(sim::XOp::kNop)) continue;
    EXPECT_TRUE(seen[op]) << kNames[op] << " is in no golden program's decoded stream";
  }
}

}  // namespace
}  // namespace prose
