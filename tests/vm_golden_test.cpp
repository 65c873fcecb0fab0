// Golden oracle for the paper's four models: both dispatch loops must
// reproduce the checked-in lines of tests/golden/vm_goldens.txt (see
// golden.h). Per model, three configurations — all-64, uniform-32, and the
// default campaign's 1-minimal configuration (its key is stored on the
// golden line) — each recorded as the plain run under every dispatch plus a
// digest of the shadow diagnosis. Two more cases pin the custom-format
// (k-level) path the same way: funarc in uniform bfloat16, and the
// 1-minimal configuration of the four-format MPAS-A campaign. The journal
// goldens live in vm_dispatch_test.cpp (VmDispatchCampaign.GoldenJournalHashes).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ftn/sema.h"
#include "ftn/transform.h"
#include "golden.h"
#include "models/models.h"
#include "prec/format.h"
#include "sim/compile.h"
#include "sim/vm.h"
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

/// Runs `config` the way the evaluator does (transform, compile with the
/// hotspot instrumented, set up, call the entry) on one engine.
std::string run_config_line(const std::string& id, const tuner::TargetSpec& spec,
                            const ftn::ResolvedProgram& pristine,
                            const tuner::SearchSpace& space,
                            const tuner::Config& config, double cycle_budget,
                            VmDispatch engine) {
  auto variant = ftn::make_variant(pristine.program, space.to_assignment(config));
  if (!variant.is_ok()) return id + " transform-error " + variant.status().to_string();
  sim::CompileOptions copts;
  for (const auto& proc : spec.hotspot_procs) copts.instrument.insert(proc);
  auto compiled = sim::compile(variant.value(), spec.machine, copts);
  if (!compiled.is_ok()) return id + " compile-error " + compiled.status().to_string();
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

  for (const auto& [id, uniform_kind] : cases) {
    const std::string key = golden_field(id, "key");
    tuner::Config config;
    if (uniform_kind != 0) {
      config = space.uniform(uniform_kind);
    } else {
      ASSERT_FALSE(key.empty()) << "no key= on golden line " << id;
      config.kinds = prec::parse_kind_key(key);
    }
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

void check_model(const std::string& model, const tuner::TargetSpec& spec) {
  check_cases(spec,
              {{model + ".all64", 8}, {model + ".uniform32", 4}, {model + ".minimal"}});
}

/// `spec` on the four-format k-level lattice.
tuner::TargetSpec klevel(tuner::TargetSpec spec) {
  spec.formats = prec::parse_format_list("binary16,bfloat16,binary32,binary64");
  return spec;
}

TEST(VmGolden, Funarc) { check_model("funarc", models::funarc_target()); }
TEST(VmGolden, Mpas) { check_model("mpas", models::mpas_target()); }
TEST(VmGolden, Adcirc) { check_model("adcirc", models::adcirc_target()); }
TEST(VmGolden, Mom6) { check_model("mom6", models::mom6_target()); }

// The k-level lattice: every real atom in one custom format, and the
// 1-minimal configuration of the default four-format MPAS-A campaign.
TEST(VmGolden, FunarcUniformBfloat16) {
  check_cases(klevel(models::funarc_target()),
              {{"funarc.uniform_bfloat16", prec::kind_from_name("bfloat16")}});
}
TEST(VmGolden, MpasKLevelMinimal) {
  check_cases(klevel(models::mpas_target()), {{"mpas.klevel.minimal"}});
}

}  // namespace
}  // namespace prose
