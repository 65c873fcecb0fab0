// Microbenchmarks (google-benchmark) for the substrate itself: frontend
// throughput, transformation cost, reduction cost, VM execution rate (plain
// and shadowed), and the custom-format quantizer every k-level arithmetic
// op pays.
// These are the components whose per-variant cost the campaign scheduler
// models (T0-T3 of the artifact's workflow).
#include <benchmark/benchmark.h>

#include <cmath>
#include <set>
#include <vector>

#include "ftn/callgraph.h"
#include "ftn/lexer.h"
#include "ftn/paramflow.h"
#include "ftn/parser.h"
#include "ftn/reduce.h"
#include "ftn/sema.h"
#include "ftn/transform.h"
#include "ftn/unparse.h"
#include "models/models.h"
#include "prec/format.h"
#include "sim/compile.h"
#include "sim/vm.h"
#include "support/rng.h"

namespace {

using namespace prose;

const std::string& mpas_src() {
  static const std::string src = models::mpas_source();
  return src;
}

const ftn::ResolvedProgram& mpas_resolved() {
  static ftn::ResolvedProgram rp = [] {
    auto r = ftn::parse_and_resolve(mpas_src());
    PROSE_CHECK(r.is_ok());
    return std::move(r.value());
  }();
  return rp;
}

void BM_Lex(benchmark::State& state) {
  for (auto _ : state) {
    auto tokens = ftn::lex(mpas_src(), "mpas");
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(mpas_src().size()));
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto prog = ftn::parse_source(mpas_src());
    benchmark::DoNotOptimize(prog);
  }
}
BENCHMARK(BM_Parse);

void BM_Resolve(benchmark::State& state) {
  for (auto _ : state) {
    auto prog = ftn::parse_source(mpas_src());
    auto rp = ftn::resolve(std::move(prog.value()));
    benchmark::DoNotOptimize(rp);
  }
}
BENCHMARK(BM_Resolve);

void BM_Unparse(benchmark::State& state) {
  const auto& rp = mpas_resolved();
  for (auto _ : state) {
    auto text = ftn::unparse(rp.program);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_Unparse);

void BM_CallGraphAndFlow(benchmark::State& state) {
  const auto& rp = mpas_resolved();
  for (auto _ : state) {
    const auto cg = ftn::CallGraph::build(rp);
    const auto pf = ftn::build_param_flow(rp, cg);
    benchmark::DoNotOptimize(pf.edges.size());
  }
}
BENCHMARK(BM_CallGraphAndFlow);

/// MPAS-A's uniform-binary32 variant: every real declaration of the atom
/// scope lowered to kind 4.
ftn::PrecisionAssignment mpas_uniform32() {
  ftn::PrecisionAssignment pa;
  for (const auto& sym : mpas_resolved().symbols.all()) {
    if (sym.is_variable() && sym.type.is_real() &&
        sym.module_name == "atm_time_integration") {
      pa.kinds[sym.decl_node] = 4;
    }
  }
  return pa;
}

void BM_MakeVariantWithWrappers(benchmark::State& state) {
  const auto& rp = mpas_resolved();
  // Lower every atom-scope declaration: maximal wrapper generation work.
  const ftn::PrecisionAssignment pa = mpas_uniform32();
  for (auto _ : state) {
    auto variant = ftn::make_variant(rp.program, pa);
    benchmark::DoNotOptimize(variant);
  }
}
BENCHMARK(BM_MakeVariantWithWrappers);

void BM_TaintReduction(benchmark::State& state) {
  const auto& rp = mpas_resolved();
  std::set<ftn::NodeId> targets;
  for (const auto& sym : rp.symbols.all()) {
    if (sym.is_variable() && sym.type.is_real() && sym.proc_name == "flux4") {
      targets.insert(sym.decl_node);
    }
  }
  for (auto _ : state) {
    auto reduced = ftn::reduce_for_targets(rp, targets);
    benchmark::DoNotOptimize(reduced);
  }
}
BENCHMARK(BM_TaintReduction);

void BM_CompileBytecode(benchmark::State& state) {
  const auto& rp = mpas_resolved();
  for (auto _ : state) {
    auto compiled = sim::compile(rp, sim::MachineModel{});
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileBytecode);

void BM_VmFullModelRun(benchmark::State& state) {
  const auto& rp = mpas_resolved();
  auto compiled = sim::compile(rp, sim::MachineModel{});
  PROSE_CHECK(compiled.is_ok());
  sim::Vm vm(&compiled.value());
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    vm.reset();
    auto r = vm.call("mpas_model::run_model");
    PROSE_CHECK(r.status.is_ok());
    instructions += r.instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
  state.SetLabel("items = VM instructions");
}
BENCHMARK(BM_VmFullModelRun);

/// Shadow execution (VmOptions::shadow, the engine behind
/// Evaluator::diagnose) of MPAS-A's uniform-binary32 variant, whose binary32
/// values diverge from their binary64 shadows, so every divergence tally is
/// live. Compare its rate with BM_VmFullModelRun's.
void BM_VmShadowRun(benchmark::State& state) {
  auto variant = ftn::make_variant(mpas_resolved().program, mpas_uniform32());
  PROSE_CHECK(variant.is_ok());
  auto compiled = sim::compile(variant.value(), sim::MachineModel{});
  PROSE_CHECK(compiled.is_ok());
  sim::VmOptions vopts;
  vopts.shadow = true;
  sim::Vm vm(&compiled.value(), vopts);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    vm.reset();
    auto r = vm.call("mpas_model::run_model");
    PROSE_CHECK(r.status.is_ok());
    PROSE_CHECK(vm.shadow_report().max_rel_div > 0.0);
    instructions += r.instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
  state.SetLabel("items = VM instructions");
}
BENCHMARK(BM_VmShadowRun);

/// One Quantizer::round per item, resolved once per format as the VM does,
/// over binary64 values spread across 2^-24..2^16 (binary16's subnormal
/// through overflow range). ns per call = 1e9 / items_per_second.
void BM_PrecQuantize(benchmark::State& state) {
  const auto kind = static_cast<int>(state.range(0));
  const prec::Quantizer quant(prec::decode_kind(kind));
  Rng rng(2024);
  std::vector<double> xs(4096);
  for (double& x : xs) {
    const int exponent = -24 + static_cast<int>(rng.uniform_index(40));
    x = std::ldexp(rng.uniform(-2.0, 2.0), exponent);
  }
  for (auto _ : state) {
    bool any_overflow = false;
    for (const double x : xs) {
      bool ovf = false;
      benchmark::DoNotOptimize(quant.round(x, ovf));
      any_overflow |= ovf;
    }
    benchmark::DoNotOptimize(any_overflow);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * xs.size()));
  state.SetLabel(prec::kind_name(kind) + ", items = quantize calls");
}
// binary16, bfloat16, e8m23 and e12m40 (a wide exponent: no subnormal range
// inside binary64).
BENCHMARK(BM_PrecQuantize)->Arg(1510)->Arg(1807)->Arg(1823)->Arg(2240);

}  // namespace

BENCHMARK_MAIN();
