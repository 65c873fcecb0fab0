// Shadow-precision execution tests: the binary64 shadow must (a) never
// perturb the primary run — cycles, outputs, and cast accounting are
// bit-identical with shadow on or off — and (b) account divergence,
// catastrophic cancellation, first-divergence sites, and fault sites.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "ftn/transform.h"
#include "sim/compile.h"
#include "sim/vm.h"
#include "test_util.h"

namespace prose::sim {
namespace {

using prose::testing::must_resolve;

struct Harness {
  ftn::ResolvedProgram rp;
  CompiledProgram compiled;
  std::unique_ptr<Vm> vm;
};

Harness make(const std::string& src, VmOptions vopts = {}) {
  Harness h{must_resolve(src), {}, nullptr};
  auto compiled = compile(h.rp, MachineModel{}, CompileOptions{});
  if (!compiled.is_ok()) {
    throw std::runtime_error("compile failed: " + compiled.status().to_string());
  }
  h.compiled = std::move(compiled.value());
  h.vm = std::make_unique<Vm>(&h.compiled, vopts);
  return h;
}

// A mixed-precision accumulation: the f32 accumulator silently swallows the
// tiny increments (1 + 1e-8 rounds back to 1 in binary32) while the binary64
// shadow keeps them — the canonical "error born here" pattern.
const char* kAccumulateSource = R"f(
module m
  real(kind=4) :: acc
  real(kind=4) :: tiny4
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i
    tiny4 = 1.0d-8
    acc = 1.0
    do i = 1, 1000
      acc = acc + tiny4
    end do
    out = acc
  end subroutine go
end module m
)f";

TEST(ShadowVm, NeutralPrimaryRunIsBitIdentical) {
  auto plain = make(kAccumulateSource);
  auto plain_run = plain.vm->call("m::go");
  ASSERT_TRUE(plain_run.status.is_ok()) << plain_run.status.to_string();

  VmOptions vopts;
  vopts.shadow = true;
  auto shadowed = make(kAccumulateSource, vopts);
  auto shadow_run = shadowed.vm->call("m::go");
  ASSERT_TRUE(shadow_run.status.is_ok()) << shadow_run.status.to_string();

  // Exact comparisons on purpose: shadow bookkeeping must not change one
  // simulated cycle or rounded bit of the primary execution.
  EXPECT_EQ(plain_run.cycles, shadow_run.cycles);
  EXPECT_EQ(plain_run.cast_cycles, shadow_run.cast_cycles);
  EXPECT_EQ(plain.vm->get_scalar("m::out").value(),
            shadowed.vm->get_scalar("m::out").value());
}

TEST(ShadowVm, AccountsDivergenceOfDemotedAccumulator) {
  VmOptions vopts;
  vopts.shadow = true;
  auto h = make(kAccumulateSource, vopts);
  ASSERT_TRUE(h.vm->call("m::go").status.is_ok());

  const ShadowReport report = h.vm->shadow_report();
  ASSERT_TRUE(report.enabled);
  // Shadow sees 1 + 1000e-8 = 1.00001; primary stays exactly 1.
  EXPECT_GT(report.max_rel_div, 1e-6);
  EXPECT_LT(report.max_rel_div, 1e-4);
  ASSERT_TRUE(report.vars.count("m::acc"));
  EXPECT_GT(report.vars.at("m::acc").max_rel_div, 1e-6);
  EXPECT_GT(report.vars.at("m::acc").writes, 0u);
  // The onset of accumulation is pinned to the loop body in m::go.
  ASSERT_TRUE(report.has_first_divergence);
  EXPECT_EQ(report.first_divergence_proc, "m::go");
  EXPECT_GE(report.first_divergence_instr, 0);
  ASSERT_TRUE(report.procs.count("m::go"));
  EXPECT_GT(report.procs.at("m::go").introduced_sum, 0.0);
}

TEST(ShadowVm, PureFloat64RunShowsNoDivergence) {
  VmOptions vopts;
  vopts.shadow = true;
  auto h = make(R"f(
module m
  real(kind=8) :: acc
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i
    acc = 1.0d0
    do i = 1, 100
      acc = acc + 1.0d-8
    end do
    out = acc * acc - acc
  end subroutine go
end module m
)f",
                vopts);
  ASSERT_TRUE(h.vm->call("m::go").status.is_ok());
  const ShadowReport report = h.vm->shadow_report();
  EXPECT_EQ(report.max_rel_div, 0.0);
  EXPECT_FALSE(report.has_first_divergence);
  EXPECT_TRUE(report.fault_proc.empty());
}

TEST(ShadowVm, DetectsCatastrophicCancellation) {
  VmOptions vopts;
  vopts.shadow = true;
  auto h = make(R"f(
module m
  real(kind=4) :: a4
  real(kind=4) :: b4
  real(kind=8) :: out
contains
  subroutine go()
    a4 = 1.5
    b4 = 1.5
    out = a4 - b4
  end subroutine go
end module m
)f",
                vopts);
  ASSERT_TRUE(h.vm->call("m::go").status.is_ok());
  const ShadowReport report = h.vm->shadow_report();
  // Complete cancellation to ±0 always counts.
  EXPECT_GE(report.cancellations, 1u);
  ASSERT_TRUE(report.procs.count("m::go"));
  EXPECT_GE(report.procs.at("m::go").cancellations, 1u);
}

TEST(ShadowVm, CustomFormatCancellationUsesItsMantissaTier) {
  // The same 1 + 2^-k minus 1 drops k binades. A format with no more
  // mantissa than binary32 (e8m23) counts a drop of 22 as a cancellation,
  // as binary32 does; a wider one (e12m40) needs binary64's 40 and does not
  // count a drop of 25.
  VmOptions vopts;
  vopts.shadow = true;
  auto h = make(R"f(
module m
  real(kind=1823) :: n, n1, nd
  real(kind=2240) :: w, w1, wd
contains
  subroutine narrow()
    n = 1.0000002384185791d0
    n1 = 1.0d0
    nd = n - n1
  end subroutine narrow
  subroutine wide()
    w = 1.0000000298023224d0
    w1 = 1.0d0
    wd = w - w1
  end subroutine wide
  subroutine go()
    call narrow()
    call wide()
  end subroutine go
end module m
)f",
                vopts);
  ASSERT_TRUE(h.vm->call("m::go").status.is_ok());
  const ShadowReport report = h.vm->shadow_report();
  EXPECT_EQ(report.cancellations, 1u);
  ASSERT_TRUE(report.procs.count("m::narrow"));
  EXPECT_EQ(report.procs.at("m::narrow").cancellations, 1u);
  EXPECT_EQ(report.procs.count("m::wide") ? report.procs.at("m::wide").cancellations : 0u,
            0u);
}

TEST(ShadowVm, NamesFaultSiteOnBinary32Overflow) {
  VmOptions vopts;
  vopts.shadow = true;
  auto h = make(R"f(
module m
  real(kind=4) :: x4
  real(kind=8) :: big
contains
  subroutine blow_up()
    big = 1.0d300
    x4 = big
  end subroutine blow_up
  subroutine go()
    call blow_up()
  end subroutine go
end module m
)f",
                vopts);
  auto run = h.vm->call("m::go");
  ASSERT_FALSE(run.status.is_ok());
  const ShadowReport report = h.vm->shadow_report();
  EXPECT_EQ(report.fault_proc, "m::blow_up");
}

}  // namespace
}  // namespace prose::sim
