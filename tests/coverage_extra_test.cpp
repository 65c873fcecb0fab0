// Additional edge-case coverage across layers: 3-D arrays, logical
// plumbing, recursion under instrumentation, metric edge cases, scheduler
// corner cases, call-graph estimates, and frontend diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "ftn/callgraph.h"
#include "ftn/paramflow.h"
#include "sim/compile.h"
#include "sim/vm.h"
#include "support/cli.h"
#include "test_util.h"
#include "tuner/metrics.h"
#include "tuner/schedule.h"
#include "tuner/search_space.h"

namespace prose {
namespace {

using prose::testing::must_resolve;

// ---------------------------------------------------------------------------
// VM: rank-3 arrays and deeper plumbing
// ---------------------------------------------------------------------------

struct MiniVm {
  ftn::ResolvedProgram rp;
  sim::CompiledProgram compiled;
  std::unique_ptr<sim::Vm> vm;
};

MiniVm make_vm(const std::string& src, sim::CompileOptions copts = {}) {
  MiniVm h{must_resolve(src), {}, nullptr};
  auto compiled = sim::compile(h.rp, sim::MachineModel{}, copts);
  if (!compiled.is_ok()) {
    throw std::runtime_error(compiled.status().to_string());
  }
  h.compiled = std::move(compiled.value());
  h.vm = std::make_unique<sim::Vm>(&h.compiled);
  return h;
}

TEST(VmExtra, Rank3ArraysColumnMajor) {
  auto h = make_vm(R"f(
module m
  real(kind=8) :: cube(2, 3, 4)
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i, j, k
    do k = 1, 4
      do j = 1, 3
        do i = 1, 2
          cube(i, j, k) = dble(i * 100 + j * 10 + k)
        end do
      end do
    end do
    out = cube(2, 1, 3)
  end subroutine go
end module m
)f");
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::out").value(), 213.0);
  // Column-major linear index of (2,1,3): (2-1) + 2*(1-1) + 6*(3-1) = 13.
  EXPECT_DOUBLE_EQ(h.vm->get_array("m::cube").value()[13], 213.0);
}

TEST(VmExtra, Rank3OutOfBoundsOnMiddleDim) {
  auto h = make_vm(R"f(
module m
  real(kind=8) :: cube(2, 3, 4)
  integer :: j
contains
  subroutine go()
    cube(1, j, 1) = 1.0d0
  end subroutine go
end module m
)f");
  ASSERT_TRUE(h.vm->set_scalar("m::j", 4.0).is_ok());
  EXPECT_EQ(h.vm->call("m::go").status.code(), StatusCode::kRuntimeFault);
}

TEST(VmExtra, LogicalModuleVariablesAndEqv) {
  auto h = make_vm(R"f(
module m
  logical :: a, b, r1, r2, r3
contains
  subroutine go()
    a = .true.
    b = .false.
    r1 = a .and. .not. b
    r2 = a .eqv. b
    r3 = a .neqv. b
  end subroutine go
end module m
)f");
  ASSERT_TRUE(h.vm->call("m::go").status.is_ok());
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::r1").value(), 1.0);
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::r2").value(), 0.0);
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::r3").value(), 1.0);
}

TEST(VmExtra, RecursionUnderInstrumentationBalancesTimers) {
  sim::CompileOptions copts;
  copts.instrument.insert("m::fib");
  auto h = make_vm(R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    out = fib(8.0d0)
  end subroutine go
  function fib(n) result(r)
    real(kind=8), intent(in) :: n
    real(kind=8) :: r
    if (n < 2.0d0) then
      r = n
    else
      r = fib(n - 1.0d0) + fib(n - 2.0d0)
    end if
  end function fib
end module m
)f",
                   copts);
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::out").value(), 21.0);
  auto stats = h.vm->timers().stats("m::fib");
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->calls, 67u);  // calls of fib(8) counting memo-free recursion
  EXPECT_FALSE(h.vm->timers().any_open());
}

TEST(VmExtra, StackOverflowIsAFaultNotACrash) {
  auto h = make_vm(R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    out = spin(1.0d0)
  end subroutine go
  function spin(x) result(r)
    real(kind=8), intent(in) :: x
    real(kind=8) :: r
    r = spin(x + 1.0d0)
  end function spin
end module m
)f");
  EXPECT_EQ(h.vm->call("m::go").status.code(), StatusCode::kRuntimeFault);
}

TEST(VmExtra, PowIntAndModIntrinsics) {
  auto h = make_vm(R"f(
module m
  integer :: p
  real(kind=8) :: q
contains
  subroutine go()
    p = 3 ** 4
    q = mod(10.5d0, 3.0d0)
  end subroutine go
end module m
)f");
  ASSERT_TRUE(h.vm->call("m::go").status.is_ok());
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::p").value(), 81.0);
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::q").value(), 1.5);
}

TEST(VmExtra, SetArrayRejectsWrongSize) {
  auto h = make_vm(R"f(
module m
  real(kind=8) :: a(4)
contains
  subroutine go()
    a(1) = a(1)
  end subroutine go
end module m
)f");
  const std::vector<double> wrong(3, 0.0);
  EXPECT_FALSE(h.vm->set_array("m::a", wrong).is_ok());
  const std::vector<double> right(4, 2.5);
  EXPECT_TRUE(h.vm->set_array("m::a", right).is_ok());
  EXPECT_DOUBLE_EQ(h.vm->get_array("m::a").value()[2], 2.5);
  EXPECT_EQ(h.vm->get_array("m::a").value().size(), 4u);
}

// ---------------------------------------------------------------------------
// Metrics edge cases
// ---------------------------------------------------------------------------

TEST(MetricsExtra, SeriesErrorMismatchedLengthsIsInfinite) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_TRUE(std::isinf(tuner::series_error(a, b, 1)));
}

TEST(MetricsExtra, SeriesErrorBadGroupSizeIsInfinite) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  EXPECT_TRUE(std::isinf(tuner::series_error(a, a, 2)));  // 3 % 2 != 0
  EXPECT_TRUE(std::isinf(tuner::series_error(a, a, 0)));
}

TEST(MetricsExtra, SeriesErrorGroupMaxThenL2) {
  // Two groups of two: per-group max rel errors are 0.5 and 0.25.
  const std::vector<double> base = {1.0, 2.0, 4.0, 8.0};
  const std::vector<double> var = {1.5, 2.0, 4.0, 10.0};
  EXPECT_NEAR(tuner::series_error(base, var, 2),
              std::sqrt(0.5 * 0.5 + 0.25 * 0.25), 1e-12);
}

TEST(MetricsExtra, SeriesErrorNonFiniteVariantIsInfinite) {
  const std::vector<double> base = {1.0, 2.0};
  const std::vector<double> var = {1.0, std::nan("")};
  EXPECT_TRUE(std::isinf(tuner::series_error(base, var, 1)));
}

// ---------------------------------------------------------------------------
// Scheduler corner cases
// ---------------------------------------------------------------------------

TEST(ClusterExtra, EmptyBatchIsFreeAndCounts) {
  tuner::ClusterSim cluster(tuner::ClusterOptions{.nodes = 4,
                                                  .wall_budget_seconds = 10.0});
  EXPECT_TRUE(cluster.run_batch({}));
  EXPECT_DOUBLE_EQ(cluster.elapsed_seconds(), 0.0);
  EXPECT_EQ(cluster.batches(), 1u);
}

TEST(ClusterExtra, SingleNodeSerializesEverything) {
  tuner::ClusterSim cluster(tuner::ClusterOptions{.nodes = 1,
                                                  .wall_budget_seconds = 1e9});
  EXPECT_TRUE(cluster.run_batch({1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(cluster.elapsed_seconds(), 6.0);
}

// ---------------------------------------------------------------------------
// Call graph trip estimates
// ---------------------------------------------------------------------------

TEST(CallGraphExtra, DoWhileUsesDefaultTrip) {
  auto rp = must_resolve(R"f(
module m
  real(kind=8) :: x
contains
  subroutine outer()
    do while (x > 1.0d0)
      call leaf()
    end do
  end subroutine outer
  subroutine leaf()
    x = x * 0.5d0
  end subroutine leaf
end module m
)f");
  const ftn::CallGraph cg = ftn::CallGraph::build(rp);
  ASSERT_EQ(cg.sites().size(), 1u);
  EXPECT_DOUBLE_EQ(cg.sites()[0].estimated_calls, ftn::CallGraph::kDefaultTrip);
}

TEST(CallGraphExtra, NegativeStepTripCount) {
  auto rp = must_resolve(R"f(
module m
  real(kind=8) :: x
contains
  subroutine outer()
    integer :: i
    do i = 10, 1, -2
      call leaf()
    end do
  end subroutine outer
  subroutine leaf()
    x = x + 1.0d0
  end subroutine leaf
end module m
)f");
  const ftn::CallGraph cg = ftn::CallGraph::build(rp);
  ASSERT_EQ(cg.sites().size(), 1u);
  EXPECT_DOUBLE_EQ(cg.sites()[0].estimated_calls, 5.0);  // 10,8,6,4,2
}

// ---------------------------------------------------------------------------
// Search-space scope keys
// ---------------------------------------------------------------------------

TEST(SearchSpaceExtra, ScopeKeyRestrictsToProcedure) {
  auto rp = must_resolve(R"f(
module m
  real(kind=8) :: g
contains
  subroutine p()
    real(kind=8) :: a, b
    a = g
    b = a
    g = b
  end subroutine p
end module m
)f");
  auto space = tuner::SearchSpace::build(rp, {"m"});
  ASSERT_TRUE(space.is_ok());
  tuner::Config c = space->uniform(8);
  const auto a = space->index_of("m::p::a");
  ASSERT_GE(a, 0);
  c.kinds[static_cast<std::size_t>(a)] = 4;
  EXPECT_EQ(space->scope_key(c, "m::p").size(), 2u);  // a and b
  EXPECT_EQ(space->scope_key(c, "m::p"), "48");
  EXPECT_EQ(space->scope_key(c, "m"), "8");  // just g
}

// ---------------------------------------------------------------------------
// CLI diagnostics
// ---------------------------------------------------------------------------

TEST(CliExtra, BareDoubleDashIsAnError) {
  const char* argv[] = {"prog", "--"};
  EXPECT_FALSE(CliFlags::parse(2, argv).is_ok());
}

TEST(CliExtra, FlagThenFlagIsBoolean) {
  const char* argv[] = {"prog", "--a", "--b", "value"};
  auto flags = CliFlags::parse(4, argv);
  ASSERT_TRUE(flags.is_ok());
  EXPECT_TRUE(flags->get_bool("a", false));
  EXPECT_EQ(flags->get_string("b", ""), "value");
}

}  // namespace
}  // namespace prose
