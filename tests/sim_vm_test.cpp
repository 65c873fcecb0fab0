// VM execution tests: numerics, control flow, arrays, calls, faults.
#include <gtest/gtest.h>

#include <cmath>

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

Harness make(const std::string& src, MachineModel machine = {},
             CompileOptions copts = {}, VmOptions vopts = {}) {
  Harness h{must_resolve(src), {}, nullptr};
  auto compiled = compile(h.rp, machine, copts);
  if (!compiled.is_ok()) {
    throw std::runtime_error("compile failed: " + compiled.status().to_string());
  }
  h.compiled = std::move(compiled.value());
  h.vm = std::make_unique<Vm>(&h.compiled, vopts);
  return h;
}

double run_get(Harness& h, const std::string& entry, const std::string& out) {
  auto r = h.vm->call(entry);
  EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
  auto v = h.vm->get_scalar(out);
  EXPECT_TRUE(v.is_ok()) << v.status().to_string();
  return v.is_ok() ? v.value() : std::nan("");
}

TEST(Vm, ScalarArithmetic) {
  auto h = make(R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    out = (3.0d0 + 4.0d0) * 2.0d0 - 1.0d0 / 4.0d0
  end subroutine go
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 13.75);
}

TEST(Vm, F32ArithmeticRoundsEachOperation) {
  // 1 + 2^-30 is not representable in binary32: the f32 sum collapses to 1,
  // the f64 sum does not. This is the essential mixed-precision semantics.
  auto h = make(R"f(
module m
  real(kind=4) :: s4
  real(kind=8) :: s8, tiny_term, out4, out8
contains
  subroutine go()
    tiny_term = 2.0d0 ** (-30)
    s4 = 1.0
    s8 = 1.0d0
    out4 = (s4 + real(tiny_term)) - 1.0d0
    out8 = (s8 + tiny_term) - 1.0d0
  end subroutine go
end module m
)f");
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::out4").value(), 0.0);
  EXPECT_NEAR(h.vm->get_scalar("m::out8").value(), std::pow(2.0, -30), 1e-18);
}

TEST(Vm, F32StorageRoundsModuleVariables) {
  auto h = make(R"f(
module m
  real(kind=4) :: x
  real(kind=8) :: out
contains
  subroutine go()
    x = 0.1d0
    out = x
  end subroutine go
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"),
                   static_cast<double>(static_cast<float>(0.1)));
}

TEST(Vm, IntegerDivisionTruncates) {
  auto h = make(R"f(
module m
  integer :: i
  real(kind=8) :: out
contains
  subroutine go()
    i = 7 / 2
    out = dble(i)
  end subroutine go
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 3.0);
}

TEST(Vm, DoLoopAccumulates) {
  auto h = make(R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i
    out = 0.0d0
    do i = 1, 100
      out = out + dble(i)
    end do
  end subroutine go
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 5050.0);
}

TEST(Vm, DoLoopWithStepAndNegativeStep) {
  auto h = make(R"f(
module m
  real(kind=8) :: up, down
contains
  subroutine go()
    integer :: i
    up = 0.0d0
    down = 0.0d0
    do i = 1, 9, 2
      up = up + dble(i)
    end do
    do i = 5, 1, -1
      down = down + dble(i)
    end do
  end subroutine go
end module m
)f");
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::up").value(), 25.0);    // 1+3+5+7+9
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::down").value(), 15.0);  // 5+4+3+2+1
}

TEST(Vm, ZeroTripLoopBodyNeverRuns) {
  auto h = make(R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i
    out = 0.0d0
    do i = 5, 1
      out = out + 1.0d0
    end do
  end subroutine go
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 0.0);
}

TEST(Vm, ExitAndCycle) {
  auto h = make(R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i
    out = 0.0d0
    do i = 1, 100
      if (i == 4) cycle
      if (i > 6) exit
      out = out + dble(i)
    end do
  end subroutine go
end module m
)f");
  // 1+2+3+5+6 = 17
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 17.0);
}

TEST(Vm, DoWhile) {
  auto h = make(R"f(
module m
  real(kind=8) :: x
  integer :: iters
contains
  subroutine go()
    x = 1000.0d0
    iters = 0
    do while (x > 1.0d0)
      x = x / 2.0d0
      iters = iters + 1
    end do
  end subroutine go
end module m
)f");
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::iters").value(), 10.0);
}

TEST(Vm, IfElseChain) {
  auto h = make(R"f(
module m
  real(kind=8) :: x, out
contains
  subroutine go()
    if (x > 10.0d0) then
      out = 3.0d0
    else if (x > 5.0d0) then
      out = 2.0d0
    else
      out = 1.0d0
    end if
  end subroutine go
end module m
)f");
  ASSERT_TRUE(h.vm->set_scalar("m::x", 20.0).is_ok());
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 3.0);
  ASSERT_TRUE(h.vm->set_scalar("m::x", 7.0).is_ok());
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 2.0);
  ASSERT_TRUE(h.vm->set_scalar("m::x", 1.0).is_ok());
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 1.0);
}

TEST(Vm, ArraysColumnMajorAndBoundsChecked) {
  auto h = make(R"f(
module m
  real(kind=8) :: grid(3, 2)
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i, j
    do j = 1, 2
      do i = 1, 3
        grid(i, j) = dble(i * 10 + j)
      end do
    end do
    out = grid(2, 2)
  end subroutine go
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 22.0);
  auto arr = h.vm->get_array("m::grid");
  ASSERT_TRUE(arr.is_ok());
  // Column-major: element (2,2) is at linear index (2-1) + 3*(2-1) = 4.
  EXPECT_DOUBLE_EQ(arr.value()[4], 22.0);
}

TEST(Vm, OutOfBoundsIsRuntimeFault) {
  auto h = make(R"f(
module m
  real(kind=8) :: a(4)
  integer :: k
contains
  subroutine go()
    a(k) = 1.0d0
  end subroutine go
end module m
)f");
  ASSERT_TRUE(h.vm->set_scalar("m::k", 5.0).is_ok());
  auto r = h.vm->call("m::go");
  EXPECT_EQ(r.status.code(), StatusCode::kRuntimeFault);
}

TEST(Vm, WholeArrayFillAndCopyWithCast) {
  auto h = make(R"f(
module m
  real(kind=8) :: a(8)
  real(kind=4) :: b(8)
  real(kind=8) :: out
contains
  subroutine go()
    a = 0.1d0
    b = a
    out = dble(b(3))
  end subroutine go
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"),
                   static_cast<double>(static_cast<float>(0.1)));
}

TEST(Vm, SumMaxvalMinvalReductions) {
  auto h = make(R"f(
module m
  real(kind=8) :: a(5)
  real(kind=8) :: s, mx, mn
contains
  subroutine go()
    integer :: i
    do i = 1, 5
      a(i) = dble(i - 3)
    end do
    s = sum(a)
    mx = maxval(a)
    mn = minval(a)
  end subroutine go
end module m
)f");
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::s").value(), 0.0);
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::mx").value(), 2.0);
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::mn").value(), -2.0);
}

TEST(Vm, FunctionCallAndResult) {
  auto h = make(R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    out = square(3.0d0) + square(4.0d0)
  end subroutine go
  function square(x) result(y)
    real(kind=8), intent(in) :: x
    real(kind=8) :: y
    y = x * x
  end function square
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 25.0);
}

TEST(Vm, SubroutineInOutWriteback) {
  auto h = make(R"f(
module m
  real(kind=8) :: x
  real(kind=8) :: arr(3)
contains
  subroutine go()
    x = 10.0d0
    arr(2) = 5.0d0
    call bump(x)
    call bump(arr(2))
  end subroutine go
  subroutine bump(v)
    real(kind=8), intent(inout) :: v
    v = v + 1.0d0
  end subroutine bump
end module m
)f");
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::x").value(), 11.0);
  EXPECT_DOUBLE_EQ(h.vm->get_array("m::arr").value()[1], 6.0);
}

TEST(Vm, ArrayDummyMutatesCallerStorage) {
  auto h = make(R"f(
module m
  real(kind=8) :: field(6)
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i
    do i = 1, 6
      field(i) = dble(i)
    end do
    call double_all(field)
    out = field(6)
  end subroutine go
  subroutine double_all(a)
    real(kind=8), dimension(:), intent(inout) :: a
    integer :: i
    do i = 1, size(a)
      a(i) = 2.0d0 * a(i)
    end do
  end subroutine double_all
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 12.0);
}

TEST(Vm, RecursionWorks) {
  auto h = make(R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    out = fact(10.0d0)
  end subroutine go
  function fact(n) result(r)
    real(kind=8), intent(in) :: n
    real(kind=8) :: r
    if (n <= 1.0d0) then
      r = 1.0d0
    else
      r = n * fact(n - 1.0d0)
    end if
  end function fact
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 3628800.0);
}

TEST(Vm, AutomaticArraySizedBySize) {
  auto h = make(R"f(
module m
  real(kind=8) :: field(10)
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i
    do i = 1, 10
      field(i) = dble(i)
    end do
    call reverse_sum(field)
  end subroutine go
  subroutine reverse_sum(a)
    real(kind=8), dimension(:), intent(in) :: a
    real(kind=8) :: tmp(size(a))
    integer :: i, n
    n = size(a)
    do i = 1, n
      tmp(i) = a(n + 1 - i)
    end do
    out = sum(tmp)
  end subroutine reverse_sum
end module m
)f");
  EXPECT_DOUBLE_EQ(run_get(h, "m::go", "m::out"), 55.0);
}

TEST(Vm, NonFiniteResultIsRuntimeFault) {
  auto h = make(R"f(
module m
  real(kind=8) :: x, out
contains
  subroutine go()
    out = 1.0d0 / x
  end subroutine go
end module m
)f");
  ASSERT_TRUE(h.vm->set_scalar("m::x", 0.0).is_ok());
  auto r = h.vm->call("m::go");
  EXPECT_EQ(r.status.code(), StatusCode::kRuntimeFault);
}

TEST(Vm, F32OverflowOnConversionIsRuntimeFault) {
  auto h = make(R"f(
module m
  real(kind=8) :: big
  real(kind=4) :: small_var
contains
  subroutine go()
    small_var = big
  end subroutine go
end module m
)f");
  ASSERT_TRUE(h.vm->set_scalar("m::big", 1e300).is_ok());
  auto r = h.vm->call("m::go");
  EXPECT_EQ(r.status.code(), StatusCode::kRuntimeFault);
}

TEST(Vm, TrapDisabledLetsInfFlow) {
  VmOptions vopts;
  vopts.trap_nonfinite = false;
  auto h = make(R"f(
module m
  real(kind=8) :: x, out
contains
  subroutine go()
    out = 1.0d0 / x
  end subroutine go
end module m
)f",
                MachineModel{}, CompileOptions{}, vopts);
  ASSERT_TRUE(h.vm->set_scalar("m::x", 0.0).is_ok());
  auto r = h.vm->call("m::go");
  EXPECT_TRUE(r.status.is_ok());
  EXPECT_TRUE(std::isinf(h.vm->get_scalar("m::out").value()));
}

TEST(Vm, CycleBudgetTimesOut) {
  VmOptions vopts;
  vopts.cycle_budget = 1000.0;
  auto h = make(R"f(
module m
  real(kind=8) :: x
contains
  subroutine go()
    integer :: i
    do i = 1, 10000000
      x = x + 1.0d0
    end do
  end subroutine go
end module m
)f",
                MachineModel{}, CompileOptions{}, vopts);
  auto r = h.vm->call("m::go");
  EXPECT_EQ(r.status.code(), StatusCode::kTimeout);
}

TEST(Vm, MpiAllreduceIsIdentityWithCost) {
  auto h = make(R"f(
module m
  real(kind=8) :: x, out
contains
  subroutine go()
    out = mpi_allreduce_max(x)
  end subroutine go
end module m
)f");
  ASSERT_TRUE(h.vm->set_scalar("m::x", 42.0).is_ok());
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::out").value(), 42.0);
  // The collective must dominate this tiny run's cost.
  const MachineModel mach;
  EXPECT_GT(r.cycles, mach.allreduce_alpha * std::log2(mach.mpi_ranks) * 0.9);
}

TEST(Vm, ProcStatsCountCallsAndAttributeCycles) {
  auto h = make(R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i
    out = 0.0d0
    do i = 1, 50
      call work()
    end do
  end subroutine go
  subroutine work()
    out = out + 1.0d0
  end subroutine work
end module m
)f");
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok());
  const ProcRunStats* work = h.vm->proc_stats("m::work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->calls, 50u);
  EXPECT_GT(work->inclusive_cycles, 0.0);
  const ProcRunStats* go = h.vm->proc_stats("m::go");
  ASSERT_NE(go, nullptr);
  EXPECT_EQ(go->calls, 1u);
  EXPECT_GE(go->inclusive_cycles, work->inclusive_cycles);
}

TEST(Vm, GptlInstrumentationOpensRegions) {
  CompileOptions copts;
  copts.instrument.insert("m::work");
  auto h = make(R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i
    do i = 1, 10
      call work()
    end do
  end subroutine go
  subroutine work()
    out = out + 1.0d0
  end subroutine work
end module m
)f",
                MachineModel{}, copts);
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok());
  auto stats = h.vm->timers().stats("m::work");
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats->calls, 10u);
  EXPECT_GT(stats->overhead_cycles, 0.0);
}

TEST(Vm, PrintGoesToLog) {
  auto h = make(R"f(
module m
  real(kind=8) :: x
contains
  subroutine go()
    x = 2.5d0
    print *, 'value is', x
  end subroutine go
end module m
)f");
  auto r = h.vm->call("m::go");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_NE(h.vm->print_log().find("value is 2.5"), std::string::npos);
}

TEST(Vm, ResetRestoresInitialState) {
  auto h = make(R"f(
module m
  real(kind=8) :: x = 5.0d0
contains
  subroutine go()
    x = x + 1.0d0
  end subroutine go
end module m
)f");
  ASSERT_TRUE(h.vm->call("m::go").status.is_ok());
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::x").value(), 6.0);
  h.vm->reset();
  EXPECT_DOUBLE_EQ(h.vm->get_scalar("m::x").value(), 5.0);
}

TEST(Vm, MixedPrecisionThroughWrapperMatchesDirectCast) {
  // End-to-end: lower a variable, generate wrappers, run — the value must
  // equal hand-written cast semantics.
  auto rp = must_resolve(R"f(
module m
  real(kind=8) :: x, out
contains
  subroutine go()
    out = scale_fn(x)
  end subroutine go
  function scale_fn(a) result(r)
    real(kind=8), intent(in) :: a
    real(kind=8) :: r
    r = a * 3.0d0
  end function scale_fn
end module m
)f");
  ftn::PrecisionAssignment pa;
  const auto x = rp.symbols.find_qualified("m::x");
  ASSERT_TRUE(x.has_value());
  pa.kinds[rp.symbols.get(*x).decl_node] = 4;
  auto variant = ftn::make_variant(rp.program, pa);
  ASSERT_TRUE(variant.is_ok()) << variant.status().to_string();

  auto compiled = compile(variant.value(), MachineModel{});
  ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
  Vm vm(&compiled.value());
  ASSERT_TRUE(vm.set_scalar("m::x", 0.1).is_ok());
  auto r = vm.call("m::go");
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  const double expected = static_cast<double>(static_cast<float>(0.1)) * 3.0;
  EXPECT_DOUBLE_EQ(vm.get_scalar("m::out").value(), expected);
  EXPECT_GT(r.cast_cycles, 0.0);
}

TEST(Vm, UnwrappedKindMismatchIsRejectedAtCompile) {
  auto rp = must_resolve(R"f(
module m
  real(kind=4) :: x
  real(kind=8) :: out
contains
  subroutine go()
    out = f(x)
  end subroutine go
  function f(a) result(r)
    real(kind=8), intent(in) :: a
    real(kind=8) :: r
    r = a
  end function f
end module m
)f");
  auto compiled = compile(rp, MachineModel{});
  EXPECT_FALSE(compiled.is_ok());
}

TEST(Vm, OverflowingModuleInitializerIsRejectedAtCompile) {
  // No instruction runs for a module variable's initializer, so an overflow
  // could not trap at run time: compile refuses it, naming the variable and
  // its kind. An initializer that fits is rounded to the kind as before.
  const struct {
    const char* decl;
    const char* kind;
  } cases[] = {
      {"real(kind=4) :: x = 1.0d40", "real(kind=4)"},
      {"real(kind=1510) :: x = 1.0d5", "real(e5m10)"},
  };
  for (const auto& c : cases) {
    auto rp = must_resolve(std::string("module m\n  ") + c.decl +
                           "\ncontains\n  subroutine go()\n    x = x\n"
                           "  end subroutine go\nend module m\n");
    auto compiled = compile(rp, MachineModel{});
    ASSERT_FALSE(compiled.is_ok()) << c.decl;
    EXPECT_EQ(compiled.status().code(), StatusCode::kSemanticError);
    const std::string& msg = compiled.status().message();
    EXPECT_NE(msg.find("m::x"), std::string::npos) << msg;
    EXPECT_NE(msg.find(c.kind), std::string::npos) << msg;
  }
  auto h = make(R"f(
module m
  real(kind=4) :: x = 1.0d38
  real(kind=1510) :: h = 6.0001d4
end module m
)f");
  EXPECT_EQ(h.vm->get_scalar("m::x").value(),
            static_cast<double>(static_cast<float>(1.0e38)));
  EXPECT_EQ(h.vm->get_scalar("m::h").value(), 60000.0);  // nearest binary16
}

}  // namespace
}  // namespace prose::sim
