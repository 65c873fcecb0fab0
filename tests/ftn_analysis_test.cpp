// Call graph and parameter-flow graph tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "ftn/callgraph.h"
#include "ftn/paramflow.h"
#include "test_util.h"

namespace prose::ftn {
namespace {

using prose::testing::must_resolve;

const char* kCallGraphSource = R"f(
module cgm
  implicit none
  integer, parameter :: n = 10
  real(kind=8) :: field(n)
  real(kind=8) :: acc
contains
  subroutine driver()
    integer :: i
    call setup()
    do i = 1, n
      acc = acc + kernel(field(i))
    end do
  end subroutine driver

  subroutine setup()
    integer :: i
    do i = 1, n
      field(i) = dble(i)
    end do
  end subroutine setup

  function kernel(x) result(y)
    real(kind=8), intent(in) :: x
    real(kind=8) :: y
    y = helper(x) * 2.0d0
  end function kernel

  function helper(x) result(y)
    real(kind=8), intent(in) :: x
    real(kind=8) :: y
    y = x + 1.0d0
  end function helper

  subroutine unused()
    acc = 0.0d0
  end subroutine unused
end module cgm
)f";

TEST(CallGraph, FindsAllSites) {
  auto rp = must_resolve(kCallGraphSource);
  const CallGraph cg = CallGraph::build(rp);
  // driver→setup, driver→kernel, kernel→helper.
  EXPECT_EQ(cg.sites().size(), 3u);
}

TEST(CallGraph, LoopDepthAndTripEstimates) {
  auto rp = must_resolve(kCallGraphSource);
  const CallGraph cg = CallGraph::build(rp);
  const auto kernel = rp.symbols.find_procedure("cgm", "kernel");
  ASSERT_TRUE(kernel.has_value());
  const auto site = std::find_if(
      cg.sites().begin(), cg.sites().end(),
      [&](const CallSite& s) { return s.callee == *kernel; });
  ASSERT_NE(site, cg.sites().end());
  EXPECT_EQ(site->loop_depth, 1);
  // `do i = 1, n` with n a parameter is not a literal bound; the estimate
  // falls back to the default trip count.
  EXPECT_DOUBLE_EQ(site->estimated_calls, CallGraph::kDefaultTrip);
}

TEST(CallGraph, LiteralBoundsGiveExactTrips) {
  auto rp = must_resolve(R"f(
module m
  real(kind=8) :: acc
contains
  subroutine outer()
    integer :: i, j
    do i = 1, 100
      do j = 1, 4
        call leaf()
      end do
    end do
  end subroutine outer
  subroutine leaf()
    acc = acc + 1.0d0
  end subroutine leaf
end module m
)f");
  const CallGraph cg = CallGraph::build(rp);
  ASSERT_EQ(cg.sites().size(), 1u);
  EXPECT_EQ(cg.sites()[0].loop_depth, 2);
  EXPECT_DOUBLE_EQ(cg.sites()[0].estimated_calls, 400.0);
}

TEST(CallGraph, DetectsRecursion) {
  auto rp = must_resolve(R"f(
module rec
  real(kind=8) :: x
contains
  subroutine a()
    call b()
  end subroutine a
  subroutine b()
    if (x > 0.0d0) then
      x = x - 1.0d0
      call a()
    end if
  end subroutine b
  subroutine c()
    x = 0.0d0
  end subroutine c
end module rec
)f");
  const CallGraph cg = CallGraph::build(rp);
  EXPECT_TRUE(cg.is_recursive(*rp.symbols.find_procedure("rec", "a")));
  EXPECT_TRUE(cg.is_recursive(*rp.symbols.find_procedure("rec", "b")));
  EXPECT_FALSE(cg.is_recursive(*rp.symbols.find_procedure("rec", "c")));
}

TEST(ParamFlow, UniformKindsHaveNoMismatch) {
  auto rp = must_resolve(kCallGraphSource);
  const CallGraph cg = CallGraph::build(rp);
  const auto pf = build_param_flow(rp, cg);
  EXPECT_EQ(pf.edges.size(), 2u);  // kernel(x), helper(x)
  EXPECT_TRUE(pf.mismatched().empty());
  EXPECT_DOUBLE_EQ(pf.mismatch_penalty(), 0.0);
}

TEST(ParamFlow, DetectsScalarMismatch) {
  auto rp = must_resolve(R"f(
module m
  real(kind=4) :: x
  real(kind=8) :: y
contains
  subroutine caller()
    y = f(x)
  end subroutine caller
  function f(a) result(r)
    real(kind=8), intent(in) :: a
    real(kind=8) :: r
    r = a
  end function f
end module m
)f");
  const auto pf = build_param_flow(rp, CallGraph::build(rp));
  const auto mm = pf.mismatched();
  ASSERT_EQ(mm.size(), 1u);
  EXPECT_EQ(mm[0]->actual_kind, 4);
  EXPECT_EQ(mm[0]->dummy_kind, 8);
  EXPECT_FALSE(mm[0]->is_array);
  EXPECT_EQ(mm[0]->elements, 1);
}

TEST(ParamFlow, ArrayMismatchCarriesElementCount) {
  auto rp = must_resolve(R"f(
module m
  integer, parameter :: n = 50
  real(kind=4) :: big(n, 2)
contains
  subroutine caller()
    integer :: k
    do k = 1, 10
      call sink(big)
    end do
  end subroutine caller
  subroutine sink(a)
    real(kind=8), dimension(:, :), intent(inout) :: a
    a(1, 1) = 0.0d0
  end subroutine sink
end module m
)f");
  const auto pf = build_param_flow(rp, CallGraph::build(rp));
  const auto mm = pf.mismatched();
  ASSERT_EQ(mm.size(), 1u);
  EXPECT_TRUE(mm[0]->is_array);
  EXPECT_EQ(mm[0]->elements, 100);
  EXPECT_DOUBLE_EQ(mm[0]->estimated_calls, 10.0);
  // Penalty scales with calls × elements — the paper's §V cost model shape.
  EXPECT_DOUBLE_EQ(pf.mismatch_penalty(), 1000.0);
}

TEST(ParamFlow, ExpressionActualsAreScalarEdges) {
  auto rp = must_resolve(R"f(
module m
  real(kind=8) :: x, y
contains
  subroutine caller()
    y = f(x * 2.0d0 + 1.0d0)
  end subroutine caller
  function f(a) result(r)
    real(kind=8), intent(in) :: a
    real(kind=8) :: r
    r = a
  end function f
end module m
)f");
  const auto pf = build_param_flow(rp, CallGraph::build(rp));
  ASSERT_EQ(pf.edges.size(), 1u);
  EXPECT_EQ(pf.edges[0].actual, kInvalidSymbol);
  EXPECT_EQ(pf.edges[0].elements, 1);
  EXPECT_TRUE(pf.edges[0].matches());
}

}  // namespace
}  // namespace prose::ftn
