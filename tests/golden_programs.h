// The hand-written programs behind the program.<name> lines of
// tests/golden/vm_goldens.txt. vm_dispatch_test.cpp runs them under every
// engine; vm_golden_test.cpp decodes them, with the models' golden
// configurations, for the static opcode census.
#pragma once

namespace prose::testing {

/// A workload touching every handler family: mixed-kind arithmetic, casts,
/// loops (fused loop-cond+branch), array load/op and op/store (fused),
/// an if chain (fused cmp+branch), intrinsics, calls, and a print.
inline constexpr const char* kMixedSource = R"f(
module m
  real(kind=4) :: s4
  real(kind=8) :: out, acc
  real(kind=8) :: a(64), b(64)
contains
  subroutine go()
    integer :: i
    acc = 0.0d0
    do i = 1, 64
      a(i) = sin(dble(i) * 0.1d0)
      b(i) = a(i) * 2.0d0
    end do
    do i = 1, 64
      s4 = real(b(i))
      if (s4 > 0.5) then
        acc = acc + dble(s4)
      else
        acc = acc - a(i) / 3.0d0
      end if
    end do
    out = helper(acc) + sqrt(abs(acc))
    print *, 'acc', acc
  end subroutine go
  function helper(x) result(y)
    real(kind=8), intent(in) :: x
    real(kind=8) :: y
    integer :: j
    y = x
    do j = 1, 10
      y = y * 1.01d0 + mod(x, 2.0d0)
    end do
  end function helper
end module m
)f";

/// An out-of-bounds subscript hit mid-loop (program.fault).
inline constexpr const char* kFaultSource = R"f(
module m
  real(kind=8) :: a(8), out
contains
  subroutine go()
    integer :: i
    out = 0.0d0
    do i = 1, 9
      a(i) = dble(i)
      out = out + a(i)
    end do
  end subroutine go
end module m
)f";

/// A division by zero: the non-finite result trap (program.trap).
inline constexpr const char* kTrapSource = R"f(
module m
  real(kind=8) :: z, out
contains
  subroutine go()
    z = 0.0d0
    out = 1.0d0 / z
  end subroutine go
end module m
)f";

/// A long loop that a small cycle budget cuts off (program.timeout).
inline constexpr const char* kTimeoutSource = R"f(
module m
  real(kind=8) :: out
contains
  subroutine go()
    integer :: i
    out = 0.0d0
    do i = 1, 100000
      out = out + dble(i) * 1.0000001d0
    end do
  end subroutine go
end module m
)f";

/// Custom-format (k-level) arithmetic: every *Fmt handler (add, sub, mul,
/// div, pow, neg, cast, module-variable store), custom-array element store,
/// a whole-array fill and copy into a custom format, sum/minval/maxval on
/// custom arrays, and unary and binary intrinsics with a custom result kind.
inline constexpr const char* kFmtSource = R"f(
module m
  real(kind=1510) :: h
  real(kind=1807) :: bsum
  real(kind=8) :: out
  real(kind=1510) :: ha(32)
  real(kind=1807) :: hb(32)
  real(kind=8) :: d(32)
contains
  subroutine go()
    integer :: i
    real(kind=1510) :: x, y, three, half
    real(kind=1807) :: z
    three = 3.0
    half = 0.5
    h = 0.0
    hb = 0.25
    do i = 1, 32
      d(i) = sin(dble(i) * 0.37d0) * 100.0d0 + 1.0d-3 * dble(i)
    end do
    ha = d
    do i = 1, 32
      x = ha(i)
      y = x * half - x / three + half ** 2
      y = -y + abs(x) - sqrt(abs(y))
      y = max(y, -x) + min(x, three) - sign(half, y)
      h = h + y * half
      z = y
      hb(i) = z * z
    end do
    bsum = sum(hb)
    out = dble(maxval(hb)) + dble(minval(ha)) + dble(sum(ha)) + dble(h)
    print *, 'fmt', h, bsum, out
  end subroutine go
end module m
)f";

/// A binary16 product past 65504 (program.fmt_overflow).
inline constexpr const char* kFmtOverflowSource = R"f(
module m
  real(kind=1510) :: x, y
contains
  subroutine go()
    x = 300.0
    y = x * x
  end subroutine go
end module m
)f";

/// A whole-array copy of binary64 values past binary16's range
/// (program.fmt_copy_overflow).
inline constexpr const char* kFmtCopyOverflowSource = R"f(
module m
  real(kind=1510) :: ha(4)
  real(kind=8) :: d(4)
contains
  subroutine go()
    d = 1.0d5
    ha = d
  end subroutine go
end module m
)f";

/// A binary64 value past binary16's range converted at run time
/// (program.fmt_cast_overflow: the kCastFmt fault).
inline constexpr const char* kFmtCastOverflowSource = R"f(
module m
  real(kind=1510) :: x
  real(kind=8) :: d
contains
  subroutine go()
    d = 1.0d5
    x = d
  end subroutine go
end module m
)f";

/// A binary32 parameter past binary32's range (program.param_overflow): it
/// is not folded, so `x = big` runs the same trapping kCastF32 as
/// `x = 1.0d40`.
inline constexpr const char* kParamOverflowSource = R"f(
module m
  real(kind=4), parameter :: big = 1.0d40
  real(kind=4) :: x
contains
  subroutine go()
    x = big
  end subroutine go
end module m
)f";

/// The same for a binary16 parameter past 65504
/// (program.fmt_param_overflow: a trapping kCastFmt).
inline constexpr const char* kFmtParamOverflowSource = R"f(
module m
  real(kind=1510), parameter :: big = 1.0d5
  real(kind=1510) :: x
contains
  subroutine go()
    x = big
  end subroutine go
end module m
)f";

/// 0/0 in binary16, after a negation and a power of the zero
/// (program.fmt_nan: the non-finite custom-format result fault).
inline constexpr const char* kFmtNanSource = R"f(
module m
  real(kind=1510) :: x, y, z
contains
  subroutine go()
    x = 0.0
    y = -x
    y = y ** 2
    z = y / x
  end subroutine go
end module m
)f";

/// The handlers no model reaches: kCastInt in all three rounding modes
/// (int, floor, nint), kPowF32, kCmpNe and kOr left unfused by logical
/// assignments, and kFusedCmpNeJmp from an `if (a /= b)`.
inline constexpr const char* kAllOpsSource = R"f(
module m
  real(kind=4) :: p4, q4
  real(kind=8) :: out
  integer :: n
contains
  subroutine go()
    integer :: i, k, lo, near
    real(kind=8) :: x
    logical :: ne, either
    out = 0.0d0
    n = 0
    p4 = 1.5
    do i = 1, 12
      x = dble(i) * 0.7d0 - 4.1d0
      k = int(x)
      lo = floor(x)
      near = nint(x)
      q4 = p4 ** real(x)
      ne = lo /= near
      either = ne .or. k /= lo
      if (k /= near) then
        n = n + 1
      end if
      if (either) then
        out = out + dble(q4)
      end if
    end do
    print *, 'allops', out, n, k, lo, near
  end subroutine go
end module m
)f";

/// The handlers the other golden programs miss: kPowF64 and kPowI, the
/// logical kAnd, kNot, kEqv and kNeqv, and the fused kMulF32 + kStoreElem
/// and kCastF64 + kStoreElem pairs.
inline constexpr const char* kLogicSource = R"f(
module m
  real(kind=4) :: a4(8), b4(8)
  real(kind=8) :: d(8), out
  integer :: n
contains
  subroutine go()
    integer :: i, k
    real(kind=4) :: s4
    logical :: p, q, r
    out = 0.0d0
    n = 0
    do i = 1, 8
      b4(i) = real(i) * 0.5
    end do
    do i = 1, 8
      a4(i) = b4(i) * 1.5
      s4 = a4(i) + 0.25
      d(i) = s4
      k = i ** 2
      out = out + d(i) ** 1.5d0
      p = k > 10
      q = i > 6
      r = (p .and. q) .eqv. (.not. p .neqv. q)
      if (r) then
        n = n + k
      end if
    end do
    print *, 'logic', out, n
  end subroutine go
end module m
)f";

struct GoldenProgram {
  const char* id;
  const char* source;
};

inline constexpr GoldenProgram kGoldenPrograms[] = {
    {"program.mixed", kMixedSource},
    {"program.fault", kFaultSource},
    {"program.trap", kTrapSource},
    {"program.timeout", kTimeoutSource},
    {"program.fmt", kFmtSource},
    {"program.fmt_overflow", kFmtOverflowSource},
    {"program.fmt_copy_overflow", kFmtCopyOverflowSource},
    {"program.fmt_cast_overflow", kFmtCastOverflowSource},
    {"program.fmt_nan", kFmtNanSource},
    {"program.param_overflow", kParamOverflowSource},
    {"program.fmt_param_overflow", kFmtParamOverflowSource},
    {"program.allops", kAllOpsSource},
    {"program.logic", kLogicSource},
};

}  // namespace prose::testing
