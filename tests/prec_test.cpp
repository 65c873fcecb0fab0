// src/prec contract tests: exhaustive narrow-format sweeps, rounding
// properties, the hardware-equivalence suite pinning e8m23 ≡ float and
// e11m52 ≡ double — the proof that the legacy two-level lattice is a strict
// subset of the k-level one — and a differential sweep of the bit-level
// Quantizer against an ldexp-based reference rounder on every valid kind.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "prec/format.h"
#include "support/rng.h"

namespace prose::prec {
namespace {

constexpr FormatSpec kBinary16{5, 10};
constexpr FormatSpec kBfloat16{8, 7};
constexpr FormatSpec kE8M23{8, 23};
constexpr FormatSpec kE11M52{11, 52};

/// Independent reference decoding of a 16-bit pattern of `spec` (storage
/// layout: sign, exponent, significand, IEEE-754 style) — built from integer
/// arithmetic only, no prec code, so the sweeps cross-check quantize against
/// a second implementation.
double reference_decode16(const FormatSpec& spec, std::uint16_t pattern) {
  const int man_bits = spec.man_bits;
  const int exp_bits = spec.exp_bits;
  const int sign = (pattern >> (exp_bits + man_bits)) & 1;
  const int exp = (pattern >> man_bits) & ((1 << exp_bits) - 1);
  const int man = pattern & ((1 << man_bits) - 1);
  double mag;
  if (exp == (1 << exp_bits) - 1) {
    mag = man == 0 ? std::numeric_limits<double>::infinity()
                   : std::numeric_limits<double>::quiet_NaN();
  } else if (exp == 0) {
    mag = std::ldexp(static_cast<double>(man), 1 - spec.bias() - man_bits);
  } else {
    mag = std::ldexp(static_cast<double>((1 << man_bits) | man),
                     exp - spec.bias() - man_bits);
  }
  return sign != 0 ? -mag : mag;
}

/// Every finite 16-bit value of the format, ascending, positives only.
std::vector<double> finite_values16(const FormatSpec& spec) {
  std::vector<double> vals;
  const int width = 1 + spec.exp_bits + spec.man_bits;
  for (std::uint32_t p = 0; p < (1u << width); ++p) {
    const double v = reference_decode16(spec, static_cast<std::uint16_t>(p));
    if (std::isfinite(v) && !std::signbit(v)) vals.push_back(v);
  }
  std::sort(vals.begin(), vals.end());
  return vals;
}

/// The reference rounder: normalize to a 53-bit integer significand, round
/// it to nearest-even at the format's granularity in integer arithmetic,
/// and rebuild the value with ldexp. Independent of Quantizer's bit tricks;
/// its limit is (2 - 2^-M)·2^emax as ldexp rounds it to binary64.
double reference_quantize(const FormatSpec& spec, double x, bool* overflowed) {
  *overflowed = false;
  if (spec.exp_bits >= 11 && spec.man_bits >= 52) return x;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const bool negative = (bits >> 63) != 0;
  const int dexp = static_cast<int>((bits >> 52) & 0x7ff);
  const std::uint64_t dman = bits & 0x000fffffffffffffull;
  if (dexp == 0x7ff) return x;
  std::uint64_t full;
  int e;
  if (dexp == 0) {
    if (dman == 0) return x;
    const int hb = 63 - std::countl_zero(dman);
    full = dman << (52 - hb);
    e = hb - 1074;
  } else {
    full = (std::uint64_t{1} << 52) | dman;
    e = dexp - 1023;
  }
  const int emin = 1 - spec.bias();
  int discard = 52 - spec.man_bits;
  if (e < emin) discard += emin - e;
  if (discard > 0) {
    if (discard > 63) {
      full = 0;
    } else {
      const std::uint64_t half = std::uint64_t{1} << (discard - 1);
      const std::uint64_t low = full & ((std::uint64_t{1} << discard) - 1);
      full >>= discard;
      if (low > half || (low == half && (full & 1) != 0)) ++full;
    }
  } else {
    discard = 0;
  }
  double mag = std::ldexp(static_cast<double>(full), e - 52 + discard);
  const int emax = ((1 << spec.exp_bits) - 2) - spec.bias();
  const double limit = std::ldexp(2.0 - std::ldexp(1.0, -spec.man_bits), emax);
  if (mag > limit) {
    *overflowed = true;
    mag = std::numeric_limits<double>::infinity();
  }
  return negative ? -mag : mag;
}

/// Plain round-to-nearest-even of the low 52 - M pattern bits: right on
/// binary64 normals, wrong on binary64 subnormals once E >= 12 (they keep
/// fewer than M significand bits below their leading bit).
double naive_bit_quantize(const FormatSpec& spec, double x) {
  const int d = 52 - spec.man_bits;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t unit = std::uint64_t{1} << d;
  return std::bit_cast<double>(
      (bits + (unit >> 1) - 1 + ((bits >> d) & 1)) & ~(unit - 1));
}

/// Differential inputs for one format: random patterns, binary64
/// subnormals, signed zeros, infinities and NaN, exact ties at the
/// format's ulp and at its subnormal granularity, and max_finite with the
/// first tie above it (each also nudged one binary64 ulp either way).
std::vector<double> differential_inputs(const FormatSpec& spec, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> in = {0.0, -0.0, kInf, -kInf,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::denorm_min()};
  for (int i = 0; i < 400; ++i) in.push_back(std::bit_cast<double>(rng.next_u64()));
  for (int i = 0; i < 100; ++i) {
    in.push_back(std::bit_cast<double>(rng.next_u64() & 0x800fffffffffffffull));
    in.push_back(std::bit_cast<double>(rng.next_u64() >> (12 + rng.uniform_index(52))));
  }
  const auto nudged = [&in](double v) {
    in.push_back(v);
    in.push_back(-v);
    in.push_back(std::nextafter(v, 0.0));
    in.push_back(std::nextafter(v, kInf));
  };
  const int m = spec.man_bits;
  const int emin = 1 - spec.bias();
  if (m <= 51) {
    // Ties at the format's ulp in its normal range: a pattern whose
    // discarded bits are exactly one half.
    const int d = 52 - m;
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t r = rng.next_u64() & 0x7fffffffffffffffull;
      const std::uint64_t tie =
          (r & ~((std::uint64_t{1} << d) - 1)) | (std::uint64_t{1} << (d - 1));
      if ((tie >> 52) != 0x7ff) nudged(std::bit_cast<double>(tie));
    }
  }
  if (emin - m - 1 >= -1074) {
    // Ties at the subnormal granularity 2^(emin - M): (2k + 1)·2^(emin-M-1).
    const std::uint64_t span = std::uint64_t{1} << std::min(m, 52);
    for (int i = 0; i < 100; ++i) {
      const std::uint64_t k = i < 4 ? static_cast<std::uint64_t>(i)
                                    : rng.uniform_index(span);
      nudged(std::ldexp(static_cast<double>(2 * k + 1), emin - m - 1));
    }
  }
  const double max_finite = spec.max_finite();
  if (std::isfinite(max_finite)) {
    nudged(max_finite);
    if (m <= 51) {
      nudged(std::ldexp(2.0 - std::ldexp(1.0, -(m + 1)), spec.bias()));
    }
  }
  return in;
}

std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

TEST(PrecQuantizer, MatchesTheReferenceOnEveryValidKind) {
  Rng rng(2024);
  std::size_t checked = 0;
  for (int e = 2; e <= 30; ++e) {
    for (int m = 1; m <= 60; ++m) {
      const FormatSpec spec{e, m};
      ASSERT_TRUE(is_custom_kind(encode_kind(spec)));
      const Quantizer quant(spec);
      int failures = 0;
      for (const double x : differential_inputs(spec, rng)) {
        bool want_ovf = false;
        const double want = reference_quantize(spec, x, &want_ovf);
        bool got_ovf = true;
        const double got = quant.round(x, got_ovf);
        ++checked;
        if (std::bit_cast<std::uint64_t>(got) != std::bit_cast<std::uint64_t>(want) ||
            got_ovf != want_ovf) {
          ADD_FAILURE() << kind_name(encode_kind(spec)) << " x=" << hexfloat(x)
                        << " want=" << hexfloat(want) << " ovf=" << want_ovf
                        << " got=" << hexfloat(got) << " ovf=" << got_ovf;
          if (++failures >= 5) break;
        }
      }
    }
  }
  EXPECT_GT(checked, 29u * 60u * 500u);
}

TEST(PrecQuantizer, WideExponentKeepsBinary64SubnormalSignificands) {
  // e12m40 has no subnormal range inside binary64, so this binary64
  // subnormal is a normal e12m40 value: it keeps 40 bits below its leading
  // set bit. Rounding the pattern's low 12 bits keeps fewer.
  const FormatSpec e12m40{12, 40};
  const double x = -0x0.44617594ad20bp-1022;
  const double want = -0x0.44617594ad4p-1022;
  bool ovf = false;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reference_quantize(e12m40, x, &ovf)),
            std::bit_cast<std::uint64_t>(want));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(Quantizer(e12m40).round(x, ovf)),
            std::bit_cast<std::uint64_t>(want));
  EXPECT_FALSE(ovf);
  EXPECT_EQ(naive_bit_quantize(e12m40, x), -0x0.44617594adp-1022);
  EXPECT_NE(naive_bit_quantize(e12m40, x), want);
}

TEST(PrecFormat, KindEncodingRoundTrips) {
  EXPECT_EQ(encode_kind(kBinary16), 1510);
  EXPECT_EQ(encode_kind(kBfloat16), 1807);
  EXPECT_EQ(encode_kind(kE8M23), 1823);
  EXPECT_EQ(encode_kind(kE11M52), 2152);
  for (const int kind : {1510, 1807, 1823, 2152, 1203, 3060}) {
    EXPECT_TRUE(valid_kind(kind)) << kind;
    EXPECT_TRUE(is_custom_kind(kind)) << kind;
    EXPECT_EQ(encode_kind(decode_kind(kind)), kind);
  }
  EXPECT_TRUE(valid_kind(4));
  EXPECT_TRUE(valid_kind(8));
  EXPECT_FALSE(is_custom_kind(4));
  EXPECT_FALSE(valid_kind(0));
  EXPECT_FALSE(valid_kind(16));
  EXPECT_FALSE(valid_kind(1100));  // e1m0 is out of range
  EXPECT_FALSE(valid_kind(1000));
  EXPECT_EQ(decode_kind(4), kE8M23);
  EXPECT_EQ(decode_kind(8), kE11M52);
}

TEST(PrecFormat, NamesParseAndPrint) {
  EXPECT_EQ(kind_from_name("binary16"), 1510);
  EXPECT_EQ(kind_from_name("bfloat16"), 1807);
  EXPECT_EQ(kind_from_name("binary32"), 4);
  EXPECT_EQ(kind_from_name("binary64"), 8);
  EXPECT_EQ(kind_from_name("e5m10"), 1510);
  EXPECT_EQ(kind_from_name("e8m23"), 1823);
  EXPECT_EQ(kind_from_name("e11m52"), 2152);
  EXPECT_EQ(kind_from_name("float"), 0);
  EXPECT_EQ(kind_from_name("e99m99"), 0);
  EXPECT_EQ(kind_from_name("em"), 0);
  EXPECT_EQ(kind_from_name(""), 0);
  EXPECT_EQ(kind_name(1510), "e5m10");
  EXPECT_EQ(kind_name(4), "binary32");
  EXPECT_EQ(kind_name(8), "binary64");
  EXPECT_EQ(kind_token(4), "4");
  EXPECT_EQ(kind_token(8), "8");
  EXPECT_EQ(kind_token(1807), "e8m7");
}

TEST(PrecFormat, FormatListParsesSortsAndRejects) {
  const auto kinds =
      parse_format_list("binary64,binary16,bfloat16,binary32");
  ASSERT_EQ(kinds.size(), 4u);
  // Lattice order: bfloat16 (16 bits, m7) < binary16 (16 bits, m10) <
  // binary32 < binary64.
  EXPECT_EQ(kinds[0], 1807);
  EXPECT_EQ(kinds[1], 1510);
  EXPECT_EQ(kinds[2], 4);
  EXPECT_EQ(kinds[3], 8);
  EXPECT_EQ(format_list_name(kinds), "e8m7,e5m10,binary32,binary64");

  // Duplicates collapse; unknown tokens reject with a named offender.
  EXPECT_EQ(parse_format_list("binary32,e8m23,binary32").size(), 2u);
  std::string bad;
  EXPECT_TRUE(parse_format_list("binary32,half", &bad).empty());
  EXPECT_EQ(bad, "half");
}

TEST(PrecFormat, QuantizeIdentityForBinary64) {
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::bit_cast<double>(rng.next_u64());
    const double q = quantize(kE11M52, x);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(q), std::bit_cast<std::uint64_t>(x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(quantize_kind(8, x)),
              std::bit_cast<std::uint64_t>(x));
  }
}

TEST(PrecFormat, HardwareEquivalenceE8M23CastSweep) {
  // Random bit patterns (including NaNs, infs, subnormals): the parameterized
  // rounder must agree with the hardware float cast bit-for-bit.
  Rng rng(2024);
  for (int i = 0; i < 200000; ++i) {
    const double x = std::bit_cast<double>(rng.next_u64());
    const double hw = static_cast<double>(static_cast<float>(x));
    const double sw = quantize(kE8M23, x);
    if (std::isnan(hw)) {
      EXPECT_TRUE(std::isnan(sw));
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sw),
                std::bit_cast<std::uint64_t>(hw))
          << "x=" << x;
    }
  }
  // Directed edge cases around the float boundaries.
  const double cases[] = {0.0, -0.0, 1.0, -1.0,
                          std::numeric_limits<float>::max(),
                          std::nextafter(double(std::numeric_limits<float>::max()), 1e300),
                          double(std::numeric_limits<float>::max()) * 1.0000001,
                          std::numeric_limits<float>::min(),
                          std::numeric_limits<float>::denorm_min(),
                          double(std::numeric_limits<float>::denorm_min()) / 2,
                          double(std::numeric_limits<float>::denorm_min()) * 1.5,
                          1e300, -1e300, 1e-300,
                          std::numeric_limits<double>::infinity()};
  for (const double x : cases) {
    const double hw = static_cast<double>(static_cast<float>(x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(quantize(kE8M23, x)),
              std::bit_cast<std::uint64_t>(hw))
        << "x=" << x;
  }
}

TEST(PrecFormat, HardwareEquivalenceE8M23Arithmetic) {
  // a ∘ b computed in binary64 then quantized to e8m23 equals hardware float
  // arithmetic on the same operands (binary64 is wide enough that the double
  // rounding is innocuous for M=23: 53 >= 2·24 + 2).
  Rng rng(77);
  int divisions = 0;
  for (int i = 0; i < 50000; ++i) {
    const auto a = static_cast<float>(rng.uniform(-1e6, 1e6));
    const auto b = static_cast<float>(rng.uniform(-1e6, 1e6));
    const double da = a;
    const double db = b;
    EXPECT_EQ(static_cast<float>(quantize(kE8M23, da + db)), a + b);
    EXPECT_EQ(static_cast<float>(quantize(kE8M23, da - db)), a - b);
    EXPECT_EQ(static_cast<float>(quantize(kE8M23, da * db)), a * b);
    if (b != 0.0f) {
      ++divisions;
      EXPECT_EQ(static_cast<float>(quantize(kE8M23, da / db)), a / b);
    }
  }
  EXPECT_GT(divisions, 0);
}

TEST(PrecFormat, HardwareEquivalenceE11M52Arithmetic) {
  Rng rng(78);
  for (int i = 0; i < 20000; ++i) {
    const double a = rng.uniform(-1e12, 1e12);
    const double b = rng.uniform(-1e12, 1e12);
    EXPECT_EQ(quantize(kE11M52, a + b), a + b);
    EXPECT_EQ(quantize(kE11M52, a * b), a * b);
    EXPECT_EQ(quantize(kE11M52, a - b), a - b);
    if (b != 0.0) {
      EXPECT_EQ(quantize(kE11M52, a / b), a / b);
    }
  }
}

class Prec16SweepTest : public ::testing::TestWithParam<FormatSpec> {};

INSTANTIATE_TEST_SUITE_P(NarrowFormats, Prec16SweepTest,
                         ::testing::Values(kBinary16, kBfloat16),
                         [](const auto& info) {
                           return kind_name(encode_kind(info.param));
                         });

TEST_P(Prec16SweepTest, ExhaustiveRoundTripAndUnaryOps) {
  const FormatSpec spec = GetParam();
  const int width = 1 + spec.exp_bits + spec.man_bits;
  ASSERT_EQ(width, 16);
  for (std::uint32_t p = 0; p < (1u << 16); ++p) {
    const double v = reference_decode16(spec, static_cast<std::uint16_t>(p));
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(quantize(spec, v)));
      continue;
    }
    // Every representable value is a fixed point of the rounder.
    const double q = quantize(spec, v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(q), std::bit_cast<std::uint64_t>(v))
        << "pattern=" << p;
    // Unary ops computed in binary64 then quantized: negation is exact and
    // sign-symmetric; |x| is exact; sqrt of a representable stays in range.
    EXPECT_EQ(quantize(spec, -v), -q);
    EXPECT_EQ(quantize(spec, std::fabs(v)), std::fabs(v));
    if (v >= 0.0 && std::isfinite(v)) {
      const double s = quantize(spec, std::sqrt(v));
      EXPECT_TRUE(std::isfinite(s));
      EXPECT_EQ(quantize(spec, s), s);  // quantized results are representable
    }
  }
}

TEST_P(Prec16SweepTest, ExhaustiveMidpointsRoundToEven) {
  const FormatSpec spec = GetParam();
  const std::vector<double> vals = finite_values16(spec);
  for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
    const double lo = vals[i];
    const double hi = vals[i + 1];
    const double mid = lo / 2 + hi / 2;  // exact: consecutive representables
    if (mid == lo || mid == hi) continue;  // gap below binary64 resolution
    const double q = quantize(spec, mid);
    // Ties go to the neighbour with an even significand: exactly one of the
    // two neighbours qualifies, and the rounder must pick it consistently
    // with the reference significand parity.
    const auto parity = [&](double v) -> int {
      int exp;
      double m = std::frexp(v, &exp);  // m in [0.5, 1)
      const double scaled = std::ldexp(m, spec.man_bits + 1);
      if (scaled != std::floor(scaled)) return -1;  // subnormal granularity
      return static_cast<std::int64_t>(scaled) & 1;
    };
    EXPECT_TRUE(q == lo || q == hi) << "mid=" << mid;
    if (parity(q) == 0 || parity(q) == 1) {
      // When the chosen neighbour's parity is measurable it must be even —
      // except in the subnormal range where frexp scaling no longer lands on
      // an integer (parity returns -1 and the check is skipped).
      EXPECT_EQ(parity(q), 0) << "mid=" << mid << " q=" << q;
    }
  }
}

TEST(PrecFormat, MonotonicRoundingProperty) {
  Rng rng(11);
  for (const FormatSpec spec : {kBinary16, kBfloat16, kE8M23, FormatSpec{6, 9}}) {
    for (int i = 0; i < 20000; ++i) {
      double x = rng.uniform(-70000.0, 70000.0);
      double y = rng.uniform(-70000.0, 70000.0);
      if (x > y) std::swap(x, y);
      EXPECT_LE(quantize(spec, x), quantize(spec, y))
          << kind_name(encode_kind(spec)) << " x=" << x << " y=" << y;
    }
  }
}

TEST(PrecFormat, RoundTripThroughBinary64IsIdempotent) {
  Rng rng(12);
  for (const FormatSpec spec : {kBinary16, kBfloat16, FormatSpec{4, 3}, FormatSpec{9, 40}}) {
    for (int i = 0; i < 20000; ++i) {
      const double x = std::bit_cast<double>(rng.next_u64());
      const double q = quantize(spec, x);
      if (std::isnan(q)) {
        EXPECT_TRUE(std::isnan(x));
        continue;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(quantize(spec, q)),
                std::bit_cast<std::uint64_t>(q));
    }
  }
}

TEST(PrecFormat, NanAndInfPropagation) {
  for (const FormatSpec spec : {kBinary16, kBfloat16, kE8M23, kE11M52}) {
    EXPECT_TRUE(std::isnan(quantize(spec, std::nan(""))));
    EXPECT_EQ(quantize(spec, std::numeric_limits<double>::infinity()),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(quantize(spec, -std::numeric_limits<double>::infinity()),
              -std::numeric_limits<double>::infinity());
    bool overflowed = true;
    Quantizer(spec).round(std::numeric_limits<double>::infinity(), overflowed);
    EXPECT_FALSE(overflowed) << "inf in, inf out is propagation, not overflow";
  }
}

TEST(PrecFormat, DirectedOverflowAndUnderflow) {
  bool overflowed = false;
  const Quantizer binary16(kBinary16);
  EXPECT_EQ(binary16.round(65520.0, overflowed),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(overflowed);
  EXPECT_EQ(binary16.round(-65520.0, overflowed),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(overflowed);
  // Just inside: max finite binary16 is 65504.
  EXPECT_EQ(binary16.round(65504.0, overflowed), 65504.0);
  EXPECT_FALSE(overflowed);
  // The overflow threshold is the midpoint to the next (absent) value:
  // 65519.999… rounds down to 65504, 65520 ties away… no: RNE at the top of
  // the range overflows from exactly the midpoint up.
  EXPECT_EQ(quantize(kBinary16, 65519.0), 65504.0);

  // Gradual underflow: binary16 min subnormal is 2^-24.
  const double sub = std::ldexp(1.0, -24);
  EXPECT_EQ(quantize(kBinary16, sub), sub);
  EXPECT_EQ(quantize(kBinary16, sub * 0.75), sub);       // rounds to nearest
  EXPECT_EQ(quantize(kBinary16, sub * 0.5), 0.0);        // tie -> even (zero)
  EXPECT_EQ(quantize(kBinary16, sub * 0.49), 0.0);
  EXPECT_TRUE(std::signbit(quantize(kBinary16, -sub * 0.49)));
  EXPECT_EQ(quantize(kBinary16, sub * 1.5), sub * 2.0);  // tie -> even (2 ulp)
}

TEST(PrecFormat, SpecLimitsMatchIeeeTables) {
  EXPECT_EQ(kBinary16.max_finite(), 65504.0);
  EXPECT_EQ(kBinary16.min_normal(), std::ldexp(1.0, -14));
  EXPECT_EQ(kBinary16.min_subnormal(), std::ldexp(1.0, -24));
  EXPECT_EQ(kBinary16.epsilon(), std::ldexp(1.0, -10));
  EXPECT_EQ(kE8M23.max_finite(),
            static_cast<double>(std::numeric_limits<float>::max()));
  EXPECT_EQ(kE8M23.min_normal(),
            static_cast<double>(std::numeric_limits<float>::min()));
  EXPECT_EQ(kE8M23.epsilon(),
            static_cast<double>(std::numeric_limits<float>::epsilon()));
  EXPECT_EQ(kE11M52.max_finite(), std::numeric_limits<double>::max());
  EXPECT_EQ(kE11M52.epsilon(), std::numeric_limits<double>::epsilon());
  EXPECT_EQ(kBfloat16.epsilon(), std::ldexp(1.0, -7));
  EXPECT_EQ(kBinary16.storage_bytes(), 2.0);
  EXPECT_EQ(kBfloat16.storage_bytes(), 2.0);
  EXPECT_EQ(kE8M23.storage_bytes(), 4.0);
  EXPECT_EQ(kE11M52.storage_bytes(), 8.0);
}

TEST(PrecFormat, PromotionIsAContainmentJoin) {
  // Legacy pairs keep the legacy rule.
  EXPECT_EQ(promote_kind(4, 4), 4);
  EXPECT_EQ(promote_kind(4, 8), 8);
  EXPECT_EQ(promote_kind(8, 4), 8);
  EXPECT_EQ(promote_kind(8, 8), 8);
  // binary64 is the absorbing top for every custom format.
  EXPECT_EQ(promote_kind(1510, 8), 8);
  EXPECT_EQ(promote_kind(8, 1807), 8);
  // Containment: binary32 contains both 16-bit formats.
  EXPECT_EQ(promote_kind(1510, 4), 4);
  EXPECT_EQ(promote_kind(4, 1807), 4);
  // Incomparable 16-bit formats join at binary32 (e8 ⊇ e5,e8; m23 ⊇ m10,m7).
  EXPECT_EQ(promote_kind(1510, 1807), 4);
  // A format beyond binary32 in one dimension but not containing it joins
  // at binary64; one containing it wins outright.
  EXPECT_EQ(promote_kind(1910, 4), 8);        // e9m10: exponent beyond e8
  EXPECT_EQ(promote_kind(1930, 4), 1930);     // e9m30 contains e8m23
  EXPECT_EQ(promote_kind(1510, 1930), 1930);  // e9m30 contains e5m10
  // Soft twins collapse onto the hardware kind.
  EXPECT_EQ(promote_kind(1823, 4), 4);
  EXPECT_EQ(promote_kind(4, 1823), 4);
  // Symmetry for every pair we care about.
  const int kinds[] = {4, 8, 1510, 1807, 1823, 2152, 1930, 1910};
  for (const int a : kinds) {
    for (const int b : kinds) {
      EXPECT_EQ(promote_kind(a, b), promote_kind(b, a)) << a << " " << b;
    }
  }
}

TEST(PrecFormat, DefaultLanesScaleWithWidth) {
  EXPECT_EQ(default_lanes(kBinary16, 8), 32);
  EXPECT_EQ(default_lanes(kBfloat16, 8), 32);
  EXPECT_EQ(default_lanes(kE8M23, 8), 16);
  EXPECT_EQ(default_lanes(kE11M52, 8), 8);
  EXPECT_EQ(default_lanes(kBinary16, 0), 1);  // never degenerates to zero
}

}  // namespace
}  // namespace prose::prec
