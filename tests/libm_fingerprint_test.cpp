// The goldens are a function of the host libm. The VM takes sin, cos, exp,
// log, pow and atan2 (binary32 and binary64) from the host library, and every
// model calls at least one of them, so a libm that rounds one result
// differently moves golden lines all over the suite at once. This test names
// that cause: it digests those functions over a fixed seeded argument set,
// through the same <cmath> overloads the VM's handlers call.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace {

constexpr int kArgs = 4096;

/// FNV-1a over the bytes of each result's bit pattern.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v), 8); }
  void add(float v) { add(std::bit_cast<std::uint32_t>(v), 4); }
};

/// splitmix64: the argument stream, independent of any library RNG.
struct Args {
  std::uint64_t s;
  double uniform(double lo, double hi) {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return lo + (hi - lo) * static_cast<double>(z >> 11) * 0x1.0p-53;
  }
};

/// Digest of f over kArgs seeded arguments in [lo, hi) (and [lo2, hi2) for
/// the second operand), evaluated in T.
template <typename T, typename F>
std::uint64_t digest(std::uint64_t seed, double lo, double hi, double lo2,
                     double hi2, F f) {
  Args args{seed};
  Fnv1a fnv;
  for (int i = 0; i < kArgs; ++i) {
    const auto x = static_cast<T>(args.uniform(lo, hi));
    const auto y = static_cast<T>(args.uniform(lo2, hi2));
    fnv.add(static_cast<T>(f(x, y)));
  }
  return fnv.h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(LibmFingerprint, MatchesTheLibmTheGoldensWereRecordedOn) {
  struct Case {
    const char* name;
    std::uint64_t f32;
    std::uint64_t f64;
    std::uint64_t got32;
    std::uint64_t got64;
  };
  // Expected digests were recorded on glibc 2.36 (Debian 12, x86-64). The
  // calls mirror the handlers: std::sin(float) for kind 4, std::sin(double)
  // for kind 8 (vm_engine.inc: vm_libm1, vm_libm2 and the pow handlers).
  Case cases[] = {
      {"sin", 0x00c09ab6c48a83f7ull, 0x53669a40a300f5e0ull,
       digest<float>(1, -20, 20, 0, 1, [](float x, float) { return std::sin(x); }),
       digest<double>(1, -20, 20, 0, 1, [](double x, double) { return std::sin(x); })},
      {"cos", 0x9bbd54908c3dd694ull, 0xc20ed472f6b366f1ull,
       digest<float>(2, -20, 20, 0, 1, [](float x, float) { return std::cos(x); }),
       digest<double>(2, -20, 20, 0, 1, [](double x, double) { return std::cos(x); })},
      {"exp", 0x0b7d1c9d8b98cec3ull, 0x6f6fd4982eca74a2ull,
       digest<float>(3, -40, 40, 0, 1, [](float x, float) { return std::exp(x); }),
       digest<double>(3, -40, 40, 0, 1, [](double x, double) { return std::exp(x); })},
      {"log", 0x05f3e63b72bb566eull, 0x60b1137ea141b36cull,
       digest<float>(4, 1e-6, 1e6, 0, 1, [](float x, float) { return std::log(x); }),
       digest<double>(4, 1e-6, 1e6, 0, 1, [](double x, double) { return std::log(x); })},
      {"pow", 0x05447f520a34c14aull, 0xdaddc2437e796514ull,
       digest<float>(5, 1e-3, 10, -8, 8, [](float x, float y) { return std::pow(x, y); }),
       digest<double>(5, 1e-3, 10, -8, 8,
                      [](double x, double y) { return std::pow(x, y); })},
      {"atan2", 0x347641a9e2223b4cull, 0x6b15686a7ed750f9ull,
       digest<float>(6, -10, 10, -10, 10,
                     [](float x, float y) { return std::atan2(x, y); }),
       digest<double>(6, -10, 10, -10, 10,
                      [](double x, double y) { return std::atan2(x, y); })},
  };
  for (const Case& c : cases) {
    const auto why = [&](const char* kind, std::uint64_t want, std::uint64_t got) {
      return std::string("host libm ") + c.name + "(" + kind + ") digest " + hex(got) +
             ", expected " + hex(want) +
             ": this libm rounds differently from the one tests/golden/ was "
             "recorded on (glibc 2.36), so golden mismatches in this build come "
             "from the host libm, not from the VM";
    };
    EXPECT_EQ(c.got32, c.f32) << why("binary32", c.f32, c.got32);
    EXPECT_EQ(c.got64, c.f64) << why("binary64", c.f64, c.got64);
  }
}

}  // namespace
