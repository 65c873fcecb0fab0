#include "prec/format.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace prose::prec {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// 2^e as a binary64, exactly as std::ldexp(1.0, e) rounds it: subnormal
/// below 2^-1022, zero below 2^-1074, infinity above 2^1023.
double pow2(int e) {
  if (e > 1023) return kInf;
  if (e >= -1022) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
  }
  if (e >= -1074) return std::bit_cast<double>(std::uint64_t{1} << (e + 1074));
  return 0.0;
}

/// Canonical lattice order: narrower storage first, then fewer significand
/// bits, then fewer exponent bits; the kind value breaks exact spec ties
/// (hardware 4/8 before their soft twins e8m23/e11m52).
bool lattice_less(std::uint16_t a, std::uint16_t b) {
  const FormatSpec fa = decode_kind(a);
  const FormatSpec fb = decode_kind(b);
  if (fa.storage_bytes() != fb.storage_bytes()) {
    return fa.storage_bytes() < fb.storage_bytes();
  }
  if (fa.man_bits != fb.man_bits) return fa.man_bits < fb.man_bits;
  if (fa.exp_bits != fb.exp_bits) return fa.exp_bits < fb.exp_bits;
  return a < b;
}

}  // namespace

// (2 - 2^-M)·2^emax, rounded to binary64: for M > 52 the significand rounds
// up to 2, and past binary64's range the value is +inf. emax == bias.
double FormatSpec::max_finite() const {
  const int emax = bias();
  if (man_bits > 52) return pow2(emax + 1);
  if (emax > 1023) return kInf;
  const std::uint64_t ones = (std::uint64_t{1} << man_bits) - 1;
  return std::bit_cast<double>((static_cast<std::uint64_t>(emax + 1023) << 52) |
                               (ones << (52 - man_bits)));
}

double FormatSpec::min_normal() const { return pow2(1 - bias()); }

double FormatSpec::min_subnormal() const { return pow2(1 - bias() - man_bits); }

double FormatSpec::epsilon() const { return pow2(-man_bits); }

Quantizer::Quantizer(const FormatSpec& spec) {
  // Formats containing binary64 represent every double exactly.
  if (spec.exp_bits >= 11 && spec.man_bits >= 52) return;
  man_bits_ = spec.man_bits;
  max_bits_ = std::bit_cast<std::uint64_t>(spec.max_finite());
  if (spec.man_bits < 52) {
    lsb_shift_ = 52 - spec.man_bits;
    const std::uint64_t unit = std::uint64_t{1} << lsb_shift_;
    half_minus_one_ = (unit >> 1) - 1;
    keep_mask_ = ~(unit - 1);
  }
  const int emin = 1 - spec.bias();
  if (emin - spec.man_bits + 52 >= -1022) {
    // The format's subnormal range lies inside binary64's normal range
    // (E <= 11). Adding 2^(emin - M + 52) to a magnitude below it puts the
    // sum's ulp at the subnormal granularity 2^(emin - M); subtracting it
    // back is exact. For M > 52 that constant is below min_normal, and
    // magnitudes between the two are already on the grid.
    subnormal_rounder_ = pow2(emin - spec.man_bits + 52);
    tiny_bits_ = std::bit_cast<std::uint64_t>(
        std::min(spec.min_normal(), subnormal_rounder_));
  } else {
    // E >= 12: every binary64 value is normal in the format, but a binary64
    // subnormal has fewer than 52 significand bits below its leading bit.
    tiny_bits_ = std::uint64_t{1} << 52;
  }
}

int encode_kind(const FormatSpec& spec) {
  return 1000 + spec.exp_bits * 100 + spec.man_bits;
}

FormatSpec decode_kind(int kind) {
  if (kind == kKindF32) return {8, 23};
  if (kind == kKindF64) return {11, 52};
  return {(kind - 1000) / 100, (kind - 1000) % 100};
}

int kind_from_name(std::string_view name) {
  if (name == "binary32") return kKindF32;
  if (name == "binary64") return kKindF64;
  if (name == "binary16") return encode_kind({5, 10});
  if (name == "bfloat16") return encode_kind({8, 7});
  // "e<E>m<M>"
  if (name.size() < 4 || name.front() != 'e') return 0;
  const std::size_t m_at = name.find('m', 1);
  if (m_at == std::string_view::npos || m_at == 1 || m_at + 1 >= name.size()) {
    return 0;
  }
  int e = 0;
  int m = 0;
  for (std::size_t i = 1; i < m_at; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    e = e * 10 + (name[i] - '0');
    if (e > 99) return 0;
  }
  for (std::size_t i = m_at + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    m = m * 10 + (name[i] - '0');
    if (m > 99) return 0;
  }
  const int kind = 1000 + e * 100 + m;
  return valid_kind(kind) ? kind : 0;
}

std::string kind_name(int kind) {
  if (kind == kKindF32) return "binary32";
  if (kind == kKindF64) return "binary64";
  const FormatSpec spec = decode_kind(kind);
  return "e" + std::to_string(spec.exp_bits) + "m" +
         std::to_string(spec.man_bits);
}

std::string kind_token(int kind) {
  if (kind == kKindF32) return "4";
  if (kind == kKindF64) return "8";
  return kind_name(kind);
}

std::vector<std::uint16_t> parse_format_list(std::string_view list,
                                             std::string* error) {
  std::vector<std::uint16_t> kinds;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t end = list.find(',', start);
    if (end == std::string_view::npos) end = list.size();
    const std::string_view token = list.substr(start, end - start);
    if (!token.empty()) {
      const int kind = kind_from_name(token);
      if (kind == 0) {
        if (error != nullptr) *error = std::string(token);
        return {};
      }
      kinds.push_back(static_cast<std::uint16_t>(kind));
    }
    start = end + 1;
  }
  sort_kinds(kinds);
  return kinds;
}

std::string format_list_name(const std::vector<std::uint16_t>& kinds) {
  std::string out;
  for (const std::uint16_t k : kinds) {
    if (!out.empty()) out += ',';
    out += kind_name(k);
  }
  return out;
}

std::vector<std::uint16_t> parse_kind_key(std::string_view key) {
  std::vector<std::uint16_t> out;
  if (key.find('_') == std::string_view::npos) {
    out.reserve(key.size());
    for (const char c : key) {
      if (c == '4') {
        out.push_back(kKindF32);
      } else if (c == '8') {
        out.push_back(kKindF64);
      } else {
        return {};
      }
    }
    return out;
  }
  std::size_t start = 0;
  while (start <= key.size()) {
    std::size_t end = key.find('_', start);
    if (end == std::string_view::npos) end = key.size();
    const std::string_view token = key.substr(start, end - start);
    int kind = 0;
    if (token == "4") {
      kind = kKindF32;
    } else if (token == "8") {
      kind = kKindF64;
    } else {
      kind = kind_from_name(token);
    }
    if (kind == 0) return {};
    out.push_back(static_cast<std::uint16_t>(kind));
    if (end == key.size()) break;
    start = end + 1;
  }
  return out;
}

void sort_kinds(std::vector<std::uint16_t>& kinds) {
  std::sort(kinds.begin(), kinds.end(), lattice_less);
  kinds.erase(std::unique(kinds.begin(), kinds.end()), kinds.end());
}

double quantize(const FormatSpec& spec, double x) { return Quantizer(spec)(x); }

double quantize_kind(int kind, double x) {
  if (kind == kKindF64) return x;
  if (kind == kKindF32) return static_cast<double>(static_cast<float>(x));
  return quantize(decode_kind(kind), x);
}

bool contains(const FormatSpec& a, const FormatSpec& b) {
  return a.exp_bits >= b.exp_bits && a.man_bits >= b.man_bits;
}

int promote_kind(int a, int b) {
  if (a == b) return a;
  if (a == kKindF64 || b == kKindF64) return kKindF64;
  const FormatSpec fa = decode_kind(a);
  const FormatSpec fb = decode_kind(b);
  const bool ab = contains(fa, fb);
  const bool ba = contains(fb, fa);
  if (ab && ba) return std::min(a, b);  // same spec: hardware twin wins
  if (ab) return a;
  if (ba) return b;
  const FormatSpec f32 = decode_kind(kKindF32);
  if (contains(f32, fa) && contains(f32, fb)) return kKindF32;
  return kKindF64;
}

int default_lanes(const FormatSpec& spec, int lanes_f64) {
  const int container_bits = static_cast<int>(spec.storage_bytes()) * 8;
  return std::max(1, lanes_f64 * 64 / container_bits);
}

}  // namespace prose::prec
