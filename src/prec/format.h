// Parameterized binary floating-point formats (the precision lattice).
//
// The paper tunes a two-level binary32/binary64 lattice; the customized-
// precision literature (see PAPERS.md) navigates a much richer space of
// significand/exponent widths. This subsystem models any IEEE-754-shaped
// format — one sign bit, E exponent bits, M explicit significand bits —
// with round-to-nearest-even, gradual underflow (subnormals), directed
// overflow to ±inf, and NaN propagation.
//
// Arithmetic model: every operation is computed in binary64 and the result
// is quantized to the target format. For M <= 24 the binary64 intermediate
// (p = 53) satisfies p >= 2·(M+1) + 2, so the double rounding is innocuous:
// the quantized result is the correctly rounded one. The named narrow
// presets (binary16: M=10, bfloat16: M=7, e8m23: M=23) all qualify, and the
// e11m52 quantization is the identity — which is how the legacy two-level
// contract stays a strict subset of the k-level one.
//
// Quantizer: the rounding works on the binary64 bit pattern, inline, with
// constants resolved once per format (prec::Quantizer). In the format's
// normal range it is round-to-nearest-even on the 52 - M discarded
// significand bits: one add, one mask, and a carry that runs into the
// exponent field for free; overflow is one integer compare against
// max-finite's bit pattern. Below the format's smallest normal, adding and
// subtracting 2^(emin - M + 52) rounds to the subnormal granularity
// 2^(emin - M) in hardware. Formats with E >= 12 have no subnormal range
// inside binary64, but a binary64 subnormal input keeps M bits below its
// leading set bit, so those inputs round at a shifted position. The
// simulator builds each Quantizer once (per decoded program and per array),
// never per executed operation.
//
// Kind encoding: the Fortran frontend, the VM bytecode, and the tuner all
// carry precision as a small integer "kind". Hardware kinds 4 (float) and
// 8 (double) keep their historical values and code paths untouched; a
// custom format is encoded as
//
//     kind = 1000 + E·100 + M        (2 <= E <= 30, 1 <= M <= 60)
//
// e.g. binary16 = e5m10 -> 1510, bfloat16 = e8m7 -> 1807. The mapping is a
// pure function — no process-global registry — so one server process can
// host namespaces with different format tables without interference.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace prose::prec {

/// Hardware kinds (the legacy two-level lattice).
inline constexpr int kKindF32 = 4;
inline constexpr int kKindF64 = 8;

/// Encoded-kind bounds for custom formats.
inline constexpr int kMinCustomKind = 1000 + 2 * 100 + 1;    // e2m1
inline constexpr int kMaxCustomKind = 1000 + 30 * 100 + 60;  // e30m60

/// One parameterized binary format: 1 sign bit, `exp_bits` exponent bits
/// (biased, bias = 2^(E-1) - 1), `man_bits` explicit significand bits.
struct FormatSpec {
  int exp_bits = 11;
  int man_bits = 52;

  friend bool operator==(const FormatSpec&, const FormatSpec&) = default;

  /// Total storage width in bits (sign + exponent + significand).
  [[nodiscard]] int storage_bits() const { return 1 + exp_bits + man_bits; }
  /// Simulated storage footprint: the narrowest power-of-two container.
  [[nodiscard]] double storage_bytes() const {
    const int bits = storage_bits();
    if (bits <= 16) return 2.0;
    if (bits <= 32) return 4.0;
    return 8.0;
  }
  [[nodiscard]] int bias() const { return (1 << (exp_bits - 1)) - 1; }
  /// Largest finite value of the format.
  [[nodiscard]] double max_finite() const;
  /// Smallest positive normal value.
  [[nodiscard]] double min_normal() const;
  /// Smallest positive subnormal value.
  [[nodiscard]] double min_subnormal() const;
  /// Machine epsilon: ulp(1) = 2^-man_bits.
  [[nodiscard]] double epsilon() const;
};

/// True iff `kind` is a hardware kind or a well-formed custom encoding.
inline bool valid_kind(int kind) {
  if (kind == kKindF32 || kind == kKindF64) return true;
  if (kind < kMinCustomKind || kind > kMaxCustomKind) return false;
  const int m = (kind - 1000) % 100;
  return m >= 1 && m <= 60;  // the kind bounds already pin 2 <= E <= 30
}
/// True iff `kind` is a custom (non-4/8) format kind.
inline bool is_custom_kind(int kind) {
  return kind != kKindF32 && kind != kKindF64 && valid_kind(kind);
}

/// Encodes a spec into its kind (hardware widths e8m23/e11m52 still encode
/// as customs — the soft twins used by the hardware-equivalence suite).
/// Besides kind_from_name, prec_test uses it to build kinds from specs.
int encode_kind(const FormatSpec& spec);
/// Decodes any valid kind (4 -> e8m23, 8 -> e11m52, custom -> its fields).
FormatSpec decode_kind(int kind);

/// Parses a format name: "binary16", "bfloat16", "binary32", "binary64",
/// or "e<E>m<M>" (e.g. "e5m10"). Returns 0 on anything else.
int kind_from_name(std::string_view name);
/// Canonical name: "binary32"/"binary64" for the hardware kinds, "e<E>m<M>"
/// for customs (so binary16 prints as "e5m10").
std::string kind_name(int kind);
/// Key token for one atom in a Config key: "4", "8", or "e<E>m<M>".
std::string kind_token(int kind);

/// Parses a comma-separated --formats list ("binary16,bfloat16,binary32,
/// binary64") into kinds, sorted into canonical lattice order (ascending
/// storage bits, then significand, then exponent — binary64/kind 8 last).
/// Duplicates collapse. Returns empty on any unknown name; `error` (when
/// non-null) then names the offending token.
std::vector<std::uint16_t> parse_format_list(std::string_view list,
                                             std::string* error = nullptr);
/// Canonical comma-separated names of a kind list (inverse of the above).
std::string format_list_name(const std::vector<std::uint16_t>& kinds);

/// Parses a Config key back into per-atom kinds. A pure two-level key is one
/// character per atom ("4848"); a key containing any custom format is the
/// '_'-joined kind tokens ("4_e5m10_8"). Returns empty on malformed input
/// (and on the empty key — callers validate length against the atom count).
std::vector<std::uint16_t> parse_kind_key(std::string_view key);

/// Sorts kinds into canonical lattice order (see parse_format_list).
void sort_kinds(std::vector<std::uint16_t>& kinds);

/// One format's rounding constants, resolved once from its spec, and the
/// library's only quantizer: round-to-nearest-even, gradual underflow,
/// overflow to ±inf, NaN and ±inf pass through unchanged. For e11m52 it is
/// the identity; for e8m23 it is bit-identical to (double)(float)x.
class Quantizer {
 public:
  /// The identity (binary64).
  Quantizer() = default;
  explicit Quantizer(const FormatSpec& spec);

  /// Quantizes `x`; `overflowed` is set iff a finite input left the format's
  /// finite range (the directed-overflow signal the VM's trap_nonfinite
  /// path turns into a runtime fault), and cleared otherwise.
  double round(double x, bool& overflowed) const {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t sign = bits & kSignBit;
    std::uint64_t mag = bits ^ sign;
    overflowed = false;
    if (mag >= kInfBits) return x;  // NaN and ±inf propagate unchanged
    if (mag < tiny_bits_) {
      mag = round_tiny(mag);
    } else {
      mag = (mag + half_minus_one_ + ((mag >> lsb_shift_) & 1)) & keep_mask_;
      if (mag > max_bits_) {
        overflowed = true;
        mag = kInfBits;
      }
    }
    return std::bit_cast<double>(mag | sign);
  }
  double operator()(double x) const {
    bool overflowed = false;
    return round(x, overflowed);
  }
  /// The format's significand bits M (52 for the identity).
  [[nodiscard]] int man_bits() const { return man_bits_; }

 private:
  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kInfBits = std::uint64_t{0x7ff} << 52;

  /// Magnitudes below tiny_bits_: the format's subnormal range (add and
  /// subtract 2^(emin - M + 52)), or, for E >= 12, a binary64 subnormal
  /// rounded to M bits below its leading set bit.
  std::uint64_t round_tiny(std::uint64_t mag) const {
    if (subnormal_rounder_ != 0.0) {
      const double y = std::bit_cast<double>(mag);
      return std::bit_cast<std::uint64_t>((y + subnormal_rounder_) -
                                          subnormal_rounder_);
    }
    const int discard = 63 - std::countl_zero(mag) - man_bits_;
    if (discard <= 0) return mag;  // ±0 lands here too (countl_zero = 64)
    const std::uint64_t unit = std::uint64_t{1} << discard;
    return (mag + (unit >> 1) - 1 + ((mag >> discard) & 1)) & ~(unit - 1);
  }

  // Normal range: round away the low lsb_shift_ bits of the magnitude. When
  // nothing is discarded lsb_shift_ is 63, which reads the magnitude's
  // always-clear sign position, so the add is a no-op.
  std::uint64_t keep_mask_ = ~std::uint64_t{0};
  std::uint64_t half_minus_one_ = 0;
  std::uint64_t max_bits_ = kInfBits;  // max_finite() as a bit pattern
  std::uint64_t tiny_bits_ = 0;        // below: round_tiny
  double subnormal_rounder_ = 0.0;     // 2^(emin - M + 52); 0 when E >= 12
  int lsb_shift_ = 63;
  int man_bits_ = 52;
};

/// Quantizes a binary64 value to the format (see Quantizer).
double quantize(const FormatSpec& spec, double x);
/// Quantize by kind (4/8 use the hardware casts — verbatim legacy paths).
double quantize_kind(int kind, double x);

/// Containment partial order: a contains b iff a can represent every value
/// of b exactly (exp_bits >= and man_bits >=).
bool contains(const FormatSpec& a, const FormatSpec& b);

/// Promotion join for mixed-kind arithmetic. Degenerates to the legacy
/// max(kind) rule on {4, 8}: if either side is kind 8 the result is 8;
/// if one format contains the other the container wins; otherwise the
/// smallest hardware format containing both (binary32, else binary64).
int promote_kind(int a, int b);

/// Default vector lanes for a format on the modeled machine: the binary64
/// lane count scaled by 64 / storage bits (binary16-class formats pack 4×
/// the f64 lanes). Hardware kinds use the machine model's own fields.
int default_lanes(const FormatSpec& spec, int lanes_f64);

}  // namespace prose::prec
