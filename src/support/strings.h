// String helpers shared across the frontend (case-insensitive Fortran
// identifiers) and the report writers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace prose {

/// Lower-cases ASCII. Fortran identifiers are case-insensitive; the frontend
/// canonicalizes them through this.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

std::string_view trim(std::string_view s);

/// Splits on a delimiter; empty fields are kept.
std::vector<std::string> split(std::string_view s, char delim);

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

/// Fixed-point formatting helpers for tables ("1.95", "56.2%").
std::string format_double(double x, int precision);
std::string format_percent(double fraction, int precision = 1);

/// Scientific notation with the given significant digits ("1.4e+02").
std::string format_sci(double x, int digits = 2);

/// Pads to a column width, left-aligned; longer text is kept whole.
std::string pad_right(std::string s, std::size_t width);

/// 64-bit FNV-1a. Unlike std::hash, the value is fixed by the algorithm —
/// identical across platforms, standard libraries, and process runs — so it
/// is safe to persist (trace config ids) or to key reproducible data
/// structures (the evaluator's memo cache).
std::uint64_t fnv1a64(std::string_view s);

}  // namespace prose
