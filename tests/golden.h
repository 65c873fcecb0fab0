// Checked-in goldens, read from the file each test binary names in
// PROSE_GOLDEN_FILE: tests/golden/vm_goldens.txt, the oracle for VM
// semantics, and tests/golden/search_goldens.txt, the serial search results
// every worker count must reproduce. Every engine must reproduce the VM
// lines exactly, so an engine change that moves an outcome, a simulated
// cycle, an op-mix count, a print, or a shadow-diagnosis result fails here
// even when all engines agree with each other.
//
// One line per case: "<id> <field>=<value> ...". A test renders the line for
// an id from a fresh run and compares it with the file's line of the same id;
// on mismatch the failure message carries the actual line. Doubles are
// stored as their binary64 bit patterns, logs and reports as FNV-1a hashes.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "sim/vm.h"
#include "support/status.h"
#include "support/strings.h"
#include "tuner/search.h"

namespace prose::testing {

inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Bit pattern of a binary64 value: exact, and stable across printf
/// implementations.
inline std::string bits(double v) { return hex64(std::bit_cast<std::uint64_t>(v)); }

/// The golden file's lines keyed by id (first token). Blank lines and lines
/// starting with '#' are comments.
inline const std::map<std::string, std::string>& golden_lines() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(PROSE_GOLDEN_FILE);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      out[line.substr(0, line.find(' '))] = line;
    }
    return out;
  }();
  return lines;
}

/// Value of `field` ("field=value", space-delimited) on the golden line of
/// `id`; empty when the line or the field is absent.
inline std::string golden_field(const std::string& id, const std::string& field) {
  const auto it = golden_lines().find(id);
  if (it == golden_lines().end()) return "";
  const std::string& line = it->second;
  const std::string tag = " " + field + "=";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t from = at + tag.size();
  return line.substr(from, line.find(' ', from) - from);
}

/// Expects the golden line whose id is `actual`'s first token to equal
/// `actual`, reporting the actual line on mismatch.
inline void expect_golden(const std::string& actual, const std::string& context = "") {
  const std::string id = actual.substr(0, actual.find(' '));
  const auto it = golden_lines().find(id);
  if (it == golden_lines().end()) {
    ADD_FAILURE() << "no golden line for " << id << context << "\nactual:\n" << actual;
    return;
  }
  if (it->second != actual) {
    ADD_FAILURE() << "golden mismatch for " << id << context
                  << "\nexpected:\n" << it->second << "\nactual:\n" << actual;
  }
}

/// Golden line of one Vm::call(): outcome and status message, cycle and
/// cast-cycle bits, instruction count, every OpMix field, and the print-log
/// hash. FusedStats is deliberately absent — it is engine-specific.
inline std::string run_line(const std::string& id, const sim::RunResult& r,
                            const std::string& print_log) {
  const sim::OpMix& m = r.op_mix;
  std::string s = id;
  s += " status=" + std::string(status_code_name(r.status.code()));
  s += " msg=\"" + r.status.message() + "\"";
  s += " cycles=" + bits(r.cycles);
  s += " cast=" + bits(r.cast_cycles);
  s += " instr=" + std::to_string(r.instructions);
  s += " fp32=" + std::to_string(m.fp32_arith);
  s += " fp64=" + std::to_string(m.fp64_arith);
  s += " fmt=" + std::to_string(m.fmt_arith);
  s += " int=" + std::to_string(m.int_arith);
  s += " casts=" + std::to_string(m.casts);
  s += " mem=" + std::to_string(m.mem);
  s += " calls=" + std::to_string(m.calls);
  s += " branches=" + std::to_string(m.branches);
  s += " intrinsics=" + std::to_string(m.intrinsics);
  s += " other=" + std::to_string(m.other);
  s += " vloops=" + std::to_string(m.vector_loop_entries);
  s += " sloops=" + std::to_string(m.scalar_loop_entries);
  s += " print=" + hex64(fnv1a64(print_log));
  return s;
}

/// Golden line of a delta-debugging search: every SearchResult field the
/// bit-identity suites compare (attempts and lost excepted), doubles as bit
/// patterns, with the records folded into one FNV-1a hash of their rendering.
inline std::string search_line(const std::string& id,
                               const tuner::SearchResult& r) {
  std::string records;
  for (const tuner::VariantRecord& rec : r.records) {
    const tuner::Evaluation& e = rec.eval;
    records += std::to_string(rec.id) + " " + rec.config.key() + " " +
               tuner::to_string(e.outcome) + " " +
               std::to_string(e.detail.size()) + ":" + e.detail + " " +
               bits(e.metric) + " " + bits(e.error) +
               " " + bits(e.hotspot_cycles) + " " + bits(e.whole_cycles) + " " +
               bits(e.cast_cycles) + " " + bits(e.measured_cycles) + " " +
               bits(e.speedup) + " " + bits(e.fraction32) + " " +
               std::to_string(e.wrappers) + " " + bits(e.node_seconds);
    for (const auto& [proc, mean] : e.proc_mean_cycles) {
      records += " mean:" + proc + "=" + bits(mean);
    }
    for (const auto& [proc, calls] : e.proc_calls) {
      records += " calls:" + proc + "=" + std::to_string(calls);
    }
    records += '\n';
  }
  return id + " records=" + std::to_string(r.records.size()) +
         " hash=" + hex64(fnv1a64(records)) +
         " best=" + (r.best.has_value() ? r.best->key() : "none") +
         " best_speedup=" + bits(r.best_speedup) +
         " accepted=" + r.accepted.key() +
         " one_minimal=" + (r.one_minimal ? "1" : "0") +
         " budget_exhausted=" + (r.budget_exhausted ? "1" : "0") +
         " cache_hits=" + std::to_string(r.cache_hits) +
         " statically_skipped=" + std::to_string(r.statically_skipped);
}

}  // namespace prose::testing
