// Search-space exploration (paper §III-B).
//
// The primary strategy is the delta-debugging adaptation introduced by
// Precimonious and reused throughout the FPPT literature: starting from the
// uniform high-precision configuration, repeatedly try to lower groups of
// the remaining 64-bit atoms, refining the partition when no group succeeds,
// until the configuration is *1-minimal* — lowering any single remaining
// 64-bit atom violates the correctness or performance criteria.
//
// Brute-force, random, and greedy one-at-a-time searches are provided as
// baselines for the ablation benches (the paper argues delta debugging is
// the canonical choice; the ablation shows why).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "tuner/evaluator.h"
#include "tuner/search_space.h"

namespace prose::tuner {

/// One explored variant, in exploration order.
struct VariantRecord {
  int id = 0;            // 1-based exploration index
  Config config;
  Evaluation eval;
};

struct SearchResult {
  std::vector<VariantRecord> records;
  /// Best acceptable configuration seen (highest Eq. (1) speedup among
  /// passes); nullopt when nothing acceptable was found.
  std::optional<Config> best;
  double best_speedup = 0.0;
  /// The final accepted configuration of the delta-debug loop (1-minimal
  /// when `one_minimal` is true).
  Config accepted;
  bool one_minimal = false;
  bool budget_exhausted = false;
  std::size_t cache_hits = 0;
  /// Candidates rejected by the static prefilter before dynamic evaluation.
  std::size_t statically_skipped = 0;
  /// Variants quarantined as Outcome::kLost (injected transient faults
  /// exhausted the retry budget). They stay in `records` — they consumed
  /// cluster time — but carry no pass/fail information; the search simply
  /// treats them as unacceptable.
  std::size_t lost = 0;
};

/// Hook letting a campaign driver account simulated wall time per proposed
/// batch (and stop the search when the 12-hour budget runs out). Receives
/// the evaluations of one batch; returns false to stop the search.
using BatchHook = std::function<bool(const std::vector<const VariantRecord*>&)>;

struct SearchOptions {
  /// Hard cap on evaluated variants (0 = unlimited).
  std::size_t max_variants = 0;
  /// Optional work pool (non-owning) for batch-parallel variant evaluation —
  /// the single-host analogue of the paper's one-variant-per-node fan-out.
  /// Every search proposes whole rounds/partitions as batches; with a pool
  /// the round's cache misses evaluate concurrently, and the SearchResult
  /// (records, accepted config, speedups, cache_hits) is bit-identical to
  /// the serial result for any worker count. Null = serial evaluation.
  ThreadPool* pool = nullptr;
  /// Called once per proposal batch; see BatchHook.
  BatchHook batch_hook;
  /// Optional §V static pre-filter: return false to reject a candidate
  /// *without* dynamic evaluation (it is treated as unacceptable and counted
  /// in SearchResult::statically_skipped, not in records).
  std::function<bool(const Config&)> prefilter;
  /// Optional flight recorder (non-owning). The delta-debug search emits
  /// round/partition/decision events so 1-minimality convergence is
  /// replayable; per-variant spans come from the evaluator itself.
  trace::Tracer* tracer = nullptr;
};

/// The delta-debugging search. Deterministic given the evaluator.
SearchResult delta_debug_search(Evaluator& evaluator, const SearchOptions& options = {});

/// Exhaustive enumeration of all 2^n configurations (feasible only for small
/// spaces like funarc's 2^8).
SearchResult brute_force_search(Evaluator& evaluator, const SearchOptions& options = {});

/// Uniform random sampling baseline.
SearchResult random_search(Evaluator& evaluator, std::size_t samples,
                           std::uint64_t seed, const SearchOptions& options = {});

/// Greedy one-atom-at-a-time lowering baseline (the naive O(n^2) approach).
SearchResult one_at_a_time_search(Evaluator& evaluator, const SearchOptions& options = {});

/// Verifies 1-minimality of a configuration: every single remaining 64-bit
/// atom, lowered alone on top of `config`, must be unacceptable. Returns the
/// indices that violate minimality (empty = 1-minimal). Test oracle:
/// tuner_search_test and property_pipeline_test check delta debugging's
/// 1-minimality guarantee with it.
std::vector<std::size_t> check_one_minimal(Evaluator& evaluator, const Config& config);

}  // namespace prose::tuner
