// Campaign driver: one full tuning experiment (paper §IV).
//
// Wires the delta-debugging search to the simulated 20-node cluster with a
// 12-hour budget and 3×-baseline per-variant timeouts, then aggregates the
// Table II summary row and the Figure 5/6 series.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "tuner/evaluator.h"
#include "tuner/schedule.h"
#include "tuner/search.h"

namespace prose::tuner {

struct CampaignOptions {
  ClusterOptions cluster;
  std::size_t max_variants = 0;  // safety cap on top of the wall budget
  std::uint64_t noise_seed = 2024;
  /// Precision lattice for the search (the --formats knob): encoded prec::
  /// kinds, e.g. parse_format_list("binary16,bfloat16,binary32,binary64").
  /// Empty = the paper's two-level binary32/binary64 lattice (and the
  /// journal/summary bytes of such a campaign are unchanged from before this
  /// knob existed). Overrides TargetSpec::formats when non-empty.
  std::vector<std::uint16_t> formats;
  /// Host worker threads for batch-parallel variant evaluation (the --jobs N
  /// knob). 1 = serial; 0 = one per hardware thread. The CampaignResult is
  /// bit-identical for every value — jobs only changes host wall-clock time,
  /// never the simulated campaign (ClusterSim node-seconds are computed per
  /// variant, not from host time).
  std::size_t jobs = 1;
  /// Flight-recorder sinks (both empty = tracing off; zero cost). When set,
  /// the campaign traces every variant lifecycle, the delta-debug decisions,
  /// and per-node cluster occupancy into a Perfetto-loadable timeline.
  trace::TraceOptions trace;

  /// Deterministic fault-injection spec (empty = no faults), e.g.
  /// "compile:p=0.02;transient:p=0.05;straggler:p=0.03,slow=4x;
  /// node_crash:node=7,at=3600s" — see FaultPlan::parse. The injected
  /// sequence depends only on (fault_seed, config, attempt), so it is
  /// identical across runs and worker counts.
  std::string fault_spec;
  std::uint64_t fault_seed = 2025;
  /// Retry/quarantine policy for injected transient faults.
  RetryPolicy retry;

  /// Write-ahead journal path (empty = no journal). Every evaluated variant
  /// is appended and fsync'd before the search sees it, so a killed campaign
  /// can resume. With `resume`, the journal at journal_path is loaded first
  /// and its evaluations replayed instead of re-simulated; the resumed
  /// CampaignResult is bit-identical to the uninterrupted run's.
  std::string journal_path;
  bool resume = false;
  /// Chaos knob: SIGKILL the process after this many variant records have
  /// been made durable (0 = off). For crash/resume testing only.
  std::size_t journal_kill_after = 0;

  /// Remote-evaluation backend (non-owning; null = evaluate in-process).
  /// A serve client plugged in here offloads every cache miss to a
  /// prose_served daemon; the CampaignResult — and the journal bytes — are
  /// bit-identical to the local run's (the client carries the evaluator's
  /// proposal-order noise streams with each request).
  EvalBackend* backend = nullptr;

  /// Cooperative cancellation (non-owning; null = never stop). Checked
  /// between search batches: when set, the campaign stops proposing work,
  /// marks the search budget-exhausted, and tears down normally — journal
  /// fsync'd, tracer flushed — so a SIGINT'd campaign is resumable. Wired to
  /// a signal handler by the CLI drivers.
  const std::atomic<bool>* stop = nullptr;

  /// Opt-in journal metrics footer: append one {"type":"metrics"} record
  /// (counters, gauges, histogram count/sum/quantiles) after every campaign
  /// record. Off by default because the footer carries wall-clock values —
  /// appending it would break byte-identical journal comparisons across
  /// runs and worker counts. Like diag records, load() treats the footer as
  /// informational, so resume is exact either way.
  bool metrics_footer = false;

  /// Numerical flight recorder: after the search finishes, re-run the
  /// rejected variants under binary64 shadow execution and aggregate their
  /// blame reports into a root-cause criticality ranking (paper §V, done by
  /// hand there). Diagnosis is a pure observer: the diagnosed campaign's
  /// outcomes, simulated cycles, frontier, and journal variant records are
  /// bit-identical to the undiagnosed run's — "diag" journal records are
  /// appended only after every campaign record.
  bool diagnose = false;
  /// Cap on distinct rejected variants re-run under shadow execution.
  std::size_t max_diagnosed = 64;
};

/// Table II row.
struct CampaignSummary {
  std::string model;
  std::size_t total = 0;
  double pass_pct = 0.0;
  double fail_pct = 0.0;
  double timeout_pct = 0.0;
  double error_pct = 0.0;  // runtime errors (the paper's "Error" column)
  /// Variants quarantined after exhausting the transient-fault retry budget
  /// ("no information" — excluded from pass/fail reasoning).
  double lost_pct = 0.0;
  double best_speedup = 0.0;
  bool finished = false;       // search reached 1-minimality within budget
  double wall_hours = 0.0;
  /// Non-fatal sink failures (empty = healthy): the campaign completed, but
  /// the flight recorder / journal lost writes along the way.
  std::string trace_error;
  std::string journal_error;
  /// Served-mode degradation (zeros for local campaigns): variants the
  /// remote backend failed to resolve (computed locally instead — results
  /// unchanged, locality changed) and busy rounds spent waiting out server
  /// admission rejections. Transport-dependent, so excluded from bit-identity
  /// comparisons, which cover everything the campaign *measured*.
  std::uint64_t fallbacks = 0;
  std::uint64_t busy_retries = 0;
  /// Shard-level degradation (zeros for local campaigns): hedged re-issues
  /// (and how many the hedge won), primary-shard failovers, shards declared
  /// lost mid-campaign, and total deterministic busy backoff slept. A single
  /// server is a fleet of one: it never hedges or fails over, but losing it
  /// counts in shards_lost. Transport-dependent like the two above —
  /// excluded from bit-identity.
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t failovers = 0;
  std::uint64_t shards_lost = 0;
  double busy_backoff_seconds = 0.0;
  /// Final registry snapshot. Wall-clock metric values — also excluded from
  /// bit-identity comparisons.
  obs::MetricsSnapshot metrics;
};

/// Figure 6 series: per procedure, the unique per-procedure precision
/// assignments explored and their mean-cycles-per-call speedups.
struct ProcedureVariantPoint {
  std::string proc;
  std::string scope_key;     // per-procedure precision pattern
  double speedup = 0.0;      // baseline mean/call ÷ variant mean/call
  double fraction32 = 0.0;   // fraction of the procedure's atoms at 32-bit
};

/// Campaign-level criticality of one search-space atom: how strongly its
/// demotion associates with rejected variants, combined with the shadow
/// divergence observed when it was demoted. The ranking the paper's §V
/// derives by hand ("which variable cannot be 32-bit, and why").
struct AtomCriticality {
  std::string qualified;
  /// Ranking score in [0, 1]:
  ///   0.45 · fail_association + 0.25 · min(1, max_rel_div)
  ///   + 0.20 · (pivotal > 0) + 0.10 · final64.
  double score = 0.0;
  /// Of the distinct variants that demoted this atom, the fraction that were
  /// rejected (failed, timed out, errored, or passed slower than 1×).
  double fail_association = 0.0;
  /// Max shadow divergence recorded against this atom while demoted (+inf
  /// when a demoted write went non-finite).
  double max_rel_div = 0.0;
  std::size_t demoted_rejected = 0;
  std::size_t demoted_total = 0;
  /// Direct causal evidence: rejected variants that differ from an evaluated
  /// non-rejected variant in this atom's demotion ALONE. Divergence ranking
  /// cannot separate the root cause from the variables it contaminates
  /// downstream; a pivotal pair can (it is the delta-debug 1-minimality
  /// probe, recycled as provenance).
  std::size_t pivotal = 0;
  /// The atom survived at 64-bit in the final (1-minimal) configuration —
  /// the search itself refused to demote it.
  bool final64 = false;
};

/// Campaign-level criticality of one procedure: its summed share of the
/// per-variant blame across all diagnosed variants (1.0 = it owned all the
/// blame of one entire diagnosed variant).
struct ProcCriticality {
  std::string qualified;
  double blame_share = 0.0;      // Σ over diagnosed variants of blame_p / Σblame
  double max_rel_div = 0.0;
  std::uint64_t cancellations = 0;
  std::uint64_t control_divergences = 0;
  std::uint64_t faults = 0;      // diagnosed re-runs that faulted/stalled here
  double cast_cycles = 0.0;      // max simulated cast cycles across re-runs
};

/// Aggregated root-cause diagnosis of one campaign (CampaignOptions::diagnose).
struct CampaignDiagnosis {
  bool enabled = false;
  std::size_t rejected = 0;    // distinct rejected variants seen by the search
  std::size_t diagnosed = 0;   // of those, re-run under shadow execution
  std::vector<AtomCriticality> atoms;       // score desc — root cause first
  std::vector<ProcCriticality> procedures;  // blame share desc
  std::vector<BlameReport> reports;         // per diagnosed variant, search order
};

struct CampaignResult {
  CampaignSummary summary;
  SearchResult search;
  std::vector<ProcedureVariantPoint> figure6;
  /// The 1-minimal (or best-so-far) configuration's per-atom kinds, by
  /// qualified name — the paper's human-readable variant description.
  std::map<std::string, int> final_kinds;
  /// Evaluations satisfied from the journal instead of re-simulated (resume
  /// accounting; 0 on a fresh run). Deliberately outside CampaignSummary so
  /// summaries compare bit-identical between original and resumed runs.
  std::size_t replayed_from_journal = 0;
  /// Root-cause diagnosis (empty/disabled unless CampaignOptions::diagnose).
  /// Deliberately outside CampaignSummary so diagnosed and undiagnosed runs
  /// compare bit-identical on everything the campaign measured.
  CampaignDiagnosis diagnosis;
};

/// "auto", "switch" or "threaded". perfbench's bench-meta line prints the
/// build's engine with it.
const char* to_string(sim::VmDispatch dispatch);

/// Runs one campaign on a target spec.
StatusOr<CampaignResult> run_campaign(const TargetSpec& spec,
                                      const CampaignOptions& options = {});

/// Builds the Figure 6 series from an existing evaluator + search trace.
std::vector<ProcedureVariantPoint> figure6_series(const Evaluator& evaluator,
                                                  const SearchResult& search);

/// Summarizes a search trace into the Table II row shape.
CampaignSummary summarize(const std::string& model, const SearchResult& search,
                          const ClusterSim& cluster);

/// Shadow-diagnoses the rejected variants of a finished search and aggregates
/// the blame into the criticality rankings. `final_config` is the accepted
/// (best-or-accepted) configuration, used for the final64 signal. Re-runs at
/// most `max_diagnosed` distinct rejected configurations. Pure observer: uses
/// Evaluator::diagnose, which bypasses the memo cache, noise streams, and
/// journal.
CampaignDiagnosis diagnose_campaign(Evaluator& evaluator,
                                    const SearchResult& search,
                                    const Config& final_config,
                                    std::size_t max_diagnosed = 64);

}  // namespace prose::tuner
