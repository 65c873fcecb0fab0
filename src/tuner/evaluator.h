// Dynamic variant evaluation (paper Fig. 1: transform → compile → execute →
// measure), with memoization — the delta-debugging search revisits
// configurations, and the paper's tool caches them too.
//
// Evaluation is batch-parallel: the searches propose whole rounds of
// independent variants, and evaluate_batch() fans them out to a ThreadPool
// the way the paper fanned variants out one-per-node across 20 Derecho nodes
// (§IV-A). evaluate_batch() is the one memo path — evaluate() is a batch of
// one — and its results are bit-identical for every worker count:
//
//   * the memo cache is thread-safe with single-flight per config key — a
//     key is computed exactly once no matter how many callers race on it;
//   * noise streams are preassigned in proposal order during batch planning
//     (first occurrence of each uncached key claims the next stream), so
//     they do not depend on which worker computes which variant;
//   * simulated quantities (cycles, node-seconds) are computed per variant
//     from the VM run, never from host wall time, so ClusterSim accounting
//     is unaffected by the worker count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ftn/reduce.h"
#include "ftn/sema.h"
#include "obs/metrics.h"
#include "support/faultinject.h"
#include "support/strings.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "tuner/metrics.h"
#include "tuner/search_space.h"
#include "tuner/target.h"

namespace prose::tuner {

class Journal;
struct JournalVariant;

enum class Outcome : std::uint8_t {
  kPass,           // ran to completion, correctness within threshold
  kFail,           // ran to completion, correctness over threshold
  kTimeout,        // exceeded 3× the baseline budget
  kRuntimeError,   // trapped (non-finite, OOB, ...)
  kCompileError,   // transformation or compilation failed
  kLost,           // quarantined: injected transient faults exhausted the
                   // retry budget — "no information", not pass/fail
};

const char* to_string(Outcome o);
/// Inverse of to_string (journal deserialization). Returns false on an
/// unknown outcome name.
bool outcome_from_string(std::string_view s, Outcome* out);

/// Everything measured about one variant.
struct Evaluation {
  Outcome outcome = Outcome::kCompileError;
  std::string detail;           // failure diagnostics

  double metric = 0.0;          // the model's scalar correctness metric
  double error = 0.0;           // relative error vs. the baseline metric
  double hotspot_cycles = 0.0;  // GPTL-attributed hotspot CPU time
  double whole_cycles = 0.0;    // whole-run simulated time
  double cast_cycles = 0.0;
  double measured_cycles = 0.0; // the quantity Eq. (1) is computed over
  double speedup = 0.0;         // Eq. (1) vs. the baseline, noise included
  double fraction32 = 0.0;

  int wrappers = 0;
  /// Evaluation attempts consumed (1 without fault injection; >1 when
  /// injected transient faults were retried). Backoff and straggler costs of
  /// every attempt are already folded into node_seconds.
  int attempts = 1;
  /// Per-procedure mean cycles per call (Fig. 6), for the spec's
  /// figure6_procs that executed.
  std::map<std::string, double> proc_mean_cycles;
  std::map<std::string, std::uint64_t> proc_calls;

  /// Simulated wall seconds this evaluation would cost on one node
  /// (build + n executions), for the campaign scheduler.
  double node_seconds = 0.0;

  [[nodiscard]] bool acceptable() const {
    return outcome == Outcome::kPass && speedup >= 1.0;
  }
};

/// One blamed variable in one diagnosed variant (shadow re-run). Relative
/// divergence is |primary − binary64 shadow| / max(|primary|, |shadow|);
/// a variable whose demotion overflowed or produced a non-finite value
/// records +inf.
struct VariableBlame {
  std::string qualified;
  bool demoted = false;        // at binary32 in this variant's config
  double max_rel_div = 0.0;
  std::uint64_t writes = 0;
};

/// One procedure's divergence contribution in one diagnosed variant.
/// `blame` is the ranking score: introduced divergence (error born in this
/// procedure, not inherited) plus 0.01 per cancellation / control
/// divergence, plus a 1e6 bump for the procedure the run faulted in.
struct ProcedureBlame {
  std::string qualified;
  double blame = 0.0;
  double introduced_sum = 0.0;
  double introduced_max = 0.0;
  double max_rel_div = 0.0;
  std::uint64_t cancellations = 0;
  std::uint64_t control_divergences = 0;
  double cast_cycles = 0.0;
  bool faulted = false;
};

/// Shadow-execution diagnosis of one rejected variant: why it was rejected,
/// stated as ranked variable and procedure blame (Evaluator::diagnose).
struct BlameReport {
  std::string key;                            // Config::key()
  Outcome outcome = Outcome::kCompileError;   // outcome of the shadow re-run
  double max_rel_div = 0.0;
  std::uint64_t cancellations = 0;
  std::uint64_t control_divergences = 0;
  bool has_first_divergence = false;
  std::string first_divergence_proc;
  std::int32_t first_divergence_instr = -1;   // proc-relative instruction
  std::string fault_proc;                     // empty if the re-run finished
  std::vector<VariableBlame> variables;       // demoted-first, divergence desc
  std::vector<ProcedureBlame> procedures;     // blame desc — root cause first
};

/// Pluggable remote-evaluation transport (the serve client implements this;
/// the interface lives here so the tuner does not depend on the serve
/// library). The evaluator hands over (config, noise-stream) pairs whose
/// streams it already assigned in proposal order — the backend must evaluate
/// each pair on exactly that stream, which is what makes a served campaign
/// bit-identical to a local one regardless of client arrival order.
class EvalBackend {
 public:
  /// One remote result. Exactly one of three shapes:
  ///   ok          — `eval` holds the evaluation;
  ///   aborted     — the server hit an injected evaluator abort; `error` is
  ///                 the exception text the local path would have thrown;
  ///   neither     — transport/protocol failure; the caller computes the
  ///                 variant locally (bit-identical either way).
  struct RemoteItem {
    bool ok = false;
    bool aborted = false;
    std::string error;
    Evaluation eval;
  };
  virtual ~EvalBackend() = default;
  /// Evaluates configs[i] on streams[i] for every i. Must return one item
  /// per input (a short or oversized reply is treated as transport failure
  /// for every item). Called with the evaluator's cache lock *not* held.
  virtual std::vector<RemoteItem> evaluate_many(
      std::span<const Config> configs,
      std::span<const std::uint64_t> streams) = 0;

  /// Cumulative degradation counters, surfaced in CampaignSummary so
  /// served-mode trouble is visible in reports, not just stderr: items the
  /// backend could not resolve (the caller computed them locally) and busy
  /// rounds spent waiting out server admission rejections.
  struct Counters {
    std::uint64_t fallback_items = 0;
    std::uint64_t busy_retries = 0;
    /// Shard-level degradation tallies (a one-shard backend never hedges or
    /// fails over, but can lose its shard). None of these affect results —
    /// a served campaign is bit-identical to a local one — they record how
    /// hard the client worked to stay up.
    std::uint64_t hedges = 0;       // hedged duplicate requests issued
    std::uint64_t hedge_wins = 0;   // items resolved by the hedge, not primary
    std::uint64_t failovers = 0;    // items rerouted off a dead/draining shard
    std::uint64_t shards_lost = 0;  // shard connections declared dead
    double busy_backoff_seconds = 0.0;  // total deterministic backoff slept
  };
  [[nodiscard]] virtual Counters counters() const { return {}; }

  /// Attaches the campaign's flight recorder so the backend can emit
  /// request-scoped spans (and propagate trace context over its transport).
  /// Pure observability: results are bit-identical with or without it.
  /// Default no-op keeps transports that don't trace trivially conformant.
  virtual void set_tracer(trace::Tracer* /*tracer*/) {}
};

class Evaluator {
 public:
  /// Parses and resolves the spec's source, builds the search space, and
  /// evaluates the uniform-64 baseline. Fails if the model itself is broken.
  /// `tracer` (optional, non-owning, must outlive the evaluator) records one
  /// span per variant lifecycle — transform → compile → decode → vm_init →
  /// execute → measure — plus per-run VM op-mix counters and GPTL region
  /// counters.
  static StatusOr<std::unique_ptr<Evaluator>> create(
      const TargetSpec& spec, std::uint64_t noise_seed = 2024,
      trace::Tracer* tracer = nullptr);

  /// Attach or detach the flight recorder after construction.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Attach a deterministic fault plan (non-owning; must outlive the
  /// evaluator; null detaches). Faults are keyed off the FNV-1a config hash
  /// and attempt number, so the injected sequence is identical across runs
  /// and worker counts. The baseline evaluation is never faulted.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }

  /// Retry semantics for injected transient faults (see RetryPolicy).
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  /// Attach a write-ahead journal (non-owning; null detaches): every freshly
  /// computed evaluation is appended — and fsync'd — before it is returned
  /// to the search.
  void set_journal(Journal* journal) { journal_ = journal; }

  /// Attach an observability registry (non-owning; null detaches): registers
  /// per-phase latency histograms, cache hit/miss, retry/quarantine/fault,
  /// backend-fallback and VM run/instruction/fused-pair counters, and bumps
  /// them on the evaluation paths.
  /// Pure telemetry under the tracing contract: wall-clock feeds metric
  /// *values* only, never scheduling or simulated time, so an instrumented
  /// campaign is bit-identical to an uninstrumented one.
  void set_metrics(obs::Registry* registry);

  /// Every run uses the engine the build picked (VmDispatch::kAuto).
  /// perfbench's replay_one reads this; it goes with that replay (ROADMAP
  /// item 4).
  [[nodiscard]] sim::VmDispatch vm_dispatch() const {
    return sim::VmDispatch::kAuto;
  }

  /// Attach a remote-evaluation backend (non-owning; null detaches). Cache
  /// misses are offloaded through it instead of simulated in-process; any
  /// transport failure falls back to local computation (once-per-evaluator
  /// stderr warning), so attaching a backend never changes results — only
  /// where they are computed. Journaling, memoization, and noise-stream
  /// assignment are unaffected.
  void set_backend(EvalBackend* backend) { backend_ = backend; }

  /// Serve-side entry point: evaluates one variant on an explicit,
  /// caller-assigned noise stream — no memo cache, no stream counter, no
  /// journal. Thread-safe. May throw on an injected `abort` fault, exactly
  /// like the local path (the server forwards the exception text in an
  /// error frame). `worker` names the trace track.
  Evaluation evaluate_remote(const Config& config, std::uint64_t stream,
                             int worker);

  /// Primes the resume path with journaled evaluations: a cache miss whose
  /// key is found here (with the matching proposal-order noise stream) is
  /// satisfied from the journal instead of re-simulated, making a resumed
  /// campaign bit-identical to — and much cheaper than — the original.
  /// Replayed variants are not re-journaled.
  void set_journal_replay(const std::vector<JournalVariant>& variants);

  /// Variants satisfied from the journal so far (resume accounting).
  [[nodiscard]] std::size_t replayed_from_journal() const;

  [[nodiscard]] const SearchSpace& space() const { return space_; }
  [[nodiscard]] const TargetSpec& spec() const { return spec_; }
  [[nodiscard]] const Evaluation& baseline() const { return baseline_; }
  [[nodiscard]] const ftn::ResolvedProgram& pristine() const { return pristine_; }
  [[nodiscard]] int eq1_n() const { return eq1_n_; }
  /// Simulated seconds per cycle (calibrated from baseline_wall_seconds).
  [[nodiscard]] double seconds_per_cycle() const { return seconds_per_cycle_; }

  /// Evaluates a configuration (memoized): a one-config evaluate_batch with
  /// no pool. `cache_hit` reports reuse. Thread-safe: concurrent calls on
  /// the same key single-flight — one caller computes, the others block
  /// until the entry is ready. Returned references stay valid for the
  /// evaluator's lifetime.
  const Evaluation& evaluate(const Config& config, bool* cache_hit = nullptr);

  /// One proposal's result within a batch.
  struct BatchItem {
    const Evaluation* eval = nullptr;
    /// True iff the key was cached (or in flight in another caller) before
    /// the batch, or appeared earlier in the batch.
    bool cache_hit = false;
  };

  /// Evaluates a whole proposal batch: plans it under the cache lock
  /// (cache hits, single-flight claims, journal replay, proposal-order noise
  /// streams), offloads the misses through the backend when one is
  /// attached, computes the rest on `pool` (null or single-worker pool →
  /// in order on the calling thread), journals them in proposal order and
  /// publishes them. Results — outcomes, speedups, noise streams, cache-hit
  /// flags — are bit-identical for every pool size and to calling
  /// evaluate() on each config in order. Duplicate keys inside the batch
  /// are evaluated once.
  std::vector<BatchItem> evaluate_batch(std::span<const Config> configs,
                                        ThreadPool* pool = nullptr);

  /// Number of distinct variants evaluated so far (excluding the baseline).
  [[nodiscard]] std::size_t unique_evaluations() const;

  /// Statistics of the T0 reduction preprocessing; nullopt unless the spec
  /// enabled run_reduction_preprocessing.
  [[nodiscard]] const std::optional<ftn::ReductionStats>& reduction_stats() const {
    return reduction_stats_;
  }

  /// Diagnosis pass: re-runs one (typically rejected) configuration under
  /// VM shadow-precision execution and distills the divergence provenance
  /// into a BlameReport. Completely outside the memo cache, the noise
  /// streams, and the journal — a diagnosed campaign stays bit-identical to
  /// an undiagnosed one. Emits diag/* trace counters when a tracer is
  /// attached. Fails only if the variant cannot be transformed or compiled.
  StatusOr<BlameReport> diagnose(const Config& config);

 private:
  /// Memo entry. `ready` flips exactly once, under cache_mu_; waiters on the
  /// single-flight condition variable watch it. Node-based unordered_map
  /// keeps entry addresses stable across rehashes, so &entry.eval may be
  /// handed out while the map keeps growing.
  struct CacheEntry {
    bool ready = false;
    Evaluation eval;
  };
  /// Hash the config key with FNV-1a (fixed across platforms) — the same
  /// hash that names configs in traces, computed once per lookup.
  struct KeyHash {
    std::size_t operator()(const std::string& key) const {
      return static_cast<std::size_t>(fnv1a64(key));
    }
  };

  /// A journaled evaluation staged for replay on resume.
  struct ReplayEntry {
    std::uint64_t stream = 0;
    Evaluation eval;
  };

  Evaluator(const TargetSpec& spec, std::uint64_t noise_seed);
  Status init();
  /// Full evaluation of one variant: the fault-injection / retry loop around
  /// run_attempt. Without a fault plan this is exactly one attempt. May
  /// throw on an injected `abort` fault (host-level crash simulation).
  Evaluation run_variant(const Config& config, bool is_baseline,
                         std::uint64_t stream_id, trace::Track track);
  /// One traced attempt (transform → compile → decode → vm_init → execute
  /// → measure).
  Evaluation run_attempt(const Config& config, bool is_baseline,
                         std::uint64_t stream_id, trace::Track track);
  /// run_attempt body; `tr` is null when tracing is disabled (zero-cost path).
  Evaluation run_variant_impl(const Config& config, bool is_baseline,
                              std::uint64_t stream_id, trace::Track track,
                              trace::Tracer* tr);
  /// If the key was journaled, installs the replayed evaluation into `entry`
  /// (consuming the proposal-order stream) and returns true. Call with
  /// cache_mu_ held.
  bool try_replay_locked(const std::string& key, std::uint64_t stream,
                         CacheEntry* entry);
  /// Once-per-evaluator stderr note that the backend degraded to local.
  void warn_backend_fallback(const std::string& why);
  /// Counts a lookup and emits the cache/* counters (call with cache_mu_ held).
  void note_lookup_locked(bool hit);
  void emit_cache_hit_instant(const Config& config, const Evaluation& eval);

  TargetSpec spec_;
  std::uint64_t noise_seed_;
  ftn::ResolvedProgram pristine_;
  SearchSpace space_;
  Evaluation baseline_;
  std::vector<double> baseline_series_;
  std::vector<double> baseline_samples_;
  int eq1_n_ = 1;
  double seconds_per_cycle_ = 0.0;
  double cycle_budget_ = 0.0;

  mutable std::mutex cache_mu_;
  std::condition_variable cache_cv_;  // single-flight: signals entries turning ready
  std::unordered_map<std::string, CacheEntry, KeyHash> cache_;
  std::uint64_t next_stream_ = 1;  // proposal-order noise streams; guarded by cache_mu_
  std::uint64_t cache_lookups_ = 0;
  std::uint64_t cache_hits_ = 0;

  std::optional<ftn::ReductionStats> reduction_stats_;
  trace::Tracer* tracer_ = nullptr;  // non-owning flight recorder; may be null

  /// Observability instruments (registered by set_metrics; null = off).
  /// Grouped so the hot paths test one pointer per family.
  struct EvalMetrics {
    obs::Histogram* transform_seconds = nullptr;
    obs::Histogram* compile_seconds = nullptr;
    obs::Histogram* decode_seconds = nullptr;
    obs::Histogram* vm_init_seconds = nullptr;
    obs::Histogram* execute_seconds = nullptr;
    obs::Histogram* measure_seconds = nullptr;
    obs::Histogram* variant_seconds = nullptr;
    obs::Counter* attempts = nullptr;
    obs::Counter* cache_lookups = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* quarantined = nullptr;
    obs::Counter* faults = nullptr;
    obs::Counter* backend_fallbacks = nullptr;
    obs::Counter* vm_runs = nullptr;
    obs::Counter* vm_instructions = nullptr;
    obs::Counter* vm_fused_pairs = nullptr;
  };

  const FaultPlan* fault_plan_ = nullptr;  // non-owning; may be null
  EvalMetrics m_;  // instruments; inert until set_metrics
  RetryPolicy retry_;
  Journal* journal_ = nullptr;  // non-owning write-ahead journal; may be null
  EvalBackend* backend_ = nullptr;  // non-owning remote transport; may be null
  std::atomic<bool> backend_warned_{false};  // fallback warning, once
  /// Journaled evaluations staged for resume; entries are consumed (moved
  /// into the cache) as the search re-proposes them. Guarded by cache_mu_.
  std::unordered_map<std::string, ReplayEntry, KeyHash> replay_;
  std::size_t replayed_ = 0;  // guarded by cache_mu_
};

}  // namespace prose::tuner
