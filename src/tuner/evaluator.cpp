#include "tuner/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <vector>

#include "ftn/parser.h"
#include "ftn/transform.h"
#include "gptl/gptl_trace.h"
#include "sim/compile.h"
#include "sim/decode.h"
#include "tuner/journal.h"

namespace prose::tuner {
namespace {

/// Short stable identifier for a configuration (hex of the key's FNV-1a
/// hash) — compact enough for trace attributes on 300+-atom spaces, and
/// reproducible across platforms and runs (std::hash is neither).
std::string config_hash(const Config& config) {
  const auto h = static_cast<unsigned long long>(fnv1a64(config.key()));
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", h);
  return buf;
}

/// Emits the per-run VM counters (op mix, cast count, vectorized-vs-scalar
/// loop entries) as Chrome counter events on the given track.
void emit_run_counters(trace::Tracer& tr, trace::Track track,
                       const sim::RunResult& run) {
  const double ts = tr.now_us();
  const sim::OpMix& m = run.op_mix;
  tr.counter("vm/instructions", track, ts, static_cast<double>(run.instructions));
  tr.counter("vm/fp32-arith", track, ts, static_cast<double>(m.fp32_arith));
  tr.counter("vm/fp64-arith", track, ts, static_cast<double>(m.fp64_arith));
  tr.counter("vm/casts", track, ts, static_cast<double>(m.casts));
  tr.counter("vm/cast-cycles", track, ts, run.cast_cycles);
  tr.counter("vm/mem-ops", track, ts, static_cast<double>(m.mem));
  tr.counter("vm/calls", track, ts, static_cast<double>(m.calls));
  tr.counter("vm/intrinsics", track, ts, static_cast<double>(m.intrinsics));
  tr.counter("vm/vector-loop-entries", track, ts,
             static_cast<double>(m.vector_loop_entries));
  tr.counter("vm/scalar-loop-entries", track, ts,
             static_cast<double>(m.scalar_loop_entries));
  // Superinstruction dispatch counters. Emitted unconditionally (all-zero
  // under fuse=false) so a trace's counter set — and therefore its byte
  // stream — does not depend on the dispatch: threaded and switch traces
  // stay bit-identical.
  const sim::FusedStats& f = run.fused;
  tr.counter("vm/fused/pairs", track, ts, static_cast<double>(f.pairs()));
  tr.counter("vm/fused/covered", track, ts, static_cast<double>(f.covered()));
  tr.counter("vm/fused/loop-cond-jmp", track, ts,
             static_cast<double>(f.loop_cond_jmp));
  tr.counter("vm/fused/inc-jmp", track, ts, static_cast<double>(f.inc_jmp));
  tr.counter("vm/fused/cmp-jmp", track, ts, static_cast<double>(f.cmp_jmp));
  tr.counter("vm/fused/cast-mov", track, ts, static_cast<double>(f.cast_mov));
  tr.counter("vm/fused/cast-store", track, ts,
             static_cast<double>(f.cast_store));
  tr.counter("vm/fused/load-arith", track, ts,
             static_cast<double>(f.load_arith));
  tr.counter("vm/fused/arith-store", track, ts,
             static_cast<double>(f.arith_store));
  tr.counter("vm/fused/const-arith", track, ts,
             static_cast<double>(f.const_arith));
  tr.counter("vm/fused/load-const", track, ts,
             static_cast<double>(f.load_const));
}

}  // namespace

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kPass: return "pass";
    case Outcome::kFail: return "fail";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kRuntimeError: return "error";
    case Outcome::kCompileError: return "compile-error";
    case Outcome::kLost: return "lost";
  }
  return "?";
}

bool outcome_from_string(std::string_view s, Outcome* out) {
  for (const Outcome o :
       {Outcome::kPass, Outcome::kFail, Outcome::kTimeout, Outcome::kRuntimeError,
        Outcome::kCompileError, Outcome::kLost}) {
    if (s == to_string(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

Evaluator::Evaluator(const TargetSpec& spec, std::uint64_t noise_seed)
    : spec_(spec), noise_seed_(noise_seed) {}

StatusOr<std::unique_ptr<Evaluator>> Evaluator::create(const TargetSpec& spec,
                                                       std::uint64_t noise_seed,
                                                       trace::Tracer* tracer) {
  std::unique_ptr<Evaluator> ev(new Evaluator(spec, noise_seed));
  ev->tracer_ = tracer;  // before init() so the baseline run is traced too
  if (Status s = ev->init(); !s.is_ok()) return s;
  return ev;
}

Status Evaluator::init() {
  auto rp = ftn::parse_and_resolve(spec_.source, spec_.name);
  if (!rp.is_ok()) return rp.status();
  pristine_ = std::move(rp.value());

  auto space = SearchSpace::build(pristine_, spec_.atom_scopes, spec_.exclude_atoms);
  if (!space.is_ok()) return space.status();
  space_ = std::move(space.value());
  if (!spec_.formats.empty()) space_.set_levels(spec_.formats);

  eq1_n_ = choose_eq1_n(spec_.noise_rsd);

  // T0 preprocessing (§III-C): reduce the program to the minimal subset the
  // transformation needs, verify it resolves, and record the statistics. The
  // paper reports this costs ~1% of an experiment.
  if (spec_.run_reduction_preprocessing) {
    std::set<ftn::NodeId> targets;
    for (const auto& atom : space_.atoms()) targets.insert(atom.decl);
    auto reduced = ftn::reduce_for_targets(pristine_, targets);
    if (!reduced.is_ok()) {
      return Status(StatusCode::kInvalidArgument,
                    "T0 reduction failed: " + reduced.status().to_string());
    }
    reduction_stats_ = reduced->stats;
  }

  // Baseline: the untouched program (original declared kinds).
  Evaluation base = run_variant(space_.uniform(8), /*is_baseline=*/true,
                                /*stream_id=*/0, trace::Track::evaluator());
  if (base.outcome != Outcome::kPass) {
    return Status(StatusCode::kInvalidArgument,
                  "baseline evaluation failed (" + std::string(to_string(base.outcome)) +
                      "): " + base.detail);
  }
  baseline_ = base;
  baseline_.speedup = 1.0;
  seconds_per_cycle_ = spec_.baseline_wall_seconds / baseline_.whole_cycles;
  // The paper gives each variant 3× the baseline's runtime before declaring
  // a timeout.
  cycle_budget_ = 3.0 * baseline_.whole_cycles;
  baseline_samples_ =
      sample_noisy_times(baseline_.measured_cycles, spec_.noise_rsd, eq1_n_,
                         noise_seed_, /*stream_id=*/0);
  return Status::ok();
}

void Evaluator::set_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    m_ = EvalMetrics{};
    return;
  }
  const auto lat = [&](const char* name, const char* help) {
    return registry->histogram(name, help, obs::latency_buckets_seconds());
  };
  m_.transform_seconds = lat("prose_eval_transform_seconds",
                             "Variant transform (clone+retype+wrap) latency");
  m_.compile_seconds =
      lat("prose_eval_compile_seconds", "Variant compile latency");
  m_.decode_seconds =
      lat("prose_eval_decode_seconds", "Variant bytecode decode latency");
  m_.vm_init_seconds = lat("prose_eval_vm_init_seconds",
                           "Variant VM construction and spec setup latency");
  m_.execute_seconds =
      lat("prose_eval_execute_seconds", "Variant VM execution latency");
  m_.measure_seconds = lat("prose_eval_measure_seconds",
                           "Variant measurement (metric+speedup) latency");
  m_.variant_seconds = lat("prose_eval_variant_seconds",
                           "Whole-variant latency (all attempts + backoff)");
  m_.attempts = registry->counter("prose_eval_attempts_total",
                                  "Evaluation attempts (retries included)");
  m_.cache_lookups =
      registry->counter("prose_eval_cache_lookups_total", "Memo-cache lookups");
  m_.cache_hits =
      registry->counter("prose_eval_cache_hits_total", "Memo-cache hits");
  m_.retries = registry->counter(
      "prose_eval_retries_total", "Attempts retried after injected transient faults");
  m_.quarantined = registry->counter(
      "prose_eval_quarantined_total",
      "Variants quarantined (kLost: retry budget exhausted)");
  m_.faults = registry->counter("prose_eval_faults_total",
                                "Injected faults observed (all kinds)");
  m_.backend_fallbacks = registry->counter(
      "prose_eval_backend_fallback_items_total",
      "Variants computed locally after a remote-backend transport failure");
  // The baseline run precedes set_metrics, so these never count it.
  m_.vm_runs = registry->counter(
      "prose_vm_runs_total",
      "VM executions of variant attempts (not the baseline)");
  m_.vm_instructions = registry->counter(
      "prose_vm_instructions_total",
      "VM instructions executed by variant attempts (not the baseline)");
  m_.vm_fused_pairs = registry->counter(
      "prose_vm_fused_pairs_total",
      "Superinstruction dispatches by variant attempts (not the baseline)");
}

void Evaluator::note_lookup_locked(bool hit) {
  ++cache_lookups_;
  if (hit) ++cache_hits_;
  if (m_.cache_lookups != nullptr) m_.cache_lookups->inc();
  if (hit && m_.cache_hits != nullptr) m_.cache_hits->inc();
  if (tracer_ != nullptr && tracer_->enabled()) {
    const trace::Track track = trace::Track::evaluator();
    const double ts = tracer_->now_us();
    tracer_->counter("cache/lookups", track, ts,
                     static_cast<double>(cache_lookups_));
    tracer_->counter("cache/hits", track, ts, static_cast<double>(cache_hits_));
    tracer_->counter("cache/hit-rate", track, ts,
                     static_cast<double>(cache_hits_) /
                         static_cast<double>(cache_lookups_));
  }
}

void Evaluator::emit_cache_hit_instant(const Config& config, const Evaluation& eval) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  tracer_->instant("variant/cache-hit", trace::Track::evaluator(),
                   tracer_->now_us(),
                   {{"config", config_hash(config)},
                    {"outcome", to_string(eval.outcome)},
                    {"speedup", eval.speedup},
                    {"cache_hit", true}});
}

const Evaluation& Evaluator::evaluate(const Config& config, bool* cache_hit) {
  const BatchItem item = evaluate_batch(std::span<const Config>(&config, 1))[0];
  if (cache_hit != nullptr) *cache_hit = item.cache_hit;
  return *item.eval;
}

void Evaluator::warn_backend_fallback(const std::string& why) {
  if (backend_warned_.exchange(true)) return;
  std::fprintf(stderr,
               "prose: evaluation server unavailable (%s) — computing locally\n",
               why.empty() ? "transport failure" : why.c_str());
}

std::vector<Evaluator::BatchItem> Evaluator::evaluate_batch(
    std::span<const Config> configs, ThreadPool* pool) {
  std::vector<BatchItem> out(configs.size());

  struct Job {
    Config config;
    std::string key;
    std::uint64_t stream = 0;
    CacheEntry* entry = nullptr;
    Evaluation result;
    bool done = false;   // evaluated (remotely or locally) to completion
    bool aborted = false;  // server forwarded an injected evaluator abort
  };
  std::vector<Job> jobs;
  // Proposal → the job computing its key (misses and in-batch duplicates).
  std::vector<std::ptrdiff_t> job_of(configs.size(), -1);
  // Proposal → an entry some *other* thread is computing (single-flight wait).
  std::vector<std::uint8_t> in_flight(configs.size(), 0);
  bool replayed_any = false;

  // Plan the batch under the cache lock, walking proposals in order: this
  // assigns noise streams to first occurrences of uncached keys in proposal
  // order, and claims their cache entries so concurrent callers
  // single-flight against this batch.
  {
    std::unique_lock lock(cache_mu_);
    std::unordered_map<std::string, std::size_t, KeyHash> claimed;  // key → job
    for (std::size_t i = 0; i < configs.size(); ++i) {
      std::string key = configs[i].key();
      if (const auto c = claimed.find(key); c != claimed.end()) {
        // Duplicate within the batch: the serial walk would hit the cache
        // here (the first occurrence evaluated it).
        out[i].cache_hit = true;
        job_of[i] = static_cast<std::ptrdiff_t>(c->second);
        note_lookup_locked(/*hit=*/true);
        continue;
      }
      auto [it, inserted] = cache_.try_emplace(key);
      if (!inserted) {
        out[i].cache_hit = true;
        note_lookup_locked(/*hit=*/true);
        if (it->second.ready) {
          out[i].eval = &it->second.eval;
        } else {
          in_flight[i] = 1;
        }
        continue;
      }
      note_lookup_locked(/*hit=*/false);
      const std::uint64_t stream = next_stream_++;
      if (try_replay_locked(key, stream, &it->second)) {
        // Resume: journaled result; a miss in the books, but no work to fan
        // out (and no re-journaling). Later in-batch duplicates hit the
        // ready entry through the !inserted path above.
        out[i].eval = &it->second.eval;
        replayed_any = true;
        continue;
      }
      Job job;
      job.config = configs[i];
      job.key = key;
      job.stream = stream;
      job.entry = &it->second;
      job_of[i] = static_cast<std::ptrdiff_t>(jobs.size());
      claimed.emplace(std::move(key), jobs.size());
      jobs.push_back(std::move(job));
    }
  }
  if (replayed_any) cache_cv_.notify_all();

  // Partial-failure publication, shared by the local-abort and remote-abort
  // paths: journal and publish everything that completed, drop the in-flight
  // entries of the rest so waiters recompute instead of wedging.
  const auto publish_partial = [this, &jobs] {
    if (journal_ != nullptr) {
      for (const Job& job : jobs) {
        if (job.done) journal_->append_variant(job.key, job.stream, job.result);
      }
    }
    {
      std::lock_guard lock(cache_mu_);
      for (Job& job : jobs) {
        if (job.done) {
          job.entry->eval = std::move(job.result);
          job.entry->ready = true;
        } else {
          cache_.erase(job.key);
        }
      }
    }
    cache_cv_.notify_all();
  };

  // Offload the planned misses through the backend first (one pipelined
  // round trip for the whole batch). Per-item transport failures fall
  // through to local computation below; per-item aborts are recorded and
  // rethrown after the rest of the batch completes — exactly the drain
  // semantics ThreadPool gives a locally thrown abort.
  std::ptrdiff_t abort_index = -1;
  std::string abort_message;
  if (backend_ != nullptr && !jobs.empty()) {
    std::vector<Config> cfgs;
    std::vector<std::uint64_t> streams;
    cfgs.reserve(jobs.size());
    streams.reserve(jobs.size());
    for (const Job& job : jobs) {
      cfgs.push_back(job.config);
      streams.push_back(job.stream);
    }
    auto items = backend_->evaluate_many(cfgs, streams);
    if (items.size() != jobs.size()) {
      warn_backend_fallback("reply count mismatch");
      if (m_.backend_fallbacks != nullptr) m_.backend_fallbacks->inc(jobs.size());
    } else {
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (items[j].ok) {
          jobs[j].result = std::move(items[j].eval);
          jobs[j].done = true;
        } else if (items[j].aborted) {
          jobs[j].aborted = true;
          if (abort_index < 0) {
            abort_index = static_cast<std::ptrdiff_t>(j);
            abort_message = items[j].error;
          }
        } else {
          warn_backend_fallback(items[j].error);
          if (m_.backend_fallbacks != nullptr) m_.backend_fallbacks->inc();
        }
      }
    }
  }

  // Fan the remaining misses out to the pool. Each worker traces on its own
  // track so the parallel pipeline renders as per-worker span rows in
  // Perfetto. If any job throws (injected abort), the pool still drains the
  // batch; we then publish the completed jobs, drop the in-flight entries of
  // the rest so waiters recompute, and rethrow.
  std::vector<std::size_t> pending;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!jobs[j].done && !jobs[j].aborted) pending.push_back(j);
  }
  try {
    if (!pending.empty()) {
      if (pool != nullptr && pool->size() > 1) {
        pool->for_each(pending.size(),
                       [this, &jobs, &pending](std::size_t i, std::size_t worker) {
                         Job& job = jobs[pending[i]];
                         job.result =
                             run_variant(job.config, /*is_baseline=*/false,
                                         job.stream,
                                         trace::Track::worker(static_cast<int>(worker)));
                         job.done = true;
                       });
      } else {
        for (const std::size_t j : pending) {
          jobs[j].result = run_variant(jobs[j].config, /*is_baseline=*/false,
                                       jobs[j].stream, trace::Track::evaluator());
          jobs[j].done = true;
        }
      }
    }
  } catch (...) {
    publish_partial();
    throw;
  }

  if (abort_index >= 0) {
    // A served variant hit an injected abort. The local path would have
    // thrown out of run_variant with the ThreadPool rethrowing the
    // lowest-index exception after draining the batch — mirror that exactly,
    // with the server's exception text.
    publish_partial();
    throw std::runtime_error(abort_message);
  }

  // Write-ahead in proposal order, independent of worker interleaving, so
  // the journal file is byte-identical across worker counts.
  if (journal_ != nullptr) {
    for (const Job& job : jobs) {
      journal_->append_variant(job.key, job.stream, job.result);
    }
  }

  // Publish results; callers waiting on these in-flight entries wake here.
  {
    std::lock_guard lock(cache_mu_);
    for (Job& job : jobs) {
      job.entry->eval = std::move(job.result);
      job.entry->ready = true;
    }
  }
  cache_cv_.notify_all();

  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (out[i].eval != nullptr) continue;
    if (job_of[i] >= 0) {
      out[i].eval = &jobs[static_cast<std::size_t>(job_of[i])].entry->eval;
    } else if (in_flight[i] != 0) {
      // Another caller claimed this key before the batch. Wait by *key*, not
      // by entry pointer: if that caller threw and erased the entry, fall
      // back to evaluate(), which recomputes.
      const std::string key = configs[i].key();
      std::unique_lock lock(cache_mu_);
      cache_cv_.wait(lock, [this, &key] {
        const auto f = cache_.find(key);
        return f == cache_.end() || f->second.ready;
      });
      const auto f = cache_.find(key);
      if (f != cache_.end()) {
        out[i].eval = &f->second.eval;
      } else {
        lock.unlock();
        out[i].eval = &evaluate(configs[i]);
      }
    }
  }

  // One cache-hit instant per hit, in proposal order.
  if (tracer_ != nullptr && tracer_->enabled()) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (out[i].cache_hit) emit_cache_hit_instant(configs[i], *out[i].eval);
    }
  }
  return out;
}

Evaluation Evaluator::evaluate_remote(const Config& config, std::uint64_t stream,
                                      int worker) {
  return run_variant(config, /*is_baseline=*/false, stream,
                     trace::Track::worker(worker));
}

std::size_t Evaluator::unique_evaluations() const {
  std::lock_guard lock(cache_mu_);
  return cache_.size();
}

void Evaluator::set_journal_replay(const std::vector<JournalVariant>& variants) {
  std::lock_guard lock(cache_mu_);
  replay_.clear();
  for (const JournalVariant& v : variants) {
    replay_[v.key] = ReplayEntry{v.stream, v.eval};
  }
}

std::size_t Evaluator::replayed_from_journal() const {
  std::lock_guard lock(cache_mu_);
  return replayed_;
}

bool Evaluator::try_replay_locked(const std::string& key, std::uint64_t stream,
                                  CacheEntry* entry) {
  const auto it = replay_.find(key);
  if (it == replay_.end()) return false;
  if (it->second.stream != stream) {
    // The journaled stream differs from the one this run just assigned — the
    // search diverged from the journaled campaign (different options, edited
    // journal, ...). Using the entry would break the determinism contract,
    // so drop it and recompute: resume self-heals at the cost of redoing
    // work.
    replay_.erase(it);
    return false;
  }
  entry->eval = std::move(it->second.eval);
  entry->ready = true;
  replay_.erase(it);
  ++replayed_;
  return true;
}

Evaluation Evaluator::run_variant(const Config& config, bool is_baseline,
                                  std::uint64_t stream_id, trace::Track track) {
  const trace::Span variant_timer(m_.variant_seconds);
  // No fault plan (the overwhelmingly common case), or the baseline run —
  // which is never faulted, since a campaign that cannot evaluate its
  // baseline has nothing to resume — is exactly one attempt.
  if (is_baseline || fault_plan_ == nullptr || fault_plan_->empty()) {
    return run_attempt(config, is_baseline, stream_id, track);
  }

  trace::Tracer* tr =
      (tracer_ != nullptr && tracer_->enabled()) ? tracer_ : nullptr;
  const std::uint64_t hash = fnv1a64(config.key());
  const int max_attempts = retry_.max_attempts < 1 ? 1 : retry_.max_attempts;
  double charged = 0.0;  // node-seconds wasted on faulted attempts + backoff
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    const FaultDecision fault = fault_plan_->decide(hash, attempt);
    if (m_.faults != nullptr &&
        (fault.abort || fault.compile_fail || fault.transient_fail ||
         fault.slow_factor > 1.0)) {
      m_.faults->inc();
    }
    if (fault.abort) {
      // Host-level crash simulation: the evaluator process dies. Thrown out
      // of the single-flight cache — evaluate_batch() must erase the
      // in-flight entry on the way out (regression-tested).
      if (tr != nullptr) {
        tr->instant("fault/abort", track, tr->now_us(),
                    {{"config", config_hash(config)}, {"attempt", attempt}});
      }
      throw std::runtime_error("injected evaluator abort (config " +
                               config_hash(config) + ", attempt " +
                               std::to_string(attempt) + ")");
    }
    if (fault.compile_fail) {
      // Deterministic fault: the same source fails the same way every time,
      // so retrying is pointless — report it and move on (§IV: compile
      // failures are real outcomes, not noise).
      if (tr != nullptr) {
        tr->instant("fault/compile", track, tr->now_us(),
                    {{"config", config_hash(config)}, {"attempt", attempt}});
      }
      Evaluation out;
      out.outcome = Outcome::kCompileError;
      out.detail = "injected compile fault";
      out.fraction32 = config.fraction32();
      out.attempts = attempt;
      out.node_seconds = charged + spec_.variant_build_seconds;
      return out;
    }
    Evaluation eval = run_attempt(config, is_baseline, stream_id, track);
    eval.attempts = attempt;
    if (fault.slow_factor > 1.0) {
      // Straggler: the node ran slow; the result is fine but the cluster
      // paid for a longer occupation.
      if (tr != nullptr) {
        tr->instant("fault/straggler", track, tr->now_us(),
                    {{"config", config_hash(config)},
                     {"attempt", attempt},
                     {"slow_factor", fault.slow_factor}});
      }
      eval.node_seconds *= fault.slow_factor;
    }
    if (!fault.transient_fail) {
      eval.node_seconds += charged;
      return eval;
    }
    // Transient fault (flaky node, cosmic ray): the result cannot be
    // trusted. Charge the wasted attempt, back off, retry.
    if (tr != nullptr) {
      tr->instant("fault/transient", track, tr->now_us(),
                  {{"config", config_hash(config)},
                   {"attempt", attempt},
                   {"of", max_attempts}});
    }
    charged += eval.node_seconds;
    if (attempt < max_attempts) {
      charged += retry_.backoff_seconds;
      if (m_.retries != nullptr) m_.retries->inc();
    }
  }

  // Retry budget exhausted → quarantine. kLost carries *no information*:
  // metrics are cleared so nothing downstream can mistake it for a
  // measurement; only the cluster time it burned is kept.
  if (m_.quarantined != nullptr) m_.quarantined->inc();
  Evaluation out;
  out.outcome = Outcome::kLost;
  out.detail = "injected transient faults exhausted the retry budget (" +
               std::to_string(max_attempts) + " attempts)";
  out.fraction32 = config.fraction32();
  out.attempts = max_attempts;
  out.node_seconds = charged;
  return out;
}

Evaluation Evaluator::run_attempt(const Config& config, bool is_baseline,
                                  std::uint64_t stream_id, trace::Track track) {
  if (m_.attempts != nullptr) m_.attempts->inc();
  // Zero-cost path: no tracer (or sinks disabled) means no attribute
  // formatting, no clock reads — run_variant_impl is called bare.
  trace::Tracer* tr =
      (tracer_ != nullptr && tracer_->enabled()) ? tracer_ : nullptr;
  if (tr == nullptr) {
    return run_variant_impl(config, is_baseline, stream_id, track, nullptr);
  }

  trace::Span variant(tr, track, is_baseline ? "variant/baseline" : "variant",
                      {{"config", config_hash(config)},
                       {"fraction32", config.fraction32()},
                       {"atoms32", config.count32()}});
  Evaluation out = run_variant_impl(config, is_baseline, stream_id, track, tr);
  variant.annotate({{"outcome", to_string(out.outcome)},
                    {"cycles", out.whole_cycles},
                    {"measured_cycles", out.measured_cycles},
                    {"speedup", out.speedup},
                    {"error", out.error},
                    {"node_seconds", out.node_seconds},
                    {"wrappers", out.wrappers},
                    {"cache_hit", false}});
  return out;
}

Evaluation Evaluator::run_variant_impl(const Config& config, bool is_baseline,
                                       std::uint64_t stream_id, trace::Track track,
                                       trace::Tracer* tr) {
  Evaluation out;
  out.fraction32 = config.fraction32();

  // Transform: clone + retype + wrap (§III-C).
  ftn::WrapperReport wreport;
  StatusOr<ftn::ResolvedProgram> variant = Status(StatusCode::kUnimplemented, "unset");
  {
    trace::Span stage(tr, track, "transform", {}, m_.transform_seconds);
    variant = ftn::make_variant(pristine_.program, space_.to_assignment(config),
                                &wreport);
    if (tr != nullptr) {
      stage.annotate({{"ok", variant.is_ok()},
                      {"wrappers", wreport.wrappers_generated}});
    }
  }
  if (!variant.is_ok()) {
    out.outcome = Outcome::kCompileError;
    out.detail = variant.status().to_string();
    out.node_seconds = spec_.variant_build_seconds;
    return out;
  }
  out.wrappers = wreport.wrappers_generated;

  // Compile with hotspot instrumentation.
  sim::CompileOptions copts;
  for (const auto& proc : spec_.hotspot_procs) copts.instrument.insert(proc);
  StatusOr<sim::CompiledProgram> compiled = Status(StatusCode::kUnimplemented, "unset");
  {
    trace::Span stage(tr, track, "compile", {}, m_.compile_seconds);
    compiled = sim::compile(variant.value(), spec_.machine, copts);
    if (tr != nullptr) stage.annotate({{"ok", compiled.is_ok()}});
  }
  if (!compiled.is_ok()) {
    out.outcome = Outcome::kCompileError;
    out.detail = compiled.status().to_string();
    out.node_seconds = spec_.variant_build_seconds;
    return out;
  }

  // Decode once per evaluation. A failed decode leaves `vopts.decoded` null,
  // and the Vm then re-decodes and reports the error from call().
  sim::VmOptions vopts;
  if (!is_baseline && cycle_budget_ > 0.0) vopts.cycle_budget = cycle_budget_;
  {
    trace::Span stage(tr, track, "decode", {}, m_.decode_seconds);
    auto decoded = sim::decode(compiled.value());
    const bool ok = decoded.is_ok();
    if (ok) vopts.decoded = std::move(decoded).value();
    if (tr != nullptr) stage.annotate({{"ok", ok}});
  }

  // Construct the Vm and load the spec's initial state.
  std::optional<sim::Vm> vm;
  Status setup = Status::ok();
  {
    trace::Span stage(tr, track, "vm_init", {}, m_.vm_init_seconds);
    vm.emplace(&compiled.value(), vopts);
    if (spec_.setup) setup = spec_.setup(*vm);
  }
  if (!setup.is_ok()) {
    out.outcome = Outcome::kCompileError;
    out.detail = "setup failed: " + setup.to_string();
    return out;
  }

  // Execute the representative workload.
  sim::RunResult run;
  {
    trace::Span stage(tr, track, "execute", {}, m_.execute_seconds);
    run = vm->call(spec_.entry);
    if (tr != nullptr) {
      stage.annotate({{"ok", run.status.is_ok()},
                      {"cycles", run.cycles},
                      {"instructions", run.instructions}});
    }
  }
  if (tr != nullptr) {
    emit_run_counters(*tr, track, run);
    // GPTL → trace bridge: hotspot region stats as counter tracks.
    gptl::export_region_counters(*tr, vm->timers(), track, tr->now_us());
  }
  if (m_.vm_runs != nullptr) {
    m_.vm_runs->inc();
    m_.vm_instructions->inc(run.instructions);
    m_.vm_fused_pairs->inc(run.fused.pairs());
  }
  out.whole_cycles = run.cycles;
  out.cast_cycles = run.cast_cycles;
  const double build = spec_.variant_build_seconds;

  if (!run.status.is_ok()) {
    out.outcome = run.status.code() == StatusCode::kTimeout ? Outcome::kTimeout
                                                            : Outcome::kRuntimeError;
    out.detail = run.status.to_string();
    out.node_seconds =
        build + static_cast<double>(eq1_n_) * run.cycles * seconds_per_cycle_;
    return out;
  }

  // Measure: hotspot attribution, correctness metric, Eq. (1) speedup.
  const trace::Span measure_stage(tr, track, "measure", {}, m_.measure_seconds);

  // Hotspot CPU time from the instrumented regions.
  double hotspot = 0.0;
  for (const auto& proc : spec_.hotspot_procs) {
    auto stats = vm->timers().stats(proc);
    if (stats.is_ok()) hotspot += stats->inclusive_cycles;
  }
  out.hotspot_cycles = hotspot;
  out.measured_cycles = spec_.measure_whole_model ? run.cycles : hotspot;

  for (const auto& proc : spec_.figure6_procs) {
    const sim::ProcRunStats* stats = vm->proc_stats(proc);
    if (stats != nullptr && stats->calls > 0) {
      out.proc_mean_cycles[proc] = stats->mean_call_cycles();
      out.proc_calls[proc] = stats->calls;
    }
  }

  // Correctness metric (§III-D): scalar metric or diagnostic field series.
  std::vector<double> series;
  if (spec_.series_fn) {
    auto s = spec_.series_fn(*vm);
    if (!s.is_ok()) {
      out.outcome = Outcome::kRuntimeError;
      out.detail = "series metric failed: " + s.status().to_string();
      out.node_seconds = build + run.cycles * seconds_per_cycle_;
      return out;
    }
    series = std::move(s.value());
    out.metric = series.empty() ? 0.0 : series.back();
  } else {
    auto metric = spec_.metric ? spec_.metric(*vm) : StatusOr<double>(0.0);
    if (!metric.is_ok()) {
      out.outcome = Outcome::kRuntimeError;
      out.detail = "metric failed: " + metric.status().to_string();
      out.node_seconds = build + run.cycles * seconds_per_cycle_;
      return out;
    }
    out.metric = metric.value();
  }

  if (is_baseline) {
    baseline_series_ = std::move(series);
    out.outcome = Outcome::kPass;
    out.error = 0.0;
    out.node_seconds = build + run.cycles * 0.0;  // scale not yet calibrated
    return out;
  }

  out.error = spec_.series_fn
                  ? series_error(baseline_series_, series, spec_.series_group_size)
                  : output_relative_error(baseline_.metric, out.metric);
  out.outcome = out.error <= spec_.error_threshold ? Outcome::kPass : Outcome::kFail;

  // Eq. (1) speedup with injected run-to-run noise (§III-E). The stream was
  // preassigned in proposal order when evaluate_batch planned the batch, so
  // the draw is independent of evaluation order and worker interleaving.
  const auto samples = sample_noisy_times(out.measured_cycles, spec_.noise_rsd,
                                          eq1_n_, noise_seed_, stream_id);
  out.speedup = eq1_speedup(baseline_samples_, samples);
  out.node_seconds =
      build + static_cast<double>(eq1_n_) * run.cycles * seconds_per_cycle_;
  return out;
}

StatusOr<BlameReport> Evaluator::diagnose(const Config& config) {
  BlameReport report;
  report.key = config.key();

  // Same transform → compile pipeline as run_variant_impl, but the execution
  // carries binary64 shadow values. Nothing here touches the memo cache, the
  // proposal-order noise streams, or the journal: diagnosis is a pure
  // observer and cannot perturb the campaign it explains.
  ftn::WrapperReport wreport;
  auto variant =
      ftn::make_variant(pristine_.program, space_.to_assignment(config), &wreport);
  if (!variant.is_ok()) return variant.status();

  sim::CompileOptions copts;
  for (const auto& proc : spec_.hotspot_procs) copts.instrument.insert(proc);
  auto compiled = sim::compile(variant.value(), spec_.machine, copts);
  if (!compiled.is_ok()) return compiled.status();

  sim::VmOptions vopts;
  vopts.shadow = true;
  if (cycle_budget_ > 0.0) vopts.cycle_budget = cycle_budget_;
  sim::Vm vm(&compiled.value(), vopts);
  if (spec_.setup) {
    if (Status s = spec_.setup(vm); !s.is_ok()) return s;
  }
  const sim::RunResult run = vm.call(spec_.entry);
  report.outcome = run.status.is_ok()
                       ? Outcome::kPass
                       : (run.status.code() == StatusCode::kTimeout
                              ? Outcome::kTimeout
                              : Outcome::kRuntimeError);

  const sim::ShadowReport shadow = vm.shadow_report();
  report.max_rel_div = shadow.max_rel_div;
  report.cancellations = shadow.cancellations;
  report.control_divergences = shadow.control_divergences;
  report.has_first_divergence = shadow.has_first_divergence;
  report.first_divergence_proc = shadow.first_divergence_proc;
  report.first_divergence_instr = shadow.first_divergence_instr;
  report.fault_proc = shadow.fault_proc;

  // Variables: every demoted atom that was written, plus any other variable
  // that diverged. Demoted variables lead — they are the candidate causes.
  for (const auto& [name, stats] : shadow.vars) {
    const std::ptrdiff_t idx = space_.index_of(name);
    const bool demoted =
        idx >= 0 && config.kinds[static_cast<std::size_t>(idx)] == 4;
    if (!demoted && stats.max_rel_div <= 0.0) continue;
    report.variables.push_back(
        VariableBlame{name, demoted, stats.max_rel_div, stats.writes});
  }
  std::sort(report.variables.begin(), report.variables.end(),
            [](const VariableBlame& a, const VariableBlame& b) {
              if (a.demoted != b.demoted) return a.demoted;
              if (a.max_rel_div != b.max_rel_div) return a.max_rel_div > b.max_rel_div;
              return a.qualified < b.qualified;
            });
  if (report.variables.size() > 64) report.variables.resize(64);

  for (const auto& [name, ps] : shadow.procs) {
    ProcedureBlame pb;
    pb.qualified = name;
    pb.introduced_sum = ps.introduced_sum;
    pb.introduced_max = ps.introduced_max;
    pb.max_rel_div = ps.max_rel_div;
    pb.cancellations = ps.cancellations;
    pb.control_divergences = ps.control_divergences;
    pb.cast_cycles = ps.cast_cycles;
    pb.faulted = ps.faulted;
    pb.blame = ps.introduced_sum +
               0.01 * static_cast<double>(ps.cancellations + ps.control_divergences) +
               (ps.faulted ? 1e6 : 0.0);
    report.procedures.push_back(std::move(pb));
  }
  std::sort(report.procedures.begin(), report.procedures.end(),
            [](const ProcedureBlame& a, const ProcedureBlame& b) {
              if (a.blame != b.blame) return a.blame > b.blame;
              return a.qualified < b.qualified;
            });

  if (tracer_ != nullptr && tracer_->enabled()) {
    const trace::Track track = trace::Track::evaluator();
    const double ts = tracer_->now_us();
    // Counter values must stay finite for the Chrome export; an infinite
    // divergence (overflow/non-finite fault) is clamped to 1e300.
    const auto finite = [](double v) { return std::isfinite(v) ? v : 1e300; };
    tracer_->counter("diag/max-rel-div", track, ts, finite(report.max_rel_div));
    tracer_->counter("diag/cancellations", track, ts,
                     static_cast<double>(report.cancellations));
    tracer_->counter("diag/control-divergences", track, ts,
                     static_cast<double>(report.control_divergences));
    tracer_->counter("diag/blamed-variables", track, ts,
                     static_cast<double>(report.variables.size()));
  }
  return report;
}

}  // namespace prose::tuner
