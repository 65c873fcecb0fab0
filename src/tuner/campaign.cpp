#include "tuner/campaign.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "prec/format.h"
#include "tuner/journal.h"

namespace prose::tuner {

namespace {

/// A variant the campaign would not ship: wrong, slow, or broken. Lost
/// variants carry no information and compile errors never ran, so neither
/// can be shadow-diagnosed.
bool rejected_variant(const Evaluation& e) {
  switch (e.outcome) {
    case Outcome::kFail:
    case Outcome::kTimeout:
    case Outcome::kRuntimeError:
      return true;
    case Outcome::kPass:
      return e.speedup < 1.0;
    case Outcome::kCompileError:
    case Outcome::kLost:
      return false;
  }
  return false;
}

}  // namespace

const char* to_string(sim::VmDispatch dispatch) {
  switch (dispatch) {
    case sim::VmDispatch::kAuto: return "auto";
    case sim::VmDispatch::kSwitch: return "switch";
    case sim::VmDispatch::kThreaded: return "threaded";
  }
  return "?";
}

CampaignSummary summarize(const std::string& model, const SearchResult& search,
                          const ClusterSim& cluster) {
  CampaignSummary s;
  s.model = model;
  s.total = search.records.size();
  std::size_t pass = 0, fail = 0, timeout = 0, error = 0, lost = 0;
  for (const auto& r : search.records) {
    switch (r.eval.outcome) {
      case Outcome::kPass: ++pass; break;
      case Outcome::kFail: ++fail; break;
      case Outcome::kTimeout: ++timeout; break;
      case Outcome::kRuntimeError:
      case Outcome::kCompileError: ++error; break;
      case Outcome::kLost: ++lost; break;  // quarantined: no information
    }
  }
  if (s.total > 0) {
    const auto pct = [&](std::size_t n) {
      return 100.0 * static_cast<double>(n) / static_cast<double>(s.total);
    };
    s.pass_pct = pct(pass);
    s.fail_pct = pct(fail);
    s.timeout_pct = pct(timeout);
    s.error_pct = pct(error);
    s.lost_pct = pct(lost);
  }
  s.best_speedup = search.best_speedup;
  s.finished = search.one_minimal;
  s.wall_hours = cluster.elapsed_seconds() / 3600.0;
  return s;
}

std::vector<ProcedureVariantPoint> figure6_series(const Evaluator& evaluator,
                                                  const SearchResult& search) {
  std::vector<ProcedureVariantPoint> out;
  const auto& spec = evaluator.spec();
  const auto& space = evaluator.space();
  for (const auto& proc : spec.figure6_procs) {
    const auto base_it = evaluator.baseline().proc_mean_cycles.find(proc);
    if (base_it == evaluator.baseline().proc_mean_cycles.end()) continue;
    const double base_mean = base_it->second;
    const auto proc_atoms = space.atoms_in_scope(proc);
    std::set<std::string> seen;
    for (const auto& r : search.records) {
      const auto it = r.eval.proc_mean_cycles.find(proc);
      if (it == r.eval.proc_mean_cycles.end() || it->second <= 0.0) continue;
      const std::string key = space.scope_key(r.config, proc);
      if (!seen.insert(key).second) continue;  // unique procedure variants only
      ProcedureVariantPoint p;
      p.proc = proc;
      p.scope_key = key;
      p.speedup = base_mean / it->second;
      if (!proc_atoms.empty()) {
        std::size_t low = 0;
        for (const std::size_t a : proc_atoms) {
          if (r.config.kinds[a] != 8) ++low;
        }
        p.fraction32 = static_cast<double>(low) / static_cast<double>(proc_atoms.size());
      }
      out.push_back(std::move(p));
    }
  }
  return out;
}

CampaignDiagnosis diagnose_campaign(Evaluator& evaluator,
                                    const SearchResult& search,
                                    const Config& final_config,
                                    std::size_t max_diagnosed) {
  CampaignDiagnosis diag;
  diag.enabled = true;
  const SearchSpace& space = evaluator.space();

  // Distinct completed variants in search order: the association evidence.
  std::set<std::string> seen;
  std::vector<const VariantRecord*> completed;
  for (const auto& r : search.records) {
    if (r.eval.outcome == Outcome::kLost ||
        r.eval.outcome == Outcome::kCompileError) {
      continue;
    }
    if (!seen.insert(r.config.key()).second) continue;
    completed.push_back(&r);
  }

  // Shadow re-runs of the rejected variants (capped — each re-run costs one
  // real execution of the model).
  for (const VariantRecord* r : completed) {
    if (!rejected_variant(r->eval)) continue;
    ++diag.rejected;
    if (diag.diagnosed >= max_diagnosed) continue;
    auto report = evaluator.diagnose(r->config);
    if (!report.is_ok()) continue;  // transform/compile broke: nothing to blame
    diag.reports.push_back(std::move(report.value()));
    ++diag.diagnosed;
  }

  // Atom criticality: demotion↔rejection association over every completed
  // variant, plus the shadow divergence seen while demoted.
  std::vector<AtomCriticality> atoms(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    atoms[i].qualified = space.atoms()[i].qualified;
    atoms[i].final64 = final_config.kinds[i] == 8;
  }
  std::map<std::string, bool> rejected_by_key;  // key → rejected?
  for (const VariantRecord* r : completed) {
    rejected_by_key[r->config.key()] = rejected_variant(r->eval);
  }
  for (const VariantRecord* r : completed) {
    const bool rej = rejected_variant(r->eval);
    Config flipped = r->config;
    for (std::size_t i = 0; i < space.size(); ++i) {
      if (r->config.kinds[i] == 8) continue;
      ++atoms[i].demoted_total;
      if (rej) {
        ++atoms[i].demoted_rejected;
        // Pivotal pair: the same variant with only this atom promoted back
        // to 64-bit was evaluated and NOT rejected — this one demotion alone
        // flipped the outcome.
        flipped.kinds[i] = 8;
        const auto it = rejected_by_key.find(flipped.key());
        if (it != rejected_by_key.end() && !it->second) ++atoms[i].pivotal;
        flipped.kinds[i] = r->config.kinds[i];
      }
    }
  }
  for (const BlameReport& rep : diag.reports) {
    for (const VariableBlame& vb : rep.variables) {
      if (!vb.demoted) continue;
      const std::ptrdiff_t idx = space.index_of(vb.qualified);
      if (idx < 0) continue;
      AtomCriticality& a = atoms[static_cast<std::size_t>(idx)];
      a.max_rel_div = std::max(a.max_rel_div, vb.max_rel_div);
    }
  }
  for (AtomCriticality& a : atoms) {
    if (a.demoted_total == 0) continue;  // never demoted: no evidence
    a.fail_association = static_cast<double>(a.demoted_rejected) /
                         static_cast<double>(a.demoted_total);
    a.score = 0.45 * a.fail_association + 0.25 * std::min(1.0, a.max_rel_div) +
              (a.pivotal > 0 ? 0.20 : 0.0) + (a.final64 ? 0.10 : 0.0);
    diag.atoms.push_back(std::move(a));
  }
  std::sort(diag.atoms.begin(), diag.atoms.end(),
            [](const AtomCriticality& x, const AtomCriticality& y) {
              if (x.score != y.score) return x.score > y.score;
              return x.qualified < y.qualified;
            });

  // Procedure criticality: each diagnosed variant distributes one unit of
  // blame across its procedures, so blame_share sums to the number of
  // variants whose rejection a procedure fully explains.
  std::map<std::string, ProcCriticality> procs;
  for (const BlameReport& rep : diag.reports) {
    double total = 0.0;
    for (const ProcedureBlame& pb : rep.procedures) total += pb.blame;
    for (const ProcedureBlame& pb : rep.procedures) {
      ProcCriticality& p = procs[pb.qualified];
      p.qualified = pb.qualified;
      if (total > 0.0) p.blame_share += pb.blame / total;
      p.max_rel_div = std::max(p.max_rel_div, pb.max_rel_div);
      p.cancellations += pb.cancellations;
      p.control_divergences += pb.control_divergences;
      if (pb.faulted) ++p.faults;
      p.cast_cycles = std::max(p.cast_cycles, pb.cast_cycles);
    }
  }
  diag.procedures.reserve(procs.size());
  for (auto& [name, p] : procs) diag.procedures.push_back(std::move(p));
  std::sort(diag.procedures.begin(), diag.procedures.end(),
            [](const ProcCriticality& x, const ProcCriticality& y) {
              if (x.blame_share != y.blame_share) {
                return x.blame_share > y.blame_share;
              }
              // Blame ties (e.g. all-slow-pass campaigns) rank by the cost of
              // demotion instead: the cast-dominated procedures first.
              if (x.cast_cycles != y.cast_cycles) {
                return x.cast_cycles > y.cast_cycles;
              }
              return x.qualified < y.qualified;
            });
  return diag;
}

StatusOr<CampaignResult> run_campaign(const TargetSpec& original_spec,
                                      const CampaignOptions& options) {
  trace::Tracer tracer(options.trace);
  if (options.trace.enabled() && !tracer.error().is_ok()) {
    return tracer.error();
  }
  trace::Tracer* tr = tracer.enabled() ? &tracer : nullptr;

  // Precision lattice: the --formats knob overrides the spec's own list.
  TargetSpec spec = original_spec;
  if (!options.formats.empty()) spec.formats = options.formats;

  // Fault plan: parsed up front so a bad spec fails the campaign before any
  // work, like a bad flag would.
  FaultPlan plan;
  if (!options.fault_spec.empty()) {
    auto parsed = FaultPlan::parse(options.fault_spec, options.fault_seed);
    if (!parsed.is_ok()) return parsed.status();
    plan = std::move(parsed.value());
    for (const NodeCrash& c : plan.node_crashes()) {
      if (c.node >= options.cluster.nodes) {
        return Status(StatusCode::kInvalidArgument,
                      "fault plan crashes node " + std::to_string(c.node) +
                          " but the cluster has only " +
                          std::to_string(options.cluster.nodes) + " nodes");
      }
    }
  }

  // Campaign identity for the journal: a resume refuses a journal recorded
  // under different seeds/faults/cluster shape.
  JournalHeader header;
  header.model = spec.name;
  header.noise_seed = options.noise_seed;
  header.fault_spec = options.fault_spec;
  header.fault_seed = options.fault_seed;
  header.retry_max_attempts = options.retry.max_attempts;
  header.retry_backoff_seconds = options.retry.backoff_seconds;
  header.nodes = options.cluster.nodes;
  header.wall_budget_seconds = options.cluster.wall_budget_seconds;
  if (!spec.formats.empty()) {
    header.formats = prec::format_list_name(spec.formats);
  }

  JournalData recovered;
  if (options.resume) {
    if (options.journal_path.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "resume requested but no journal path given");
    }
    auto loaded = Journal::load(options.journal_path);
    if (!loaded.is_ok()) return loaded.status();
    recovered = std::move(loaded.value());
    if (recovered.has_header) {
      if (const std::string why = recovered.header.mismatch(header); !why.empty()) {
        return Status(StatusCode::kInvalidArgument,
                      "journal " + options.journal_path +
                          " is from a different campaign: " + why);
      }
    }
  }

  // Observability registry for this campaign. Instruments are registered up
  // front and threaded through every layer; the hot paths then only bump
  // atomics (zero-allocation contract). Collection never influences results.
  obs::Registry registry;
  trace::TraceMetrics tm;
  tm.events = registry.counter("prose_trace_events_total",
                               "Flight-recorder events emitted");
  tm.write_errors = registry.counter(
      "prose_trace_write_errors_total",
      "Flight-recorder sink degradations (sticky write failures)");
  tracer.set_metrics(tm);

  // The work pool for batch-parallel variant evaluation (jobs == 1 → serial
  // path, no threads spawned). Results are bit-identical either way.
  const std::size_t jobs =
      options.jobs == 0 ? ThreadPool::hardware_workers() : options.jobs;
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs);
  if (pool != nullptr) {
    PoolMetrics pm;
    pm.batches = registry.counter("prose_pool_batches_total",
                                  "Work-pool batches dispatched");
    pm.items = registry.counter("prose_pool_items_total",
                                "Work-pool items completed");
    pm.queue_depth = registry.gauge(
        "prose_pool_queue_depth", "Items of the active batch not yet claimed");
    pm.active_workers = registry.gauge(
        "prose_pool_active_workers", "Workers currently evaluating a variant");
    pool->set_metrics(pm);
  }

  if (tr != nullptr) {
    tr->set_process_name(trace::Track::kPipelinePid, "tuning-pipeline");
    tr->set_thread_name(trace::Track::kPipelinePid, trace::Track::kEvaluatorTid, "evaluator");
    tr->set_thread_name(trace::Track::kPipelinePid, trace::Track::kSearchTid, "search");
    tr->set_thread_name(trace::Track::kPipelinePid, trace::Track::kCampaignTid, "campaign");
    if (pool != nullptr) {
      for (std::size_t w = 0; w < pool->size(); ++w) {
        tr->set_thread_name(trace::Track::kPipelinePid,
                            trace::Track::kWorkerTidBase + static_cast<int>(w),
                            "worker-" + std::to_string(w));
      }
    }
  }

  auto evaluator = Evaluator::create(spec, options.noise_seed, tr);
  if (!evaluator.is_ok()) return evaluator.status();
  Evaluator& ev = *evaluator.value();

  ev.set_metrics(&registry);
  if (!plan.empty()) {
    ev.set_fault_plan(&plan);
    ev.set_retry_policy(options.retry);
  }
  if (options.backend != nullptr) {
    ev.set_backend(options.backend);
    // The backend (serve client) emits request-scoped spans onto the same
    // timeline and threads trace context over the wire. Observability only.
    options.backend->set_tracer(tr);
  }
  if (options.resume && !recovered.variants.empty()) {
    ev.set_journal_replay(recovered.variants);
  }

  // Open the journal after the baseline run (the baseline is deterministic
  // setup, not campaign progress — it is always recomputed on resume).
  std::unique_ptr<Journal> journal;
  if (!options.journal_path.empty()) {
    auto opened = Journal::open(options.journal_path, header,
                                options.resume
                                    ? std::optional<std::size_t>(recovered.valid_bytes)
                                    : std::nullopt);
    if (!opened.is_ok()) return opened.status();
    journal = std::move(opened.value());
    if (options.journal_kill_after > 0) {
      journal->set_kill_after_variants(options.journal_kill_after);
    }
    journal->set_metrics(&registry);
    ev.set_journal(journal.get());
  }

  ClusterSim cluster(options.cluster);
  cluster.set_tracer(tr);
  if (!plan.node_crashes().empty()) cluster.set_crashes(plan.node_crashes());
  SearchOptions sopts;
  sopts.max_variants = options.max_variants;
  sopts.pool = pool.get();
  sopts.tracer = tr;
  sopts.batch_hook = [&](const std::vector<const VariantRecord*>& batch) {
    bool ok;
    // Cooperative cancellation (SIGINT/SIGTERM in the CLI drivers): stop
    // proposing work but account for the batch already evaluated, so the
    // journal stays a resumable prefix of the uninterrupted campaign.
    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_relaxed)) {
      if (journal != nullptr) {
        journal->append_batch(cluster.batches(), cluster.elapsed_seconds(),
                              batch.size());
      }
      return false;
    }
    if (tr != nullptr) {
      std::vector<ClusterTask> tasks(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        tasks[i].seconds = batch[i]->eval.node_seconds;
        std::string label = "v";
        label += std::to_string(batch[i]->id);
        label += ' ';
        label += to_string(batch[i]->eval.outcome);
        tasks[i].label = std::move(label);
      }
      ok = cluster.run_labeled_batch(tasks);
    } else {
      std::vector<double> tasks;
      tasks.reserve(batch.size());
      for (const auto* r : batch) tasks.push_back(r->eval.node_seconds);
      ok = cluster.run_batch(tasks);
    }
    if (journal != nullptr) {
      // Informational marker: search round + simulated cluster clock, so a
      // journal reader can line evaluations up with campaign progress.
      journal->append_batch(cluster.batches(), cluster.elapsed_seconds(),
                            batch.size());
    }
    return ok;
  };

  CampaignResult result;
  {
    trace::Span campaign_span(tr, trace::Track::campaign(),
                              "campaign " + spec.name);
    result.search = delta_debug_search(ev, sopts);
    result.summary = summarize(spec.name, result.search, cluster);
    if (tr != nullptr) {
      campaign_span.annotate({{"variants", result.summary.total},
                              {"best_speedup", result.summary.best_speedup},
                              {"wall_hours", result.summary.wall_hours},
                              {"finished", result.summary.finished}});
      tr->instant("campaign/summary", trace::Track::campaign(), tr->now_us(),
                  {{"model", result.summary.model},
                   {"total", result.summary.total},
                   {"pass_pct", result.summary.pass_pct},
                   {"fail_pct", result.summary.fail_pct},
                   {"timeout_pct", result.summary.timeout_pct},
                   {"error_pct", result.summary.error_pct},
                   {"best_speedup", result.summary.best_speedup},
                   {"finished", result.summary.finished},
                   {"wall_hours", result.summary.wall_hours}});
    }
  }
  result.figure6 = figure6_series(ev, result.search);

  const Config& final_config = result.search.best.has_value()
                                   ? *result.search.best
                                   : result.search.accepted;
  for (std::size_t i = 0; i < ev.space().size(); ++i) {
    result.final_kinds[ev.space().atoms()[i].qualified] = final_config.kinds[i];
  }
  // Per-format census gauges: atoms of the final configuration at each
  // lattice level, plus the accepted variant's simulated cast cycles.
  // Observability only — values land in the snapshot/scrape, never in the
  // journal or the summary's measured fields.
  for (const std::uint16_t level : ev.space().levels()) {
    registry
        .gauge("prose_final_atoms_" + prec::kind_name(level),
               "Atoms of the final configuration at this format")
        ->set(static_cast<double>(final_config.count_at(level)));
  }
  double accepted_casts = 0.0;
  for (const auto& r : result.search.records) {
    if (r.config == final_config) {
      accepted_casts = r.eval.cast_cycles;
      break;
    }
  }
  registry
      .gauge("prose_final_cast_cycles",
             "Simulated cast cycles of the accepted variant")
      ->set(accepted_casts);
  result.replayed_from_journal = ev.replayed_from_journal();

  if (options.diagnose) {
    // The diagnosis runs strictly after the campaign proper: by the time the
    // first shadow re-run starts, every variant/batch record is already
    // journaled and every summary number is final, so an undiagnosed run's
    // journal is a byte-identical prefix of the diagnosed run's.
    trace::Span diag_span(tr, trace::Track::campaign(),
                          "diagnosis " + spec.name);
    result.diagnosis = diagnose_campaign(ev, result.search, final_config,
                                         options.max_diagnosed);
    if (journal != nullptr) {
      for (const BlameReport& rep : result.diagnosis.reports) {
        journal->append_diag(rep);
      }
    }
    if (tr != nullptr) {
      diag_span.annotate({{"rejected", result.diagnosis.rejected},
                          {"diagnosed", result.diagnosis.diagnosed}});
      tr->instant(
          "campaign/diagnosis", trace::Track::campaign(), tr->now_us(),
          {{"model", spec.name},
           {"rejected", result.diagnosis.rejected},
           {"diagnosed", result.diagnosis.diagnosed},
           {"top_atom", result.diagnosis.atoms.empty()
                            ? std::string()
                            : result.diagnosis.atoms.front().qualified},
           {"top_proc", result.diagnosis.procedures.empty()
                            ? std::string()
                            : result.diagnosis.procedures.front().qualified}});
    }
  }

  if (options.backend != nullptr) {
    // Served-mode degradation counters into the summary (and the registry,
    // so a scraped campaign shows them too).
    const EvalBackend::Counters counters = options.backend->counters();
    result.summary.fallbacks = counters.fallback_items;
    result.summary.busy_retries = counters.busy_retries;
    result.summary.hedges = counters.hedges;
    result.summary.hedge_wins = counters.hedge_wins;
    result.summary.failovers = counters.failovers;
    result.summary.shards_lost = counters.shards_lost;
    result.summary.busy_backoff_seconds = counters.busy_backoff_seconds;
    registry
        .gauge("prose_client_busy_retries",
               "Busy rounds the serve client waited out (cumulative)")
        ->set(static_cast<double>(counters.busy_retries));
    registry
        .gauge("prose_client_fallback_items",
               "Items the serve client failed to resolve (cumulative)")
        ->set(static_cast<double>(counters.fallback_items));
    registry
        .gauge("prose_client_hedges",
               "Hedged requests the serve client issued (cumulative)")
        ->set(static_cast<double>(counters.hedges));
    registry
        .gauge("prose_client_hedge_wins",
               "Hedged requests resolved by the hedge replica (cumulative)")
        ->set(static_cast<double>(counters.hedge_wins));
    registry
        .gauge("prose_client_failovers",
               "Requests rerouted off a dead or draining shard "
               "(cumulative)")
        ->set(static_cast<double>(counters.failovers));
    registry
        .gauge("prose_client_shards_lost",
               "Fleet shards declared dead mid-campaign (cumulative)")
        ->set(static_cast<double>(counters.shards_lost));
    registry
        .gauge("prose_client_busy_backoff_seconds",
               "Total deterministic busy backoff slept (cumulative)")
        ->set(counters.busy_backoff_seconds);
  }
  result.summary.metrics = registry.snapshot();
  if (journal != nullptr && options.metrics_footer) {
    // Strictly after every variant/batch/diag record, mirroring the diag
    // discipline: a footer-less journal is a byte-identical prefix.
    journal->append_metrics(result.summary.metrics);
  }
  if (journal != nullptr && !journal->error().is_ok()) {
    result.summary.journal_error = journal->error().to_string();
  }
  if (tr != nullptr) {
    // Flush explicitly so a sink that failed mid-run surfaces in the
    // summary. A campaign that spent 12 simulated hours searching is worth
    // more than its timeline — losing the trace degrades the run, it does
    // not void it. (Failing to *open* a sink still fails the campaign up
    // front, before any work.)
    const Status flushed = tracer.flush();
    if (!flushed.is_ok()) result.summary.trace_error = flushed.to_string();
  }
  return result;
}

}  // namespace prose::tuner
