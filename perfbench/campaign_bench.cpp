// Campaign benchmark driver: runs one MPAS-A tuning-campaign workload through
// the public tuner and serve entry points, checks the results, and prints its
// raw measurements as one JSON object on the last line of stdout. run.py
// builds this program, turns the samples into the metrics named in
// BENCHMARK.json, and computes per-layer self time from the Chrome trace that
// a traced run writes.
//
//   campaign_bench --workload NAME --seed N --seconds S --work-dir DIR
//                  [--trace-out FILE]   traced run: per-layer replay spans
//                  [--ref-search HEX --ref-path HEX --ref-diag HEX]
//                                       reference digests (default noise seed)
//   campaign_bench --self-test
//
// Workloads (see README.md for why each exists):
//   mpas-serial     two-level lattice, jobs=1, then diagnoses of 2 rejects
//   mpas-klevel-j4  binary16/bfloat16/binary32/binary64, jobs=4, journal on
//   mpas-fleet      two-level campaign served by a 2-shard in-process fleet
//
// Simulated cycles and speedups are the paper's results: they feed only the
// correctness digests here, never a timing.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ftn/sema.h"
#include "ftn/transform.h"
#include "models/mpas.h"
#include "prec/format.h"
#include "serve/client.h"
#include "serve/result_store.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "sim/compile.h"
#include "sim/decode.h"
#include "sim/vm.h"
#include "support/cli.h"
#include "support/strings.h"
#include "support/trace.h"
#include "tuner/campaign.h"
#include "tuner/journal.h"

using namespace prose;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 2024;
// Rejected variants one diagnose_campaign sample shadow-runs (about 0.2 s on
// the two-level lattice, 0.35 s on the k-level one).
constexpr std::size_t kMaxDiagnosed = 2;
// After its cold campaign, a rep takes its short samples in one slice of two
// halves: diagnoses between warm reruns and set-ups. A shared host slows
// single vCPUs by up to ~1.6x in spells of seconds, so every metric samples
// every part of the run rather than one block of it.
constexpr std::size_t kWarmPerSlice = 24;
constexpr std::size_t kSetupsPerSlice = 16;
// Untimed set-ups before the first timed one: a process's first set-ups run
// 2x slower.
constexpr std::size_t kWarmupSetups = 8;
constexpr std::size_t kMaxReps = 50;

// Trace tracks of the benchmark's own spans (one nesting stack each).
constexpr trace::Track kReplayTrack{trace::Track::kPipelinePid, 0};
constexpr trace::Track kSetupTrack{trace::Track::kPipelinePid, 1};
constexpr trace::Track kServeTrack{trace::Track::kPipelinePid, 2};
constexpr trace::Track kStoreTrack{trace::Track::kPipelinePid, 3};
constexpr trace::Track kJournalTrack{trace::Track::kPipelinePid, 4};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Whether one more campaign rep of `rep_s` seconds still ends within the
/// run's measuring time, which began at `start`.
bool another_rep_fits(Clock::time_point start, double rep_s, double seconds) {
  return since(start) + rep_s <= seconds;
}

enum class Next { kRep, kDone, kFailed };

/// Takes a rep's slice (`slice` returns false on failure). When no further
/// rep fits, it goes on taking slices while one more still does, so the
/// short samples also cover the end of the run.
template <typename Slice>
Next take_slices(Clock::time_point start, Clock::time_point rep_start,
                 double seconds, const Slice& slice) {
  const auto slice_start = Clock::now();
  if (!slice()) return Next::kFailed;
  if (another_rep_fits(start, since(rep_start), seconds)) return Next::kRep;
  double slice_s = since(slice_start);
  while (another_rep_fits(start, slice_s, seconds)) {
    const auto t0 = Clock::now();
    if (!slice()) return Next::kFailed;
    slice_s = since(t0);
  }
  return Next::kDone;
}

/// Moves one thread round the CPUs it may use, one step per kStep. A shared
/// host slows single vCPUs in spells of seconds; rotating makes a long
/// single-threaded sample see the average vCPU instead of whichever one the
/// scheduler left it on.
class CpuRotator {
 public:
  explicit CpuRotator(pthread_t target) : target_(target) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (pthread_getaffinity_np(target_, sizeof allowed, &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
    original_ = allowed;
    if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
  }
  ~CpuRotator() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    pthread_setaffinity_np(target_, sizeof original_, &original_);
  }

 private:
  static constexpr std::chrono::milliseconds kStep{50};
  void loop() {
    std::unique_lock lock(mu_);
    for (std::size_t i = 0; !stop_; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i % cpus_.size()], &one);
      pthread_setaffinity_np(target_, sizeof one, &one);
      cv_.wait_for(lock, kStep, [this] { return stop_; });
    }
  }
  pthread_t target_;
  std::vector<int> cpus_;
  cpu_set_t original_{};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, u);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(std::string_view s) { return "\"" + trace::json_escape(s) + "\""; }

std::string jarray(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + jnum(v[i]);
  return out + "]";
}

// ---------------------------------------------------------------------------
// Workloads: the generated spec and the campaign shape. Only the spec, the
// seed and the options below reach program code.

struct Workload {
  std::string name;
  tuner::TargetSpec spec;
  std::uint64_t noise_seed = kDefaultSeed;  // CampaignOptions::noise_seed
  std::size_t jobs = 1;          // CampaignOptions::jobs
  bool journal = false;          // write-ahead journal on the cold campaign
  bool fleet = false;            // served by a 2-shard in-process fleet
  std::size_t eval_threads = 1;  // host threads evaluating variants
};

// Noise seeds whose two-level MPAS-A campaign takes the default seed's
// 220-variant search path (screened over seeds 1-100; the other 74 take a
// 33-variant path). Measurement noise decides ties at speedup 1.0, so the
// path, and with it the work, depends on the seed; drawing from this pool
// keeps every run's work identical while every Eq. (1) noise draw differs.
constexpr std::uint64_t kTwoLevelPool[] = {
    1,  3,  8,  10, 13, 14, 22, 23, 24, 31, 32, 35, 39, 43,
    45, 47, 49, 59, 60, 65, 82, 83, 85, 86, 90, 92, kDefaultSeed};

/// The workload's noise seed for a benchmark seed: the seed itself when it
/// is in the pool, else the pool entry it indexes.
template <std::size_t N>
std::uint64_t pick_noise_seed(const std::uint64_t (&pool)[N], std::uint64_t seed) {
  if (std::find(pool, pool + N, seed) != pool + N) return seed;
  return pool[seed % N];
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.spec = models::mpas_target();
  w.noise_seed = pick_noise_seed(kTwoLevelPool, seed);
  if (name == "mpas-serial") return w;
  if (name == "mpas-klevel-j4") {
    std::string bad;
    w.spec.formats =
        prec::parse_format_list("binary16,bfloat16,binary32,binary64", &bad);
    // Every k-level noise seed takes its own path (1,086-1,430 variants at
    // seeds 1-32, against 573 at the default seed, sharing only the first
    // 43-206), and wall time at jobs=4 follows that path's batch widths. No
    // second seed shares the default path, so this workload pins it.
    w.noise_seed = kDefaultSeed;
    w.jobs = 4;
    w.journal = true;
    w.eval_threads = 4;
    return w;
  }
  if (name == "mpas-fleet") {
    w.fleet = true;
    w.eval_threads = 4;  // 2 shards x 2 workers
    return w;
  }
  return std::nullopt;
}

tuner::CampaignOptions campaign_options(const Workload& w) {
  tuner::CampaignOptions o;
  o.noise_seed = w.noise_seed;
  o.jobs = w.jobs;
  return o;
}

// The journal identity run_campaign writes for these options.
tuner::JournalHeader journal_header(const tuner::TargetSpec& spec,
                                   const tuner::CampaignOptions& o) {
  tuner::JournalHeader h;
  h.model = spec.name;
  h.noise_seed = o.noise_seed;
  h.fault_spec = o.fault_spec;
  h.fault_seed = o.fault_seed;
  h.retry_max_attempts = o.retry.max_attempts;
  h.retry_backoff_seconds = o.retry.backoff_seconds;
  h.nodes = o.cluster.nodes;
  h.wall_budget_seconds = o.cluster.wall_budget_seconds;
  if (!spec.formats.empty()) h.formats = prec::format_list_name(spec.formats);
  return h;
}

// ---------------------------------------------------------------------------
// Correctness digests.

/// FNV-1a digest of everything the search decided: every record's config,
/// outcome and speedup bits, cache hits, accepted/best, the Table II row, and
/// the final per-atom kinds.
std::string search_digest(const tuner::CampaignResult& r) {
  std::string s;
  for (const auto& v : r.search.records) {
    s += v.config.key() + ' ' + tuner::to_string(v.eval.outcome) + ' ' +
         bits(v.eval.speedup) + '\n';
  }
  s += "cache_hits " + std::to_string(r.search.cache_hits) + "\naccepted " +
       r.search.accepted.key() + "\nbest " +
       (r.search.best ? r.search.best->key() : std::string("-")) + '\n';
  const tuner::CampaignSummary& m = r.summary;
  s += "summary " + m.model + ' ' + std::to_string(m.total) + ' ' +
       bits(m.pass_pct) + ' ' + bits(m.fail_pct) + ' ' + bits(m.timeout_pct) +
       ' ' + bits(m.error_pct) + ' ' + bits(m.lost_pct) + ' ' +
       bits(m.best_speedup) + ' ' + (m.finished ? "1 " : "0 ") +
       bits(m.wall_hours) + '\n';
  for (const auto& [atom, kind] : r.final_kinds) {
    s += atom + '=' + std::to_string(kind) + '\n';
  }
  return hex64(fnv1a64(s));
}

/// FNV-1a digest of the search path alone: each record's config and
/// outcome, which measurement noise does not touch once the path is fixed.
std::string path_digest(const tuner::SearchResult& s) {
  std::string text;
  for (const auto& v : s.records) {
    text += v.config.key() + ' ' + tuner::to_string(v.eval.outcome) + '\n';
  }
  return hex64(fnv1a64(text));
}

/// Digest of the top-3 blamed atoms of a campaign diagnosis.
std::string diag_digest(const tuner::CampaignDiagnosis& d) {
  std::string s;
  for (std::size_t i = 0; i < d.atoms.size() && i < 3; ++i) {
    s += d.atoms[i].qualified + '\n';
  }
  return hex64(fnv1a64(s));
}

const tuner::Config& final_config(const tuner::SearchResult& s) {
  return s.best.has_value() ? *s.best : s.accepted;
}

/// Mirrors the campaign's notion of a rejected variant (the diagnosis set).
bool rejected(const tuner::Evaluation& e) {
  switch (e.outcome) {
    case tuner::Outcome::kFail:
    case tuner::Outcome::kTimeout:
    case tuner::Outcome::kRuntimeError:
      return true;
    case tuner::Outcome::kPass:
      return e.speedup < 1.0;
    default:
      return false;
  }
}

std::size_t distinct_variants(const tuner::SearchResult& s) {
  std::set<std::string> keys;
  for (const auto& r : s.records) keys.insert(r.config.key());
  return keys.size();
}

// ---------------------------------------------------------------------------
// Run bookkeeping: samples, counts, and the correctness tally.

struct Report {
  std::vector<double> setup_s, campaign_s, campaign_cpu_s, diagnose_s,
      warm_campaign_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> counts;  // per-layer counts (traced run)
  std::string search_digest, path_digest, diag_digest;

  /// Records `ops` operations, of which `bad` failed outright; a check that
  /// does not hold fails every one of them.
  void tally(std::uint64_t ops, std::uint64_t bad, bool ok,
             const std::string& what) {
    attempted += ops;
    failed += ok ? std::min(bad, ops) : ops;
    if (!ok || bad > 0) problems.push_back(what);
  }
};

/// Reference digests at the default noise seed (empty = not checked).
struct Refs {
  std::uint64_t noise_seed = kDefaultSeed;
  std::string search, path, diag;
};

/// Checks one cold campaign: lost variants and backend fallbacks fail their
/// operation. The whole campaign fails when its digest differs from the
/// reference (default noise seed) or from the run's first campaign, or when
/// its search path differs from the reference path (any seed).
void check_cold(Report& rep, const tuner::CampaignResult& r, const Refs& refs,
                std::uint64_t ops) {
  const std::string d = search_digest(r);
  const std::string path = path_digest(r.search);
  bool ok = true;
  std::string why = "cold campaign";
  if (!refs.path.empty() && path != refs.path) {
    ok = false;
    why += " path " + path + " != reference " + refs.path;
  }
  if (rep.search_digest.empty()) {
    rep.search_digest = d;
    rep.path_digest = path;
    if (refs.noise_seed == kDefaultSeed && !refs.search.empty() &&
        d != refs.search) {
      ok = false;
      why += " digest " + d + " != reference " + refs.search;
    }
  } else if (d != rep.search_digest) {
    ok = false;
    why += " digest " + d + " differs between reps";
  }
  const std::uint64_t bad = r.search.lost + r.summary.fallbacks;
  if (bad > 0) why += ": " + std::to_string(bad) + " lost/fallback";
  rep.tally(ops, bad, ok, why);
}

void check_warm(Report& rep, const tuner::CampaignResult& w, std::uint64_t ops,
                bool served_fully, const std::string& what) {
  const bool same = search_digest(w) == rep.search_digest;
  rep.tally(ops, w.search.lost + w.summary.fallbacks, same && served_fully,
            what + (same ? "" : ": warm != cold") +
                (served_fully ? "" : ": executed variants"));
}

void check_diagnosis(Report& rep, const tuner::CampaignDiagnosis& d,
                     const Refs& refs, bool gate_top3) {
  const std::string dd = diag_digest(d);
  bool ok = d.diagnosed > 0;
  if (gate_top3) {
    if (rep.diag_digest.empty()) {
      rep.diag_digest = dd;
      if (refs.noise_seed == kDefaultSeed && !refs.diag.empty() &&
          dd != refs.diag) {
        ok = false;
      }
    } else if (dd != rep.diag_digest) {
      ok = false;
    }
  }
  rep.tally(d.diagnosed, 0, ok, "diagnosis top-3 " + dd);
}

// ---------------------------------------------------------------------------
// Traced replay: every explored variant through the public pipeline calls,
// one span per call under one span per variant.

const char* outcome_class(tuner::Outcome o) {
  switch (o) {
    case tuner::Outcome::kPass:
    case tuner::Outcome::kFail:
      return "completed";
    case tuner::Outcome::kTimeout:
      return "timeout";
    case tuner::Outcome::kRuntimeError:
      return "runtime_error";
    case tuner::Outcome::kCompileError:
      return "compile_error";
    case tuner::Outcome::kLost:
      return "lost";
  }
  return "?";
}

struct Replayed {
  const char* cls = "compile_error";
  double whole = 0.0, cast = 0.0, hotspot = 0.0, metric = 0.0;
};

Replayed replay_one(const tuner::Evaluator& ev, const tuner::Config& config,
                    trace::Tracer* tr, std::map<std::string, double>& counts) {
  const tuner::TargetSpec& spec = ev.spec();
  Replayed out;
  ftn::WrapperReport wreport;
  auto variant = [&] {
    trace::Span s(tr, kReplayTrack, "ftn.transform");
    return ftn::make_variant(ev.pristine().program,
                             ev.space().to_assignment(config), &wreport);
  }();
  if (!variant.is_ok()) return out;
  counts["ftn.wrappers"] += wreport.wrappers_generated;
  sim::CompileOptions copts;
  for (const auto& proc : spec.hotspot_procs) copts.instrument.insert(proc);
  auto compiled = [&] {
    trace::Span s(tr, kReplayTrack, "sim.compile");
    return sim::compile(variant.value(), spec.machine, copts);
  }();
  if (!compiled.is_ok()) return out;
  auto decoded = [&] {
    trace::Span s(tr, kReplayTrack, "sim.decode");
    return sim::decode(compiled.value());
  }();
  sim::VmOptions vopts;
  vopts.cycle_budget = 3.0 * ev.baseline().whole_cycles;
  vopts.dispatch = ev.vm_dispatch();
  if (decoded.is_ok()) vopts.decoded = decoded.value();
  std::optional<sim::Vm> vm;
  Status setup = Status::ok();
  {
    trace::Span s(tr, kReplayTrack, "sim.vm_init");
    vm.emplace(&compiled.value(), vopts);
    if (spec.setup) setup = spec.setup(*vm);
  }
  if (!setup.is_ok()) return out;
  sim::RunResult run;
  {
    trace::Span s(tr, kReplayTrack, "sim.execute");
    run = vm->call(spec.entry);
  }
  counts["sim.instructions"] += static_cast<double>(run.instructions);
  counts["sim.calls"] += static_cast<double>(run.op_mix.calls);
  counts["sim.fused_covered"] += static_cast<double>(run.fused.covered());
  counts["prec.fmt_arith"] += static_cast<double>(run.op_mix.fmt_arith);
  counts["prec.all_fp_arith"] +=
      static_cast<double>(run.op_mix.fp_arith() + run.op_mix.fmt_arith);
  counts["prec.casts"] += static_cast<double>(run.op_mix.casts);
  out.whole = run.cycles;
  out.cast = run.cast_cycles;
  if (!run.status.is_ok()) {
    out.cls = run.status.code() == StatusCode::kTimeout ? "timeout"
                                                         : "runtime_error";
    return out;
  }
  trace::Span s(tr, kReplayTrack, "tuner.measure");
  for (const auto& proc : spec.hotspot_procs) {
    auto stats = vm->timers().stats(proc);
    if (stats.is_ok()) out.hotspot += stats->inclusive_cycles;
  }
  if (spec.series_fn) {
    auto series = spec.series_fn(*vm);
    if (!series.is_ok()) {
      out.cls = "runtime_error";
      return out;
    }
    out.metric = series->empty() ? 0.0 : series->back();
  } else {
    auto metric = spec.metric ? spec.metric(*vm) : StatusOr<double>(0.0);
    if (!metric.is_ok()) {
      out.cls = "runtime_error";
      return out;
    }
    out.metric = metric.value();
  }
  out.cls = "completed";
  return out;
}

/// Replays every record in order; each replay's outcome class and simulated
/// whole/cast cycles (plus hotspot cycles and metric, when it completed) must
/// be bit-equal to the record.
void replay_records(const tuner::Evaluator& ev, const tuner::SearchResult& s,
                    trace::Tracer* tr, Report& rep) {
  std::uint64_t mismatches = 0;
  std::string first;
  for (const auto& r : s.records) {
    trace::Span variant(tr, kReplayTrack, "variant");
    const Replayed got = replay_one(ev, r.config, tr, rep.counts);
    const char* want = outcome_class(r.eval.outcome);
    bool same = std::strcmp(got.cls, want) == 0 &&
                bits(got.whole) == bits(r.eval.whole_cycles) &&
                bits(got.cast) == bits(r.eval.cast_cycles);
    if (same && std::strcmp(want, "completed") == 0) {
      same = bits(got.hotspot) == bits(r.eval.hotspot_cycles) &&
             bits(got.metric) == bits(r.eval.metric);
    }
    if (!same) {
      ++mismatches;
      if (first.empty()) {
        first = "v" + std::to_string(r.id) + " replayed " + got.cls +
                " vs recorded " + want;
      }
    }
  }
  rep.counts["replay.variants"] = static_cast<double>(s.records.size());
  rep.counts["replay.mismatches"] = static_cast<double>(mismatches);
  rep.tally(s.records.size(), mismatches, true,
            "replay" + (first.empty() ? "" : ": " + first));
}

/// The rejected variants diagnose_campaign would shadow-run, each spanned.
void trace_diagnose_calls(tuner::Evaluator& ev, const tuner::SearchResult& s,
                          trace::Tracer* tr) {
  std::set<std::string> seen;
  std::size_t diagnosed = 0;
  for (const auto& r : s.records) {
    if (r.eval.outcome == tuner::Outcome::kLost ||
        r.eval.outcome == tuner::Outcome::kCompileError) {
      continue;
    }
    if (!seen.insert(r.config.key()).second || !rejected(r.eval)) continue;
    if (diagnosed >= kMaxDiagnosed) break;
    trace::Span span(tr, kReplayTrack, "sim.shadow");
    if (ev.diagnose(r.config).is_ok()) ++diagnosed;
  }
}

/// Writes the distinct evaluations of a search into a fresh journal, with
/// proposal-order noise streams (first occurrence of each key claims the next
/// stream, as the evaluator assigns them). Returns the variants written.
std::size_t write_journal(const std::string& path,
                          const tuner::JournalHeader& header,
                          const tuner::SearchResult& s, trace::Tracer* tr) {
  auto journal = tuner::Journal::open(path, header);
  if (!journal.is_ok()) return 0;
  std::set<std::string> seen;
  std::uint64_t stream = 0;
  for (const auto& r : s.records) {
    const std::string key = r.config.key();
    if (!seen.insert(key).second) continue;
    trace::Span span(tr, kJournalTrack, "tuner.journal_append");
    journal.value()->append_variant(key, ++stream, r.eval);
  }
  return journal.value()->error().is_ok() ? stream : 0;
}

// ---------------------------------------------------------------------------
// In-process workloads (mpas-serial, mpas-klevel-j4).

/// The workload's set-up: parse/resolve, search space, baseline run.
std::unique_ptr<tuner::Evaluator> create_evaluator(const Workload& w) {
  auto created = tuner::Evaluator::create(w.spec, w.noise_seed);
  if (!created.is_ok()) {
    std::cerr << "Evaluator::create: " << created.status().to_string() << "\n";
    return nullptr;
  }
  return std::move(created.value());
}

bool sample_setups(const Workload& w, std::size_t n, Report& rep) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    const bool ok = create_evaluator(w) != nullptr;
    rep.setup_s.push_back(since(t0));
    if (!ok) return false;
  }
  return true;
}

StatusOr<tuner::CampaignResult> timed_campaign(const tuner::TargetSpec& spec,
                                               const tuner::CampaignOptions& o,
                                               Report& rep) {
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  auto r = tuner::run_campaign(spec, o);
  rep.campaign_s.push_back(since(t0));
  rep.campaign_cpu_s.push_back(cpu_seconds() - cpu0);
  return r;
}

/// Warm reruns in-process: the campaign resumed from a journal holding all
/// of its evaluations, so nothing executes. The source journal is written
/// once per cold campaign; each rerun resumes from a fresh copy of it.
class WarmReruns {
 public:
  WarmReruns(const Workload& w, const tuner::CampaignOptions& cold,
             const tuner::CampaignResult& r, const fs::path& dir)
      : spec_(w.spec),
        cold_(r),
        src_((dir / "warm-src.jsonl").string()),
        written_(write_journal(src_, journal_header(w.spec, cold), r.search,
                               nullptr)),
        distinct_(distinct_variants(r.search)),
        o_(cold) {
    o_.journal_path = (dir / "warm.jsonl").string();
    o_.resume = true;
    // Nothing executes, so a pool would only add its wake-ups; results are
    // identical for any worker count.
    o_.jobs = 1;
  }

  void run(std::size_t count, Report& rep) const {
    for (std::size_t k = 0; k < count; ++k) {
      fs::copy_file(src_, o_.journal_path, fs::copy_options::overwrite_existing);
      const auto t0 = Clock::now();
      auto warm = tuner::run_campaign(spec_, o_);
      rep.warm_campaign_s.push_back(since(t0));
      if (!warm.is_ok()) {
        rep.tally(cold_.search.records.size(), 0, false,
                  "warm rerun: " + warm.status().to_string());
        continue;
      }
      check_warm(rep, warm.value(), warm->search.records.size(),
                 written_ == distinct_ && warm->replayed_from_journal == distinct_,
                 "warm rerun");
    }
  }

 private:
  const tuner::TargetSpec& spec_;
  const tuner::CampaignResult& cold_;
  std::string src_;
  std::size_t written_, distinct_;
  tuner::CampaignOptions o_;
};

/// One timed diagnose_campaign of the first kMaxDiagnosed rejects of a
/// finished search. Every slice takes six samples.
void timed_diagnosis(tuner::Evaluator& ev, const Workload& w,
                     const tuner::SearchResult& search, const Refs& refs,
                     Report& rep) {
  const auto t0 = Clock::now();
  const tuner::CampaignDiagnosis d = tuner::diagnose_campaign(
      ev, search, final_config(search), kMaxDiagnosed);
  rep.diagnose_s.push_back(since(t0));
  check_diagnosis(rep, d, refs, w.name == "mpas-serial");
}

int run_in_process(const Workload& w, const Refs& refs, double seconds,
                   const fs::path& dir, trace::Tracer* tr, Report& rep) {
  if (tr != nullptr) {
    trace::Span s(tr, kSetupTrack, "ftn.parse_resolve");
    if (!ftn::parse_and_resolve(w.spec.source).is_ok()) return 1;
  }
  // A single evaluation thread rotates for the whole run: its campaign is
  // one long sample. Pooled campaigns spread over the vCPUs by themselves,
  // and short samples are better served by the fastest vCPU they meet.
  std::optional<CpuRotator> rotator;
  if (tr == nullptr && w.eval_threads == 1) rotator.emplace(pthread_self());
  auto ev = create_evaluator(w);  // for diagnosis and replay; not timed
  if (ev == nullptr) return 1;
  for (std::size_t i = 0; i < kWarmupSetups; ++i) {
    if (create_evaluator(w) == nullptr) return 1;
  }

  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMaxReps; ++i) {
    const auto rep_start = Clock::now();
    tuner::CampaignOptions o = campaign_options(w);
    if (w.journal) {
      o.journal_path = (dir / "campaign.jsonl").string();
      fs::remove(o.journal_path);
    }
    auto r = timed_campaign(w.spec, o, rep);
    if (!r.is_ok()) {
      std::cerr << "run_campaign: " << r.status().to_string() << "\n";
      return 1;
    }
    check_cold(rep, r.value(), refs, r->search.records.size());
    if (tr != nullptr) {
      rep.counts["tuner.variants"] = static_cast<double>(r->search.records.size());
      rep.counts["tuner.cache_hits"] = static_cast<double>(r->search.cache_hits);
      replay_records(*ev, r->search, tr, rep);
      if (w.name == "mpas-serial") trace_diagnose_calls(*ev, r->search, tr);
      if (w.journal) {
        const std::string path = (dir / "replay.jsonl").string();
        const std::size_t n =
            write_journal(path, journal_header(w.spec, o), r->search, tr);
        trace::Span s(tr, kJournalTrack, "tuner.journal_load");
        auto loaded = tuner::Journal::load(path);
        const bool ok = loaded.is_ok() && n == distinct_variants(r->search) &&
                        loaded->variants.size() == n;
        rep.tally(n, 0, ok, "journal replay round trip");
      }
      // One traced pass.
      return sample_setups(w, kSetupsPerSlice, rep) ? 0 : 1;
    }
    const WarmReruns warm(w, o, r.value(), dir);
    const Next next = take_slices(start, rep_start, seconds, [&] {
      for (int half = 0; half < 2; ++half) {
        timed_diagnosis(*ev, w, r->search, refs, rep);
        warm.run(kWarmPerSlice / 2, rep);
        timed_diagnosis(*ev, w, r->search, refs, rep);
        if (!sample_setups(w, kSetupsPerSlice / 2, rep)) return false;
        timed_diagnosis(*ev, w, r->search, refs, rep);
      }
      return true;
    });
    if (next != Next::kRep) return next == Next::kDone ? 0 : 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// mpas-fleet: two shards over segmented on-disk stores, replicate=2, two
// workers each; a cold pass, a restart of both shards over the same stores,
// then warm reruns from fresh clients.

/// Forwarding backend: one span per batch around ServeClient::evaluate_many.
class SpannedBackend : public tuner::EvalBackend {
 public:
  SpannedBackend(serve::ServeClient* inner, trace::Tracer* tr, const char* name)
      : inner_(inner), tr_(tr), name_(name) {}
  std::vector<RemoteItem> evaluate_many(
      std::span<const tuner::Config> configs,
      std::span<const std::uint64_t> streams) override {
    trace::Span s(tr_, kServeTrack, name_);
    ++batches_;
    items_ += configs.size();
    return inner_->evaluate_many(configs, streams);
  }
  [[nodiscard]] Counters counters() const override { return inner_->counters(); }
  std::uint64_t batches_ = 0;
  std::uint64_t items_ = 0;

 private:
  serve::ServeClient* inner_;
  trace::Tracer* tr_;
  const char* name_;
};

class Fleet {
 public:
  Fleet(const fs::path& dir, const tuner::TargetSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed) {
    fs::create_directories(dir);
    for (int i = 0; i < 2; ++i) {
      const std::string base = (dir / ("s" + std::to_string(i))).string();
      endpoints_.push_back("unix:" + base + ".sock");
      stores_.push_back(base + ".store");
    }
  }
  ~Fleet() { stop(); }

  /// Server::start of both shards (span `name`), then a fresh client.
  StatusOr<std::unique_ptr<serve::ServeClient>> start(trace::Tracer* tr,
                                                      const char* name) {
    {
      trace::Span s(tr, kSetupTrack, name);
      for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        serve::ServerOptions o;
        o.endpoint = endpoints_[i];
        o.store_path = stores_[i];
        o.store_dir = true;
        o.peers = endpoints_;
        o.replicate = 2;
        o.jobs = 2;
        const tuner::TargetSpec spec = spec_;
        shards_.push_back(std::make_unique<serve::Server>(
            o, [spec](const std::string& model) -> StatusOr<tuner::TargetSpec> {
              if (model == spec.name) return spec;
              return Status(StatusCode::kNotFound, "unknown model " + model);
            }));
        if (Status st = shards_.back()->start(); !st.is_ok()) return st;
      }
    }
    return connect(tr);
  }

  StatusOr<std::unique_ptr<serve::ServeClient>> connect(trace::Tracer* tr) {
    trace::Span s(tr, kSetupTrack, "serve.connect");
    serve::ServeClient::Options o;
    o.endpoints = endpoints_;
    o.model = spec_.name;
    o.noise_seed = seed_;
    o.target_digest = serve::target_digest(spec_);
    return serve::ServeClient::connect(o);
  }

  [[nodiscard]] serve::ServerStats stats() const {
    serve::ServerStats t;
    for (const auto& s : shards_) {
      const serve::ServerStats x = s->stats();
      t.requests += x.requests;
      t.evals_executed += x.evals_executed;
      t.store_hits += x.store_hits;
      t.coalesced += x.coalesced;
      t.busy_rejections += x.busy_rejections;
      t.repl_sent += x.repl_sent;
      t.repl_failed += x.repl_failed;
    }
    return t;
  }

  /// Stops the shards concurrently: each shutdown waits out its accept
  /// loop's poll tick (up to 200 ms), which one after another would take
  /// much of the run.
  void stop() {
    std::vector<std::thread> stoppers;
    for (auto& s : shards_) {
      stoppers.emplace_back([&s] {
        s->shutdown();
        s->wait();
      });
    }
    for (auto& t : stoppers) t.join();
    shards_.clear();
  }

 private:
  tuner::TargetSpec spec_;
  std::uint64_t seed_;
  std::vector<std::string> endpoints_, stores_;
  std::vector<std::unique_ptr<serve::Server>> shards_;
};

/// The cold results replayed into a fresh segmented store: inserts, lookups
/// (each must return the stored evaluation bit-exactly), and a reopen.
void trace_store_replay(const tuner::SearchResult& s, const fs::path& dir,
                        trace::Tracer* tr, Report& rep) {
  const std::string path = (dir / "replay.store").string();
  auto store = serve::ResultStore::open_dir(path);
  if (!store.is_ok()) {
    rep.tally(1, 0, false, "store open: " + store.status().to_string());
    return;
  }
  const std::uint64_t ns = fnv1a64("perfbench");
  std::vector<const tuner::VariantRecord*> distinct;
  std::set<std::string> seen;
  for (const auto& r : s.records) {
    if (seen.insert(r.config.key()).second) distinct.push_back(&r);
  }
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    trace::Span span(tr, kStoreTrack, "serve.store_insert");
    store.value()->insert(ns, distinct[i]->config.key(), i + 1, distinct[i]->eval);
  }
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    tuner::Evaluation got;
    bool hit = false;
    {
      trace::Span span(tr, kStoreTrack, "serve.store_lookup");
      hit = store.value()->lookup(ns, distinct[i]->config.key(), i + 1, &got);
    }
    if (!hit || bits(got.whole_cycles) != bits(distinct[i]->eval.whole_cycles)) {
      ++misses;
    }
  }
  store.value().reset();
  std::size_t reopened = 0;
  {
    trace::Span span(tr, kStoreTrack, "serve.store_reopen");
    auto again = serve::ResultStore::open_dir(path);
    if (again.is_ok()) reopened = again.value()->records();
  }
  rep.tally(distinct.size(), misses, reopened == distinct.size(),
            "store replay");
}

/// Fleet set-ups over fresh stores: both shards started, a client connected.
/// Fleets stay up, idle, in groups of kFleetsPerStop, which then stop
/// together, so that neither stopping nor idle fleets dominate the run.
bool sample_fleet_setups(const Workload& w, const fs::path& dir, std::size_t n,
                         Report& rep) {
  constexpr std::size_t kFleetsPerStop = 4;
  std::vector<std::unique_ptr<Fleet>> fleets;
  const auto stop_all = [&fleets] {
    std::vector<std::thread> stoppers;
    for (auto& f : fleets) stoppers.emplace_back([&f] { f->stop(); });
    for (auto& t : stoppers) t.join();
    fleets.clear();
  };
  bool ok = true;
  for (std::size_t i = 0; i < n && ok; ++i) {
    if (fleets.size() == kFleetsPerStop) stop_all();
    fleets.push_back(std::make_unique<Fleet>(
        dir / ("setup" + std::to_string(rep.setup_s.size())), w.spec,
        w.noise_seed));
    const auto t0 = Clock::now();
    auto client = fleets.back()->start(nullptr, "serve.start");
    rep.setup_s.push_back(since(t0));
    if (!client.is_ok()) {
      std::cerr << "fleet: " << client.status().to_string() << "\n";
      ok = false;
    }
  }
  stop_all();
  return ok;
}

int run_fleet(const Workload& w, const Refs& refs, double seconds,
              const fs::path& dir, trace::Tracer* tr, Report& rep) {
  auto ev = create_evaluator(w);  // local, for diagnosis and replay; not timed
  if (ev == nullptr) return 1;
  if (tr == nullptr) {
    Report warmup;
    if (!sample_fleet_setups(w, dir / "warmup", kWarmupSetups, warmup)) return 1;
  }

  double cold_batches = 0, cold_items = 0, fallbacks = 0, failovers = 0,
         hedges = 0, warm_requests = 0, warm_hits = 0;
  serve::ServerStats cold_stats;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMaxReps; ++i) {
    const auto rep_start = Clock::now();
    Fleet fleet(dir / ("fleet" + std::to_string(i)), w.spec, w.noise_seed);
    auto client = fleet.start(tr, "serve.start");
    if (!client.is_ok()) {
      std::cerr << "fleet: " << client.status().to_string() << "\n";
      return 1;
    }
    SpannedBackend cold_backend(client.value().get(), tr, "serve.batch");
    tuner::CampaignOptions o = campaign_options(w);
    o.backend = &cold_backend;
    auto r = timed_campaign(w.spec, o, rep);
    if (!r.is_ok()) {
      std::cerr << "run_campaign: " << r.status().to_string() << "\n";
      return 1;
    }
    cold_stats = fleet.stats();
    check_cold(rep, r.value(), refs, cold_stats.requests);
    cold_batches += static_cast<double>(cold_backend.batches_);
    cold_items += static_cast<double>(cold_backend.items_);
    const auto cold_counters = cold_backend.counters();
    fallbacks += static_cast<double>(cold_counters.fallback_items);
    failovers += static_cast<double>(cold_counters.failovers);
    hedges += static_cast<double>(cold_counters.hedges);
    client.value().reset();
    fleet.stop();

    // Restart both shards over the stores the cold pass filled.
    if (Status st = fleet.start(tr, "serve.restart").status(); !st.is_ok()) {
      std::cerr << "fleet restart: " << st.to_string() << "\n";
      return 1;
    }
    // Warm reruns, each from a fresh client.
    const auto serve_warm = [&](std::size_t count) {
     for (std::size_t k = 0; k < count; ++k) {
      auto warm_client = fleet.connect(tr);
      if (!warm_client.is_ok()) return false;
      SpannedBackend backend(warm_client.value().get(), tr, "serve.warm_batch");
      tuner::CampaignOptions wo = o;
      wo.backend = &backend;
      const serve::ServerStats before = fleet.stats();
      const auto tw = Clock::now();
      auto warm = tuner::run_campaign(w.spec, wo);
      rep.warm_campaign_s.push_back(since(tw));
      const serve::ServerStats after = fleet.stats();
      const auto c = backend.counters();
      fallbacks += static_cast<double>(c.fallback_items);
      failovers += static_cast<double>(c.failovers);
      hedges += static_cast<double>(c.hedges);
      const std::uint64_t requests = after.requests - before.requests;
      const std::uint64_t hits = after.store_hits - before.store_hits;
      warm_requests += static_cast<double>(requests);
      warm_hits += static_cast<double>(hits);
      if (!warm.is_ok()) {
        rep.tally(requests, 0, false, "warm rerun: " + warm.status().to_string());
        continue;
      }
      check_warm(rep, warm.value(), requests,
                 after.evals_executed == before.evals_executed && hits == requests,
                 "fleet warm rerun");
     }
     return true;
    };
    const auto slice = [&] {
      for (int half = 0; half < 2; ++half) {
        if (tr == nullptr) timed_diagnosis(*ev, w, r->search, refs, rep);
        if (!serve_warm(kWarmPerSlice / 2)) return false;
        if (tr == nullptr) timed_diagnosis(*ev, w, r->search, refs, rep);
        if (!sample_fleet_setups(w, dir, kSetupsPerSlice / 2, rep)) return false;
        if (tr == nullptr) timed_diagnosis(*ev, w, r->search, refs, rep);
      }
      return true;
    };
    if (tr != nullptr) {  // one traced pass
      if (!slice()) return 1;
      fleet.stop();
      rep.counts["tuner.variants"] = static_cast<double>(r->search.records.size());
      rep.counts["tuner.cache_hits"] = static_cast<double>(r->search.cache_hits);
      replay_records(*ev, r->search, tr, rep);
      trace_store_replay(r->search, dir, tr, rep);
      break;
    }
    const Next next = take_slices(start, rep_start, seconds, slice);
    fleet.stop();
    if (next == Next::kFailed) return 1;
    if (next == Next::kDone) break;
  }
  rep.counts["serve.batches"] = cold_batches;
  rep.counts["serve.items_per_batch"] = cold_batches > 0 ? cold_items / cold_batches : 0;
  rep.counts["serve.evals_executed"] = static_cast<double>(cold_stats.evals_executed);
  rep.counts["serve.repl_sent"] = static_cast<double>(cold_stats.repl_sent);
  rep.counts["serve.repl_failed"] = static_cast<double>(cold_stats.repl_failed);
  rep.counts["serve.coalesced"] = static_cast<double>(cold_stats.coalesced);
  rep.counts["serve.busy_rejections"] = static_cast<double>(cold_stats.busy_rejections);
  rep.counts["serve.warm_hit_frac"] = warm_requests > 0 ? warm_hits / warm_requests : 0;
  rep.counts["serve.fallbacks"] = fallbacks;
  rep.counts["serve.failovers"] = failovers;
  rep.counts["serve.hedges"] = hedges;
  if (tr != nullptr && warm_hits != warm_requests) {
    rep.tally(0, 0, false, "serve.warm_hit_frac != 1");
  }
  return 0;
}

// ---------------------------------------------------------------------------

/// Cost of one begin/end span pair on an enabled tracer, for the tracing
/// overhead estimate (spans emitted × this cost ÷ campaign_s).
double span_pair_seconds(const fs::path& dir) {
  trace::TraceOptions o;
  o.chrome_path = (dir / "calibrate.trace.json").string();
  constexpr int kPairs = 20000;
  double best = 1e9;
  for (int round = 0; round < 3; ++round) {
    trace::Tracer t(o);
    const auto t0 = Clock::now();
    for (int i = 0; i < kPairs; ++i) trace::Span s(&t, kReplayTrack, "sim.execute");
    best = std::min(best, since(t0) / kPairs);
  }
  fs::remove(o.chrome_path);
  return best;
}

std::string meta_json(const Workload& w, std::uint64_t seed, bool traced) {
  const unsigned nproc = std::thread::hardware_concurrency();
  std::string s = "{";
  s += "\"workload\":" + jstr(w.name);
  s += ",\"seed\":" + std::to_string(seed);
  s += ",\"noise_seed\":" + std::to_string(w.noise_seed);
  s += ",\"traced\":" + std::string(traced ? "true" : "false");
  s += ",\"nproc\":" + std::to_string(nproc);
  s += ",\"eval_threads\":" + std::to_string(w.eval_threads);
  s += ",\"compiler\":" + jstr(PERFBENCH_COMPILER);
  s += ",\"build_type\":" + jstr(PERFBENCH_BUILD_TYPE);
  s += ",\"default_dispatch\":" + jstr(tuner::to_string(sim::Vm::default_dispatch()));
  s += ",\"threaded_available\":" +
       std::string(sim::Vm::threaded_available() ? "true" : "false");
  return s + "}";
}

/// Digest self-test: perturbing any digested field of a record changes the
/// search digest; an identical copy does not.
int self_test() {
  tuner::CampaignResult base;
  base.summary.model = "MPAS-A";
  for (int i = 1; i <= 3; ++i) {
    tuner::VariantRecord r;
    r.id = i;
    r.config.kinds = {8, static_cast<std::uint16_t>(i % 2 ? 4 : 8), 4};
    r.eval.outcome = tuner::Outcome::kPass;
    r.eval.speedup = 1.0 + 0.1 * i;
    base.search.records.push_back(r);
  }
  base.search.accepted.kinds = {8, 4, 4};
  base.final_kinds["m::a"] = 8;
  const std::string d0 = search_digest(base);
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    failures += ok ? 0 : 1;
  };
  tuner::CampaignResult copy = base;
  expect(search_digest(copy) == d0, "identical result keeps the digest");
  copy.search.records[1].eval.speedup =
      std::nextafter(copy.search.records[1].eval.speedup, 2.0);
  expect(search_digest(copy) != d0, "1-ulp speedup change alters the digest");
  expect(path_digest(copy.search) == path_digest(base.search),
         "speedup change keeps the path digest");
  copy = base;
  copy.search.records[2].eval.outcome = tuner::Outcome::kFail;
  expect(search_digest(copy) != d0, "outcome change alters the digest");
  expect(path_digest(copy.search) != path_digest(base.search),
         "outcome change alters the path digest");
  copy = base;
  copy.search.records[0].config.kinds[0] = 4;
  expect(search_digest(copy) != d0, "config change alters the digest");
  copy = base;
  copy.search.cache_hits = 1;
  expect(search_digest(copy) != d0, "cache_hits change alters the digest");
  copy = base;
  copy.final_kinds["m::a"] = 4;
  expect(search_digest(copy) != d0, "final_kinds change alters the digest");
  tuner::CampaignDiagnosis a, b;
  a.atoms.resize(4);
  b.atoms.resize(4);
  for (int i = 0; i < 4; ++i) {
    a.atoms[i].qualified = b.atoms[i].qualified = "m::x" + std::to_string(i);
  }
  b.atoms[3].qualified = "m::other";
  expect(diag_digest(a) == diag_digest(b), "4th atom is outside the top-3 digest");
  std::swap(b.atoms[0], b.atoms[1]);
  expect(diag_digest(a) != diag_digest(b), "top-3 order alters the diag digest");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = CliFlags::parse(argc, argv);
  if (!flags.is_ok()) {
    std::cerr << flags.status().to_string() << "\n";
    return 2;
  }
  if (flags->get_bool("self-test", false)) return self_test();

  const auto seed = static_cast<std::uint64_t>(flags->get_int("seed", kDefaultSeed));
  const auto workload = make_workload(flags->get_string("workload", ""), seed);
  if (!workload) {
    std::cerr << "--workload must be mpas-serial, mpas-klevel-j4 or mpas-fleet\n";
    return 2;
  }
  Refs refs;
  refs.noise_seed = workload->noise_seed;
  refs.search = flags->get_string("ref-search", "");
  refs.path = flags->get_string("ref-path", "");
  refs.diag = flags->get_string("ref-diag", "");
  const double seconds = flags->get_double("seconds", 10.0);
  const fs::path dir = flags->get_string("work-dir", ".bench_work");
  const std::string trace_out = flags->get_string("trace-out", "");
  fs::create_directories(dir);

  const unsigned nproc = std::thread::hardware_concurrency();
  if (workload->eval_threads > nproc) {
    std::cerr << "WARNING: workload " << workload->name << " runs "
              << workload->eval_threads << " evaluation threads on " << nproc
              << " hardware threads; its timings measure oversubscription\n";
  }

  std::unique_ptr<trace::Tracer> tracer;
  if (!trace_out.empty()) {
    trace::TraceOptions o;
    o.chrome_path = trace_out;
    tracer = std::make_unique<trace::Tracer>(o);
  }
  Report rep;
  const int rc = workload->fleet
                     ? run_fleet(*workload, refs, seconds, dir, tracer.get(), rep)
                     : run_in_process(*workload, refs, seconds, dir,
                                      tracer.get(), rep);
  if (rc != 0) return rc;
  double span_pair_s = 0.0;
  if (tracer != nullptr) {
    if (Status s = tracer->flush(); !s.is_ok()) {
      std::cerr << "trace: " << s.to_string() << "\n";
      return 1;
    }
    span_pair_s = span_pair_seconds(dir);
  }
  for (const std::string& p : rep.problems) std::cerr << "check: " << p << "\n";

  std::string out = "{\"meta\":" + meta_json(*workload, seed, tracer != nullptr);
  out += ",\"setup_s\":" + jarray(rep.setup_s);
  out += ",\"campaign_s\":" + jarray(rep.campaign_s);
  out += ",\"campaign_cpu_s\":" + jarray(rep.campaign_cpu_s);
  out += ",\"diagnose_s\":" + jarray(rep.diagnose_s);
  out += ",\"warm_campaign_s\":" + jarray(rep.warm_campaign_s);
  out += ",\"peak_rss_mb\":" + jnum(peak_rss_mb());
  out += ",\"attempted\":" + std::to_string(rep.attempted);
  out += ",\"failed\":" + std::to_string(rep.failed);
  out += ",\"search_digest\":" + jstr(rep.search_digest);
  out += ",\"path_digest\":" + jstr(rep.path_digest);
  out += ",\"diag_digest\":" + jstr(rep.diag_digest);
  out += ",\"span_pair_s\":" + jnum(span_pair_s);
  out += ",\"counts\":{";
  bool first = true;
  for (const auto& [k, v] : rep.counts) {
    out += (first ? "" : ",") + jstr(k) + ":" + jnum(v);
    first = false;
  }
  out += "}}";
  std::cout << out << std::endl;
  return 0;
}
