// Fault tolerance & resumability, end to end:
//
//   * the write-ahead journal round-trips every evaluation, and its bytes
//     are identical at any worker count;
//   * a campaign killed at ANY point — including mid-record — and resumed
//     from the surviving journal prefix is bit-identical to the
//     uninterrupted run, for jobs ∈ {1, 4}, with and without a node crash
//     mid-campaign;
//   * a fixed fault seed yields the identical injected fault sequence
//     across runs and worker counts, and quarantined (lost) variants are
//     accounted as "no information";
//   * a variant measured on a retry after a transient fault measures
//     exactly what an unfaulted evaluation of it does;
//   * a node crash reschedules in-flight work, permanently shrinks the
//     cluster, and silences the dead node's trace track;
//   * an injected evaluator abort (host crash) leaves the single-flight
//     memo cache usable — no wedged waiters, no poisoned entries;
//   * resume refuses foreign or mismatched journals, loudly.
#include <unistd.h>

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/funarc.h"
#include "support/json.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "tuner/campaign.h"
#include "tuner/journal.h"

namespace prose::tuner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
  ASSERT_TRUE(f.good()) << "cannot write " << path;
}

/// Byte offset just past the `keep`-th variant record's line (the whole file
/// when it has fewer).
std::size_t offset_after_variants(const std::string& bytes, std::size_t keep) {
  std::size_t pos = 0, seen = 0;
  while (pos < bytes.size() && seen < keep) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) return bytes.size();
    if (std::string_view(bytes).substr(pos, nl - pos).find("\"type\":\"variant\"") !=
        std::string_view::npos) {
      ++seen;
    }
    pos = nl + 1;
  }
  return pos;
}

std::size_t count_variant_lines(const std::string& bytes) {
  std::size_t n = 0, pos = 0;
  while (pos < bytes.size()) {
    std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) nl = bytes.size();
    if (std::string_view(bytes).substr(pos, nl - pos).find("\"type\":\"variant\"") !=
        std::string_view::npos) {
      ++n;
    }
    pos = nl + 1;
  }
  return n;
}

/// The faulted campaign every resume test replays: transient faults hot
/// enough (p=0.35, 2 attempts) that retries and quarantined variants both
/// actually occur on funarc's variant population.
CampaignOptions faulted_options(std::size_t jobs = 1) {
  CampaignOptions options;
  options.cluster.nodes = 4;
  options.fault_spec = "compile:p=0.08;transient:p=0.35;straggler:p=0.1,slow=4x";
  options.retry.max_attempts = 2;
  options.retry.backoff_seconds = 45.0;
  options.jobs = jobs;
  return options;
}

void expect_same_eval(const Evaluation& a, const Evaluation& b, std::size_t i) {
  EXPECT_EQ(a.outcome, b.outcome) << "variant " << i;
  EXPECT_EQ(a.detail, b.detail) << "variant " << i;
  EXPECT_EQ(a.metric, b.metric) << "variant " << i;
  EXPECT_EQ(a.error, b.error) << "variant " << i;
  EXPECT_EQ(a.hotspot_cycles, b.hotspot_cycles) << "variant " << i;
  EXPECT_EQ(a.whole_cycles, b.whole_cycles) << "variant " << i;
  EXPECT_EQ(a.cast_cycles, b.cast_cycles) << "variant " << i;
  EXPECT_EQ(a.measured_cycles, b.measured_cycles) << "variant " << i;
  EXPECT_EQ(a.speedup, b.speedup) << "variant " << i;
  EXPECT_EQ(a.fraction32, b.fraction32) << "variant " << i;
  EXPECT_EQ(a.wrappers, b.wrappers) << "variant " << i;
  EXPECT_EQ(a.attempts, b.attempts) << "variant " << i;
  EXPECT_EQ(a.proc_mean_cycles, b.proc_mean_cycles) << "variant " << i;
  EXPECT_EQ(a.proc_calls, b.proc_calls) << "variant " << i;
  EXPECT_EQ(a.node_seconds, b.node_seconds) << "variant " << i;
}

/// Bit-identical comparison of two campaign results (doubles with
/// operator== on purpose — the resume contract is exact reproduction).
void expect_same_campaign(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.summary.model, b.summary.model);
  EXPECT_EQ(a.summary.total, b.summary.total);
  EXPECT_EQ(a.summary.pass_pct, b.summary.pass_pct);
  EXPECT_EQ(a.summary.fail_pct, b.summary.fail_pct);
  EXPECT_EQ(a.summary.timeout_pct, b.summary.timeout_pct);
  EXPECT_EQ(a.summary.error_pct, b.summary.error_pct);
  EXPECT_EQ(a.summary.lost_pct, b.summary.lost_pct);
  EXPECT_EQ(a.summary.best_speedup, b.summary.best_speedup);
  EXPECT_EQ(a.summary.finished, b.summary.finished);
  EXPECT_EQ(a.summary.wall_hours, b.summary.wall_hours);
  ASSERT_EQ(a.search.records.size(), b.search.records.size());
  for (std::size_t i = 0; i < a.search.records.size(); ++i) {
    EXPECT_EQ(a.search.records[i].id, b.search.records[i].id);
    EXPECT_EQ(a.search.records[i].config, b.search.records[i].config)
        << "variant " << i;
    expect_same_eval(a.search.records[i].eval, b.search.records[i].eval, i);
  }
  EXPECT_EQ(a.search.cache_hits, b.search.cache_hits);
  EXPECT_EQ(a.search.lost, b.search.lost);
  EXPECT_EQ(a.search.best_speedup, b.search.best_speedup);
  EXPECT_EQ(a.search.one_minimal, b.search.one_minimal);
  EXPECT_EQ(a.search.budget_exhausted, b.search.budget_exhausted);
  EXPECT_EQ(a.final_kinds, b.final_kinds);
  ASSERT_EQ(a.figure6.size(), b.figure6.size());
  for (std::size_t i = 0; i < a.figure6.size(); ++i) {
    EXPECT_EQ(a.figure6[i].proc, b.figure6[i].proc);
    EXPECT_EQ(a.figure6[i].scope_key, b.figure6[i].scope_key);
    EXPECT_EQ(a.figure6[i].speedup, b.figure6[i].speedup);
    EXPECT_EQ(a.figure6[i].fraction32, b.figure6[i].fraction32);
  }
}

/// faulted_options() plus the mid-flight node crash that
/// Faults.NodeCrashShrinksClusterAndSilencesTrack shows firing on 4-node
/// funarc: resume must also replay the shrunken cluster's schedule.
CampaignOptions crashed_options(std::size_t jobs = 1) {
  CampaignOptions options = faulted_options(jobs);
  options.fault_spec += ";node_crash:node=1,at=10s";
  return options;
}

struct ReferenceRun {
  CampaignResult result;
  std::string journal_path;
  std::string journal_bytes;
};

ReferenceRun* run_reference(const std::string& name, CampaignOptions options) {
  auto* r = new ReferenceRun;
  // ctest runs each test in its own process, possibly concurrently: the
  // pid keeps their reference journals apart.
  r->journal_path = std::string(::testing::TempDir()) + "/" + name + "." +
                    std::to_string(::getpid()) + ".journal.jsonl";
  options.journal_path = r->journal_path;
  auto run = run_campaign(models::funarc_target(), options);
  EXPECT_TRUE(run.is_ok()) << run.status().to_string();
  if (run.is_ok()) r->result = std::move(run.value());
  r->journal_bytes = slurp(r->journal_path);
  EXPECT_FALSE(r->journal_bytes.empty());
  return r;
}

/// The uninterrupted faulted+journaled reference run (computed once; every
/// resume test diffs against it).
const ReferenceRun& reference() {
  static const ReferenceRun* ref = run_reference("ref", faulted_options());
  return *ref;
}

/// The same with node 1 crashing mid-campaign; its trace shows the crash.
const ReferenceRun& crash_reference() {
  static const ReferenceRun* ref = [] {
    const std::string trace = std::string(::testing::TempDir()) + "/crash." +
                              std::to_string(::getpid()) + ".trace.jsonl";
    CampaignOptions options = crashed_options();
    options.trace.jsonl_path = trace;
    ReferenceRun* r = run_reference("crash", options);
    EXPECT_NE(slurp(trace).find("\"cluster/node-crash\""), std::string::npos)
        << "the node crash never fired";
    return r;
  }();
  return *ref;
}

TEST(Journal, RoundTripsTheReferenceCampaign) {
  const ReferenceRun& ref = reference();
  ASSERT_GT(ref.result.summary.total, 0u);
  EXPECT_EQ(ref.result.replayed_from_journal, 0u);  // fresh run
  EXPECT_TRUE(ref.result.summary.journal_error.empty());

  auto loaded = Journal::load(ref.journal_path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_TRUE(loaded->has_header);
  EXPECT_EQ(loaded->header.model, "funarc");
  EXPECT_EQ(loaded->header.fault_spec, faulted_options().fault_spec);
  EXPECT_EQ(loaded->header.retry_max_attempts, 2);
  EXPECT_EQ(loaded->header.nodes, 4u);
  EXPECT_EQ(loaded->valid_bytes, ref.journal_bytes.size());

  // One journal record per unique evaluation; every record's Evaluation is
  // the one the search saw (spot-check against the first search record with
  // the same key — evaluations are memoized, so keys map 1:1 to evals).
  ASSERT_FALSE(loaded->variants.empty());
  EXPECT_EQ(loaded->variants.size(), count_variant_lines(ref.journal_bytes));
  std::size_t checked = 0;
  for (const JournalVariant& v : loaded->variants) {
    for (const auto& rec : ref.result.search.records) {
      if (rec.config.key() == v.key) {
        expect_same_eval(rec.eval, v.eval, checked);
        ++checked;
        break;
      }
    }
  }
  EXPECT_EQ(checked, loaded->variants.size());
}

TEST(Journal, BytesIdenticalAcrossWorkerCounts) {
  // The journal is written in proposal order, never host-time order, so the
  // file itself — not just the campaign result — is reproducible.
  const std::string p1 = std::string(::testing::TempDir()) + "/jobs1.journal.jsonl";
  const std::string p4 = std::string(::testing::TempDir()) + "/jobs4.journal.jsonl";
  CampaignOptions o1 = faulted_options(1);
  o1.journal_path = p1;
  CampaignOptions o4 = faulted_options(4);
  o4.journal_path = p4;
  auto r1 = run_campaign(models::funarc_target(), o1);
  auto r4 = run_campaign(models::funarc_target(), o4);
  ASSERT_TRUE(r1.is_ok()) << r1.status().to_string();
  ASSERT_TRUE(r4.is_ok()) << r4.status().to_string();
  const std::string b1 = slurp(p1);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, slurp(p4));
  expect_same_campaign(*r1, *r4);
}

class ResumeBitIdentical : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ResumeBitIdentical, FromEveryCutPoint) {
  const struct {
    const char* name;
    const ReferenceRun& ref;
    CampaignOptions options;
  } inputs[] = {
      {"faulted", reference(), faulted_options(GetParam())},
      {"node-crash", crash_reference(), crashed_options(GetParam())},
  };
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.name);
    const ReferenceRun& ref = input.ref;
    ASSERT_FALSE(ref.journal_bytes.empty());
    const std::size_t total = count_variant_lines(ref.journal_bytes);
    ASSERT_GT(total, 2u);

    // Cut points: inside the header record (everything lost), after the
    // first variant, mid-campaign — both line-aligned and torn mid-record —
    // and the complete journal (nothing to recompute).
    struct Cut {
      const char* name;
      std::size_t bytes;
      std::size_t complete_variants;  // records surviving the cut
    };
    const std::size_t half = offset_after_variants(ref.journal_bytes, total / 2);
    const std::vector<Cut> cuts = {
        {"mid-header", 20, 0},
        {"first-variant", offset_after_variants(ref.journal_bytes, 1), 1},
        {"half", half, total / 2},
        // 10 bytes into the record after `half`: a torn line that load() must
        // truncate away, falling back to the half cut.
        {"torn-record", half + 10, total / 2},
        {"complete", ref.journal_bytes.size(), total},
    };

    for (const Cut& cut : cuts) {
      SCOPED_TRACE(cut.name);
      const std::string path = std::string(::testing::TempDir()) + "/cut." +
                               input.name + "." + cut.name + ".jobs" +
                               std::to_string(GetParam()) + ".journal.jsonl";
      spill(path, ref.journal_bytes.substr(0, cut.bytes));

      CampaignOptions options = input.options;
      options.journal_path = path;
      options.resume = true;
      auto resumed = run_campaign(models::funarc_target(), options);
      ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
      expect_same_campaign(ref.result, *resumed);
      EXPECT_EQ(resumed->replayed_from_journal, cut.complete_variants);
      EXPECT_TRUE(resumed->summary.journal_error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, ResumeBitIdentical,
                         ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

TEST(Faults, JournalingAndFaultSequenceDeterministic) {
  // Two fresh runs with the same fault seed — one serial, one parallel, no
  // journal — match the journaled reference bit for bit: neither journaling
  // nor the worker count may perturb the injected fault sequence.
  const ReferenceRun& ref = reference();
  auto serial = run_campaign(models::funarc_target(), faulted_options(1));
  auto parallel = run_campaign(models::funarc_target(), faulted_options(4));
  ASSERT_TRUE(serial.is_ok()) << serial.status().to_string();
  ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();
  expect_same_campaign(ref.result, *serial);
  expect_same_campaign(ref.result, *parallel);

  // The fault plan actually bit: some variant retried, was quarantined, or
  // hit an injected compile fault (deterministic given the fixed seed).
  bool faulted = false;
  std::size_t lost = 0;
  for (const auto& rec : serial->search.records) {
    faulted = faulted || rec.eval.attempts > 1 ||
              rec.eval.outcome == Outcome::kLost ||
              rec.eval.detail == "injected compile fault";
    if (rec.eval.outcome == Outcome::kLost) ++lost;
  }
  EXPECT_TRUE(faulted);
  // Quarantine accounting: SearchResult::lost and the summary percentage
  // agree with the records.
  EXPECT_EQ(serial->search.lost, lost);
  EXPECT_EQ(serial->summary.lost_pct,
            serial->summary.total == 0
                ? 0.0
                : 100.0 * static_cast<double>(lost) /
                      static_cast<double>(serial->summary.total));

  // A different fault seed gives a different campaign (the plan is live).
  CampaignOptions reseeded = faulted_options(1);
  reseeded.fault_seed = 77;
  auto other = run_campaign(models::funarc_target(), reseeded);
  ASSERT_TRUE(other.is_ok()) << other.status().to_string();
  bool diverged =
      other->search.records.size() != serial->search.records.size();
  for (std::size_t i = 0;
       !diverged && i < serial->search.records.size(); ++i) {
    diverged = serial->search.records[i].eval.outcome !=
                   other->search.records[i].eval.outcome ||
               serial->search.records[i].eval.attempts !=
                   other->search.records[i].eval.attempts;
  }
  EXPECT_TRUE(diverged);
}

TEST(Faults, RetriedVariantMeasuresLikeAnUnfaultedEvaluation) {
  // A transient fault discards its attempt and the retry rebuilds the
  // variant from scratch: transform, compile, decode and run. What the
  // retry measures must be exactly what a fault-free evaluation of the same
  // config measures. speedup and node_seconds are left out: they depend on
  // the noise stream and on the charged retries.
  const ReferenceRun& ref = reference();
  const CampaignOptions options = faulted_options();
  auto created =
      Evaluator::create(models::funarc_target(), options.noise_seed);
  ASSERT_TRUE(created.is_ok()) << created.status().to_string();
  Evaluator& clean = **created;

  std::size_t retried = 0;
  for (const auto& rec : ref.result.search.records) {
    // An injected compile fault on a later attempt is an outcome of the
    // plan, not a measurement; a quarantined variant carries none.
    if (rec.eval.attempts <= 1 || rec.eval.outcome == Outcome::kLost ||
        rec.eval.detail == "injected compile fault") {
      continue;
    }
    ++retried;
    const Evaluation& fresh = clean.evaluate(rec.config);
    EXPECT_EQ(fresh.attempts, 1) << "variant " << rec.id;
    EXPECT_EQ(rec.eval.outcome, fresh.outcome) << "variant " << rec.id;
    EXPECT_EQ(rec.eval.whole_cycles, fresh.whole_cycles)
        << "variant " << rec.id;
    EXPECT_EQ(rec.eval.cast_cycles, fresh.cast_cycles)
        << "variant " << rec.id;
    EXPECT_EQ(rec.eval.hotspot_cycles, fresh.hotspot_cycles)
        << "variant " << rec.id;
    EXPECT_EQ(rec.eval.metric, fresh.metric) << "variant " << rec.id;
    EXPECT_EQ(rec.eval.error, fresh.error) << "variant " << rec.id;
  }
  EXPECT_GE(retried, 1u) << "no retried variant in the reference campaign";
}

TEST(Faults, NodeCrashShrinksClusterAndSilencesTrack) {
  const std::string jsonl =
      std::string(::testing::TempDir()) + "/crash.trace.jsonl";
  CampaignOptions options;
  options.cluster.nodes = 4;
  // Node 1 receives the first batch's second task, so a crash at t=10 s
  // kills mid-flight work (rescheduled on the survivors). Node 0 would work
  // too, but its tid doubles as the cluster-wide counter track.
  options.fault_spec = "node_crash:node=1,at=10s";
  options.trace.jsonl_path = jsonl;
  auto result = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  // The campaign completed on the three survivors.
  ASSERT_GT(result->summary.total, 0u);
  EXPECT_GT(result->summary.wall_hours * 3600.0, 10.0);

  // Dead node's track: events up to the crash instant, then silence.
  const trace::Track dead = trace::Track::node(1);
  const double crash_ts = 10.0 * 1e6;  // trace timestamps are microseconds
  bool saw_crash = false;
  std::size_t before = 0;
  std::istringstream ss(slurp(jsonl));
  std::string line;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    auto ev = json::parse(line);
    ASSERT_TRUE(ev.is_ok()) << line;
    const json::Value* pid = ev->find("pid");
    const json::Value* tid = ev->find("tid");
    if (pid == nullptr || tid == nullptr) continue;
    if (pid->int_or(-1) != dead.pid || tid->int_or(-1) != dead.tid) continue;
    const std::string name = ev->find("name")->str_or("");
    if (name == "thread_name") continue;  // metadata, ts 0
    const double ts = ev->find("ts")->num_or(-1.0);
    if (name == "cluster/node-crash") {
      saw_crash = true;
      EXPECT_EQ(ts, crash_ts);
      continue;
    }
    EXPECT_LE(ts, crash_ts) << line;  // nothing starts after the crash
    if (const json::Value* dur = ev->find("dur"); dur != nullptr) {
      EXPECT_LE(ts + dur->num_or(0.0), crash_ts + 0.5) << line;
    }
    ++before;
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_GT(before, 0u);  // the node did work before dying

  // A crash spec naming a node outside the cluster is rejected up front.
  CampaignOptions bad;
  bad.cluster.nodes = 4;
  bad.fault_spec = "node_crash:node=9,at=1h";
  auto rejected = run_campaign(models::funarc_target(), bad);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.status().to_string().find(
                "crashes node 9 but the cluster has only 4 nodes"),
            std::string::npos);
}

TEST(Faults, AllNodesDeadExhaustsTheCampaign) {
  CampaignOptions options;
  options.cluster.nodes = 2;
  options.fault_spec = "node_crash:node=0,at=1s;node_crash:node=1,at=2s";
  auto result = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  // With every node dead the search cannot reach 1-minimality; the campaign
  // still returns a well-formed (budget-exhausted) result.
  EXPECT_FALSE(result->summary.finished);
  EXPECT_TRUE(result->search.budget_exhausted);
}

TEST(Faults, InjectedAbortLeavesMemoCacheUsable) {
  // An abort fault throws out of evaluate(); the single-flight entry must be
  // erased and waiters released, so the evaluator stays usable afterwards.
  auto created = Evaluator::create(models::funarc_target());
  ASSERT_TRUE(created.is_ok()) << created.status().to_string();
  Evaluator& ev = **created;

  auto plan = FaultPlan::parse("abort:p=1", 1);
  ASSERT_TRUE(plan.is_ok());
  ev.set_fault_plan(&plan.value());

  std::vector<Config> configs;
  configs.push_back(ev.space().uniform(4));
  for (std::size_t i = 0; i < ev.space().size() && configs.size() < 6; ++i) {
    Config c = ev.space().uniform(8);
    c.kinds[i] = 4;
    configs.push_back(std::move(c));
  }

  ThreadPool pool(4);
  EXPECT_THROW(ev.evaluate_batch(configs, &pool), std::runtime_error);
  EXPECT_THROW(ev.evaluate(configs.front()), std::runtime_error);

  // Detach the plan: every key recomputes cleanly — no wedged single-flight
  // entries, no half-built evaluations served from the cache.
  ev.set_fault_plan(nullptr);
  const auto items = ev.evaluate_batch(configs, &pool);
  ASSERT_EQ(items.size(), configs.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_NE(items[i].eval, nullptr) << "config " << i;
    EXPECT_NE(items[i].eval->outcome, Outcome::kLost) << "config " << i;
    EXPECT_EQ(items[i].eval->attempts, 1) << "config " << i;
  }
  bool hit = false;
  const Evaluation& again = ev.evaluate(configs.front(), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.outcome, items.front().eval->outcome);
}

TEST(Journal, ResumeRefusesMismatchedOrMissingJournals) {
  const ReferenceRun& ref = reference();

  // Same journal, different noise seed → different campaign.
  const std::string copy =
      std::string(::testing::TempDir()) + "/mismatch.journal.jsonl";
  spill(copy, ref.journal_bytes);
  CampaignOptions options = faulted_options();
  options.journal_path = copy;
  options.resume = true;
  options.noise_seed = 999;
  auto mismatched = run_campaign(models::funarc_target(), options);
  ASSERT_FALSE(mismatched.is_ok());
  EXPECT_NE(mismatched.status().to_string().find("is from a different campaign"),
            std::string::npos)
      << mismatched.status().to_string();

  // Resume without a journal path is a flag error, not a silent fresh run.
  CampaignOptions pathless = faulted_options();
  pathless.resume = true;
  auto no_path = run_campaign(models::funarc_target(), pathless);
  ASSERT_FALSE(no_path.is_ok());
  EXPECT_NE(no_path.status().to_string().find(
                "resume requested but no journal path given"),
            std::string::npos);

  // A file that is not a journal is refused, not misparsed.
  const std::string foreign =
      std::string(::testing::TempDir()) + "/foreign.txt";
  spill(foreign, "hello, not a journal\n");
  auto loaded = Journal::load(foreign);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().to_string().find("campaign header"),
            std::string::npos);

  // A missing journal is a fresh start (first run with --resume in a retry
  // loop must not fail).
  auto missing =
      Journal::load(std::string(::testing::TempDir()) + "/nope.journal.jsonl");
  ASSERT_TRUE(missing.is_ok()) << missing.status().to_string();
  EXPECT_FALSE(missing->has_header);
  EXPECT_TRUE(missing->variants.empty());
  EXPECT_EQ(missing->valid_bytes, 0u);
}

TEST(Sinks, TracerDegradesOnWriteFailureAndCampaignSurvives) {
  // /dev/full opens writably but every flush fails with ENOSPC — exactly the
  // "disk filled mid-campaign" scenario. The tracer must warn, stop writing,
  // and report through CampaignSummary::trace_error while the campaign
  // finishes normally. (Unopenable sinks, by contrast, still fail up front —
  // covered in trace_campaign_test.)
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  CampaignOptions options;
  options.cluster.nodes = 4;
  options.trace.jsonl_path = "/dev/full";
  auto result = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_GT(result->summary.total, 0u);
  EXPECT_FALSE(result->summary.trace_error.empty());

  // The degraded run's campaign is still bit-identical to a healthy one.
  CampaignOptions plain;
  plain.cluster.nodes = 4;
  auto healthy = run_campaign(models::funarc_target(), plain);
  ASSERT_TRUE(healthy.is_ok());
  expect_same_campaign(*healthy, *result);
}

}  // namespace
}  // namespace prose::tuner
