// Campaign-level observability contract: an instrumented campaign is
// bit-identical — summary, final report, and journal bytes — at any worker
// count; the registry actually counts what the evaluator, the VM and the
// sinks did; sink write degradation (/dev/full) shows up in the obs error
// counters, not only in the sticky post-hoc errors; and the opt-in journal
// metrics footer appends without disturbing resume.
#include <sys/resource.h>

#include <csignal>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "models/models.h"
#include "obs/metrics.h"
#include "tuner/campaign.h"
#include "tuner/journal.h"
#include "tuner/report.h"

namespace prose::tuner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

CampaignOptions small_cluster() {
  CampaignOptions options;
  options.cluster.nodes = 4;
  return options;
}

/// Everything the campaign *measured* must match; CampaignSummary::metrics
/// and the served-mode degradation tallies are documented as excluded.
void expect_same_summary(const CampaignSummary& a, const CampaignSummary& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.pass_pct, b.pass_pct);
  EXPECT_EQ(a.fail_pct, b.fail_pct);
  EXPECT_EQ(a.timeout_pct, b.timeout_pct);
  EXPECT_EQ(a.error_pct, b.error_pct);
  EXPECT_EQ(a.lost_pct, b.lost_pct);
  EXPECT_EQ(a.best_speedup, b.best_speedup);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.wall_hours, b.wall_hours);
}

TEST(ObsCampaign, InstrumentedCampaignIsBitIdenticalAcrossWorkerCounts) {
  // The registry is always on, and at jobs=4 it also instruments the work
  // pool. funarc on a small cluster, and a capped MPAS-A campaign (40
  // variants, 1 h budget) on the default cluster.
  CampaignOptions mpas;
  mpas.max_variants = 40;
  mpas.cluster.wall_budget_seconds = 3600.0;
  const struct {
    TargetSpec spec;
    CampaignOptions base;
  } inputs[] = {
      {models::funarc_target(), small_cluster()},
      {models::mpas_target(), mpas},
  };
  const std::string dir = ::testing::TempDir();
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.spec.name);
    const std::string stem = dir + "/obs_" + input.spec.name;
    const std::size_t jobs[] = {1, 4};
    std::string journals[2];
    StatusOr<CampaignResult> results[2] = {Status::ok(), Status::ok()};
    for (int i = 0; i < 2; ++i) {
      CampaignOptions options = input.base;
      options.jobs = jobs[i];
      journals[i] = stem + "_j" + std::to_string(jobs[i]) + ".jsonl";
      options.journal_path = journals[i];
      results[i] = run_campaign(input.spec, options);
      ASSERT_TRUE(results[i].is_ok()) << results[i].status().to_string();
      EXPECT_FALSE(results[i]->summary.metrics.series.empty());
    }
    const std::string reference = slurp(journals[0]);
    ASSERT_FALSE(reference.empty());
    expect_same_summary(results[0]->summary, results[1]->summary);
    EXPECT_EQ(final_variant_report(*results[0]),
              final_variant_report(*results[1]));
    EXPECT_EQ(reference, slurp(journals[1]));
  }
}

TEST(ObsCampaign, RegistryCountsEvaluatorAndSinkActivity) {
  CampaignOptions options = small_cluster();
  options.journal_path = std::string(::testing::TempDir()) + "/obs_counts.jsonl";
  options.trace.jsonl_path =
      std::string(::testing::TempDir()) + "/obs_counts.trace.jsonl";
  auto result = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const obs::MetricsSnapshot& m = result->summary.metrics;

  // Evaluator: one attempt per evaluated variant (no faults injected), a
  // lookup per proposal, and phase latencies observed per computed variant.
  EXPECT_GE(m.value("prose_eval_attempts_total"),
            static_cast<double>(result->summary.total));
  EXPECT_GT(m.value("prose_eval_cache_lookups_total"), 0.0);
  const obs::SeriesSnapshot* variant = m.find("prose_eval_variant_seconds");
  ASSERT_NE(variant, nullptr);
  EXPECT_EQ(variant->hist.count,
            static_cast<std::uint64_t>(result->summary.total));
  const obs::SeriesSnapshot* execute = m.find("prose_eval_execute_seconds");
  ASSERT_NE(execute, nullptr);
  EXPECT_GT(execute->hist.count, 0u);
  // Every funarc variant compiles, so each VM run was decoded once and
  // constructed (with spec setup) once, in its own timed stage.
  for (const char* stage :
       {"prose_eval_decode_seconds", "prose_eval_vm_init_seconds"}) {
    const obs::SeriesSnapshot* hist = m.find(stage);
    ASSERT_NE(hist, nullptr) << stage;
    EXPECT_EQ(static_cast<double>(hist->hist.count),
              m.value("prose_vm_runs_total"))
        << stage;
  }

  // VM: at most one run per attempt (the baseline is not counted), and each
  // fused pair covers two executed instructions.
  const double instructions = m.value("prose_vm_instructions_total");
  const double fused_pairs = m.value("prose_vm_fused_pairs_total");
  EXPECT_GT(m.value("prose_vm_runs_total"), 0.0);
  EXPECT_LE(m.value("prose_vm_runs_total"),
            m.value("prose_eval_attempts_total"));
  EXPECT_GT(instructions, 0.0);
  EXPECT_GT(fused_pairs, 0.0);
  EXPECT_LE(fused_pairs, instructions / 2);

  // Journal: one record per evaluated variant, fsync latency histogram to
  // match, no errors.
  EXPECT_GE(m.value("prose_journal_records_total"),
            static_cast<double>(result->summary.total));
  const obs::SeriesSnapshot* fsync = m.find("prose_journal_fsync_seconds");
  ASSERT_NE(fsync, nullptr);
  EXPECT_EQ(static_cast<double>(fsync->hist.count),
            m.value("prose_journal_records_total"));
  EXPECT_EQ(m.value("prose_journal_errors_total"), 0.0);

  // Tracer: events flowed, no degradation.
  EXPECT_GT(m.value("prose_trace_events_total"), 0.0);
  EXPECT_EQ(m.value("prose_trace_write_errors_total"), 0.0);

  // The final snapshot renders to a lint-clean exposition page.
  std::string err;
  EXPECT_TRUE(obs::lint_prometheus(obs::to_prometheus(m), &err)) << err;
}

TEST(ObsCampaign, PoolMetricsAppearForParallelRuns) {
  CampaignOptions options = small_cluster();
  options.jobs = 4;
  auto result = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const obs::MetricsSnapshot& m = result->summary.metrics;
  EXPECT_GT(m.value("prose_pool_batches_total"), 0.0);
  EXPECT_GE(m.value("prose_pool_items_total"),
            m.value("prose_pool_batches_total"));
}

TEST(ObsCampaign, JournalWriteDegradationIncrementsErrorCounter) {
  // /dev/full fails the journal's open-time truncate, before any metrics
  // exist — to hit the mid-campaign degradation branch, cap the process
  // file size instead: the header fits, the variant records don't, and the
  // first oversized append degrades the journal exactly like ENOSPC would.
  struct rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  auto old_handler = std::signal(SIGXFSZ, SIG_IGN);  // get EFBIG, not a kill
  const struct rlimit capped{2048, saved.rlim_max};
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);

  CampaignOptions options = small_cluster();
  options.journal_path =
      std::string(::testing::TempDir()) + "/obs_degraded.jsonl";
  auto result = run_campaign(models::funarc_target(), options);

  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);

  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_FALSE(result->summary.journal_error.empty());
  EXPECT_GT(result->summary.metrics.value("prose_journal_errors_total"), 0.0);
}

TEST(ObsCampaign, TraceWriteDegradationIncrementsErrorCounter) {
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  CampaignOptions options = small_cluster();
  options.trace.jsonl_path = "/dev/full";
  auto result = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_FALSE(result->summary.trace_error.empty());
  EXPECT_GT(result->summary.metrics.value("prose_trace_write_errors_total"),
            0.0);
}

TEST(ObsCampaign, MetricsFooterIsOptInAndPreservesResume) {
  const std::string plain = std::string(::testing::TempDir()) + "/obs_plain.jsonl";
  const std::string footed =
      std::string(::testing::TempDir()) + "/obs_footed.jsonl";

  CampaignOptions options = small_cluster();
  options.journal_path = plain;
  auto ref = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(ref.is_ok()) << ref.status().to_string();
  EXPECT_EQ(slurp(plain).find("\"type\":\"metrics\""), std::string::npos);

  options.journal_path = footed;
  options.metrics_footer = true;
  auto with = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(with.is_ok()) << with.status().to_string();
  expect_same_summary(ref->summary, with->summary);

  const std::string bytes = slurp(footed);
  const std::size_t footer_at = bytes.find("\"type\":\"metrics\"");
  ASSERT_NE(footer_at, std::string::npos);
  // The footer is strictly the last record: the journal up to it is exactly
  // the footer-less journal.
  const std::size_t line_start = bytes.rfind('\n', footer_at) + 1;
  EXPECT_EQ(bytes.substr(0, line_start), slurp(plain));

  // load() treats the footer as informational: a resume from the footed
  // journal replays the same evaluations.
  auto loaded = Journal::load(footed);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  options.resume = true;
  auto resumed = run_campaign(models::funarc_target(), options);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  expect_same_summary(ref->summary, resumed->summary);
  EXPECT_GT(resumed->replayed_from_journal, 0u);
}

}  // namespace
}  // namespace prose::tuner
