// Tests for the reporting layer (CSV/scatter/HTML) and the T0 reduction
// preprocessing option.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/json.h"
#include "tuner/html_report.h"
#include "tuner/report.h"
#include "tuner/search.h"
#include "tuner_target_util.h"

namespace prose::tuner {
namespace {

using prose::testing::toy_target;

SearchResult toy_trace() {
  auto ev = Evaluator::create(toy_target());
  EXPECT_TRUE(ev.is_ok());
  return delta_debug_search(**ev);
}

TEST(HtmlReport, VariantsPageIsWellFormed) {
  const SearchResult trace = toy_trace();
  const std::string html = variants_html("toy", trace, toy_target().error_threshold);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("</svg>"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  // One circle per completed variant.
  std::size_t completed = 0;
  for (const auto& r : trace.records) {
    if (r.eval.outcome == Outcome::kPass || r.eval.outcome == Outcome::kFail) {
      ++completed;
    }
  }
  std::size_t circles = 0;
  for (std::size_t pos = html.find("<circle"); pos != std::string::npos;
       pos = html.find("<circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, completed);
  // Tooltips carry the variant metadata.
  EXPECT_NE(html.find("<title>variant "), std::string::npos);
  EXPECT_NE(html.find("wrappers"), std::string::npos);
}

TEST(HtmlReport, VariantsPageReportsNonPlottableCounts) {
  const SearchResult trace = toy_trace();
  const std::string html = variants_html("toy", trace, toy_target().error_threshold);
  // The toy search always hits the uniform-32 runtime error.
  EXPECT_NE(html.find("runtime/compile errors"), std::string::npos);
}

TEST(HtmlReport, Figure6PageRendersPerProcedureColumns) {
  auto result = run_campaign(toy_target());
  ASSERT_TRUE(result.is_ok());
  const std::string html = figure6_html("toy fig6", result->figure6);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("kernel"), std::string::npos);  // shortened proc label
  // One circle per unique per-procedure variant.
  std::size_t circles = 0;
  for (std::size_t pos = html.find("<circle"); pos != std::string::npos;
       pos = html.find("<circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, result->figure6.size());
}

TEST(HtmlReport, EscapesAngleBracketsInTitles) {
  SearchResult empty;
  const std::string html = variants_html("<weird&title>", empty, 0.1);
  EXPECT_EQ(html.find("<weird"), std::string::npos);
  EXPECT_NE(html.find("&lt;weird&amp;title&gt;"), std::string::npos);
}

TEST(Evaluator, ReductionPreprocessingRecordsStats) {
  TargetSpec spec = toy_target();
  spec.run_reduction_preprocessing = true;
  auto ev = Evaluator::create(spec);
  ASSERT_TRUE(ev.is_ok()) << ev.status().to_string();
  const auto& stats = (*ev)->reduction_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->kept_statements, 0u);
  EXPECT_LE(stats->kept_statements, stats->total_statements);
  EXPECT_GT(stats->taint_iterations, 0u);
}

TEST(Evaluator, ReductionPreprocessingOffByDefault) {
  auto ev = Evaluator::create(toy_target());
  ASSERT_TRUE(ev.is_ok());
  EXPECT_FALSE((*ev)->reduction_stats().has_value());
}

TEST(Report, FinalVariantReportTruncatesLongLists) {
  CampaignResult result;
  for (int i = 0; i < 80; ++i) {
    result.final_kinds["mod::var" + std::to_string(i)] = 8;
  }
  const std::string text = final_variant_report(result);
  EXPECT_NE(text.find("80/80"), std::string::npos);
  EXPECT_NE(text.find("... and 30 more"), std::string::npos);
}

TEST(Report, VariantsCsvHasOneRowPerVariant) {
  const SearchResult trace = toy_trace();
  const std::string csv = variants_csv(trace);
  const auto rows = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, trace.records.size() + 1);  // + header
}

/// A hand-built diagnosis with hostile names and non-finite numbers — the
/// worst case for both the HTML escaper and the JSON emitter.
CampaignDiagnosis hostile_diagnosis() {
  CampaignDiagnosis d;
  d.enabled = true;
  d.rejected = 3;
  d.diagnosed = 1;
  AtomCriticality a;
  a.qualified = "m::<p>::\"x\" & y";
  a.score = 0.8;
  a.fail_association = 1.0;
  a.max_rel_div = std::numeric_limits<double>::infinity();
  a.demoted_rejected = 2;
  a.demoted_total = 2;
  a.pivotal = 1;
  a.final64 = true;
  d.atoms.push_back(a);
  ProcCriticality p;
  p.qualified = "m::<script>alert(1)</script>";
  p.blame_share = 1.0;
  p.max_rel_div = std::numeric_limits<double>::quiet_NaN();
  p.cancellations = 4;
  d.procedures.push_back(p);
  BlameReport r;
  r.key = "48\"&<>";
  r.outcome = Outcome::kFail;
  r.max_rel_div = 1.5;
  r.has_first_divergence = true;
  r.first_divergence_proc = "m::<p>";
  r.first_divergence_instr = 7;
  r.fault_proc = "m::\"f\"";
  d.reports.push_back(r);
  return d;
}

TEST(HtmlReport, DiagnosisPageEscapesHostileNames) {
  const std::string html = diagnosis_html("diag <&\" title", hostile_diagnosis());
  // Raw injections must not survive: every `<`, `&`, and `"` from variant
  // keys, procedure names, and the title comes out entity-escaped.
  EXPECT_EQ(html.find("<script>"), std::string::npos);
  EXPECT_EQ(html.find("m::<p>"), std::string::npos);
  EXPECT_EQ(html.find("48\"&<>"), std::string::npos);
  EXPECT_NE(html.find("diag &lt;&amp;&quot; title"), std::string::npos);
  EXPECT_NE(html.find("m::&lt;script&gt;alert(1)&lt;/script&gt;"),
            std::string::npos);
  EXPECT_NE(html.find("m::&lt;p&gt;::&quot;x&quot; &amp; y"),
            std::string::npos);
  EXPECT_NE(html.find("48&quot;&amp;&lt;&gt;"), std::string::npos);
  // Well-formedness basics.
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("</html>"), std::string::npos);
}

TEST(Report, DiagnosisJsonRoundTripsThroughOwnParser) {
  const std::string doc = diagnosis_json("toy", hostile_diagnosis());
  auto parsed = json::parse(doc);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string() << "\n" << doc;
  const auto& v = parsed.value();
  EXPECT_EQ(v.find("model")->str_or(""), "toy");
  EXPECT_EQ(v.find("rejected")->int_or(0), 3);
  ASSERT_EQ(v.find("atoms")->items().size(), 1u);
  const auto& atom = v.find("atoms")->items()[0];
  EXPECT_EQ(atom.find("qualified")->str_or(""), "m::<p>::\"x\" & y");
  // Non-finite policy: +inf and NaN survive the emit→parse round trip.
  EXPECT_TRUE(std::isinf(atom.find("max_rel_div")->num_or(0)));
  const auto& proc = v.find("procedures")->items()[0];
  EXPECT_TRUE(std::isnan(proc.find("max_rel_div")->num_or(0)));
  const auto& variant = v.find("variants")->items()[0];
  EXPECT_EQ(variant.find("key")->str_or(""), "48\"&<>");
  EXPECT_EQ(variant.find("first_divergence_instr")->int_or(0), 7);

  // The schema readers of --diagnosis-out rely on: every key is present.
  for (const char* key :
       {"model", "rejected", "diagnosed", "atoms", "procedures", "variants"}) {
    EXPECT_NE(v.find(key), nullptr) << key;
  }
  EXPECT_EQ(v.find("variants")->items().size(),
            static_cast<std::size_t>(v.find("diagnosed")->int_or(0)));
  for (const char* key : {"qualified", "score", "fail_association", "max_rel_div",
                          "demoted_rejected", "demoted_total", "pivotal", "final64"}) {
    EXPECT_NE(atom.find(key), nullptr) << "atom " << key;
  }
  EXPECT_EQ(atom.find("score")->num_or(-1.0), 0.8);
  for (const char* key : {"qualified", "blame_share", "cancellations",
                          "control_divergences", "faults", "cast_cycles"}) {
    EXPECT_NE(proc.find(key), nullptr) << "procedure " << key;
  }
  for (const char* key : {"key", "outcome", "max_rel_div", "variables", "procedures"}) {
    EXPECT_NE(variant.find(key), nullptr) << "variant " << key;
  }
}

TEST(Report, DiagnosisReportListsRankingsAndSites) {
  CampaignResult result;
  result.summary.model = "toy";
  result.diagnosis = hostile_diagnosis();
  const std::string text = diagnosis_report(result);
  EXPECT_NE(text.find("3 distinct rejected variants"), std::string::npos);
  EXPECT_NE(text.find("variable criticality"), std::string::npos);
  EXPECT_NE(text.find("[pivotal x1]"), std::string::npos);
  EXPECT_NE(text.find("[kept 64-bit]"), std::string::npos);
  EXPECT_NE(text.find("procedure blame"), std::string::npos);
  EXPECT_NE(text.find("first divergence / fault sites"), std::string::npos);
  EXPECT_NE(text.find("div inf"), std::string::npos);

  CampaignResult off;
  EXPECT_NE(diagnosis_report(off).find("not requested"), std::string::npos);
}

}  // namespace
}  // namespace prose::tuner
