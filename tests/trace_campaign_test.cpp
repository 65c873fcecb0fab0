// End-to-end flight-recorder tests: a traced funarc campaign, serial or
// parallel, must produce both sinks with the expected event families and
// VM dispatch counters that add up, and tracing must never change
// the simulated results — a traced campaign and an untraced one are
// bit-identical.
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/funarc.h"
#include "sim/vm.h"
#include "support/json.h"
#include "support/trace.h"
#include "tuner/campaign.h"

namespace prose::tuner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

CampaignOptions small_cluster() {
  CampaignOptions options;
  options.cluster.nodes = 4;
  return options;
}

TEST(TraceCampaign, ProducesBothSinksWithExpectedEventFamilies) {
  // Serial and parallel: concurrent workers must still leave valid sinks.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const std::string stem = std::string(::testing::TempDir()) + "/funarc.j" +
                             std::to_string(jobs) + ".trace";
    CampaignOptions options = small_cluster();
    options.jobs = jobs;
    options.trace.chrome_path = stem + ".json";
    options.trace.jsonl_path = stem + ".jsonl";

    auto result = run_campaign(models::funarc_target(), options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    ASSERT_GT(result->summary.total, 0u);

    // Chrome sink: one valid trace-event document with spans, node slices,
    // counters, and named tracks.
    const std::string doc = slurp(options.trace.chrome_path);
    ASSERT_FALSE(doc.empty());
    std::string err;
    ASSERT_TRUE(trace::validate_json(doc, &err)) << err;
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);  // cluster node slices
    EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);  // variant spans
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);  // counters
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(doc.find("node 0"), std::string::npos);
    EXPECT_NE(doc.find("cluster-sim"), std::string::npos);
    EXPECT_NE(doc.find("tuning-pipeline"), std::string::npos);

    // JSONL sink: every line is valid JSON; the event families from all
    // instrumented layers are present.
    const std::string log = slurp(options.trace.jsonl_path);
    ASSERT_FALSE(log.empty());
    std::istringstream ss(log);
    std::string line;
    std::size_t n = 0;
    bool saw_variant = false, saw_dd = false, saw_gptl = false, saw_vm = false,
         saw_outcome = false, saw_summary = false;
    std::map<std::string, double> vm_totals;  // summed vm/* counter samples
    while (std::getline(ss, line)) {
      if (line.empty()) continue;
      ++n;
      auto event = json::parse(line);
      ASSERT_TRUE(event.is_ok()) << line << ": " << event.status().to_string();
      ASSERT_NE(event->find("name"), nullptr) << line;
      ASSERT_NE(event->find("ph"), nullptr) << line;
      const std::string name = event->find("name")->str_or("");
      if (name == "variant") saw_variant = true;
      if (name.starts_with("dd/")) saw_dd = true;
      if (name.starts_with("gptl/")) saw_gptl = true;
      if (name.starts_with("vm/")) {
        saw_vm = true;
        if (event->find("ph")->str_or("") == "C") {
          const json::Value* args = event->find("args");
          ASSERT_TRUE(args != nullptr && args->find("value") != nullptr) << line;
          vm_totals[name] += args->find("value")->num_or(0.0);
        }
      }
      if (line.find("\"outcome\":") != std::string::npos) saw_outcome = true;
      if (name == "campaign/summary") saw_summary = true;
    }
    EXPECT_GT(n, 10u);
    EXPECT_TRUE(saw_variant);
    EXPECT_TRUE(saw_dd);
    EXPECT_TRUE(saw_gptl);
    EXPECT_TRUE(saw_vm);
    EXPECT_TRUE(saw_outcome);
    EXPECT_TRUE(saw_summary);

    // The VM dispatch counters add up: the nine superinstruction families
    // sum to the fused pairs, each pair covers two instructions, and fused
    // pairs never cover more than was executed.
    double family_total = 0.0;
    for (const char* family : {"loop-cond-jmp", "inc-jmp", "cmp-jmp", "cast-mov",
                               "cast-store", "load-arith", "arith-store",
                               "const-arith", "load-const"}) {
      const std::string counter = std::string("vm/fused/") + family;
      EXPECT_TRUE(vm_totals.contains(counter)) << counter;
      family_total += vm_totals[counter];
    }
    const double pairs = vm_totals["vm/fused/pairs"];
    const double covered = vm_totals["vm/fused/covered"];
    EXPECT_EQ(family_total, pairs);
    EXPECT_EQ(covered, 2.0 * pairs);
    EXPECT_GT(vm_totals["vm/instructions"], 0.0);
    EXPECT_LE(covered, vm_totals["vm/instructions"]);
    if (sim::Vm::default_dispatch() == sim::VmDispatch::kThreaded) {
      EXPECT_GT(pairs, 0.0) << "the threaded engine never fused a pair";
    }
  }
}

TEST(TraceCampaign, TracingIsBitIdenticalToUntraced) {
  const auto spec = models::funarc_target();

  auto plain = run_campaign(spec, small_cluster());
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();

  CampaignOptions traced_options = small_cluster();
  traced_options.trace.chrome_path =
      std::string(::testing::TempDir()) + "/bitident.trace.json";
  traced_options.trace.jsonl_path =
      std::string(::testing::TempDir()) + "/bitident.trace.jsonl";
  auto traced = run_campaign(spec, traced_options);
  ASSERT_TRUE(traced.is_ok()) << traced.status().to_string();

  // Exact comparisons on purpose: the flight recorder must not perturb a
  // single simulated cycle or scheduling decision.
  EXPECT_EQ(plain->summary.total, traced->summary.total);
  EXPECT_EQ(plain->summary.best_speedup, traced->summary.best_speedup);
  EXPECT_EQ(plain->summary.wall_hours, traced->summary.wall_hours);
  EXPECT_EQ(plain->summary.pass_pct, traced->summary.pass_pct);
  EXPECT_EQ(plain->summary.finished, traced->summary.finished);
  ASSERT_EQ(plain->search.records.size(), traced->search.records.size());
  for (std::size_t i = 0; i < plain->search.records.size(); ++i) {
    const auto& a = plain->search.records[i];
    const auto& b = traced->search.records[i];
    EXPECT_EQ(a.config.key(), b.config.key()) << "variant " << i;
    EXPECT_EQ(a.eval.outcome, b.eval.outcome) << "variant " << i;
    EXPECT_EQ(a.eval.measured_cycles, b.eval.measured_cycles) << "variant " << i;
    EXPECT_EQ(a.eval.speedup, b.eval.speedup) << "variant " << i;
    EXPECT_EQ(a.eval.node_seconds, b.eval.node_seconds) << "variant " << i;
  }
  EXPECT_EQ(plain->final_kinds, traced->final_kinds);
}

TEST(TraceCampaign, UnwritableSinkFailsLoudly) {
  CampaignOptions options = small_cluster();
  options.trace.jsonl_path = "/nonexistent-dir-zzz/x.jsonl";
  auto result = run_campaign(models::funarc_target(), options);
  EXPECT_FALSE(result.is_ok());

  CampaignOptions chrome_options = small_cluster();
  chrome_options.trace.chrome_path = "/nonexistent-dir-zzz/x.json";
  auto chrome_result = run_campaign(models::funarc_target(), chrome_options);
  EXPECT_FALSE(chrome_result.is_ok());
}

}  // namespace
}  // namespace prose::tuner
