// Table II: summary metrics for the variants explored by the three
// delta-debugging campaigns (MPAS-A, ADCIRC, MOM6) on the simulated
// 20-node / 12-hour cluster with 3x-baseline per-variant timeouts, plus the
// MOM6 campaign rerun at a 5-hour budget to show the paper's cut-off search.
// Each campaign runs once with the shared bench options (--jobs, --trace-*,
// --diagnose); its results are bit-identical for any --jobs. Host timing of
// the campaigns lives in perfbench/ (python3 perfbench/run.py).
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "models/models.h"
#include "support/table.h"
#include "tuner/html_report.h"

using namespace prose;
using namespace prose::tuner;

namespace {

std::vector<std::string> csv_row(const CampaignSummary& s) {
  return {s.model, std::to_string(s.total), format_double(s.pass_pct, 1),
          format_double(s.fail_pct, 1), format_double(s.timeout_pct, 1),
          format_double(s.error_pct, 1), format_double(s.best_speedup, 3),
          s.finished ? "yes" : "no", format_double(s.wall_hours, 2)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto io = bench::BenchIo::from_args(argc, argv);
  bench::header("Table II — summary metrics for variants explored");

  struct PaperRow {
    const char* model;
    const char* total;
    const char* pass;
    const char* fail;
    const char* timeout;
    const char* error;
    const char* speedup;
  };
  const PaperRow paper[] = {
      {"MPAS-A", "48", "37.5%", "56.2%", "6.3%", "0%", "1.95x"},
      {"ADCIRC", "74", "36.4%", "33.8%", "0%", "29.7%", "1.12x"},
      {"MOM6", "858", "17.2%", "31.0%", "0%", "51.7%", "1.04x"},
  };

  TextTable table({"Model", "Total", "Pass", "Fail", "Timeout", "Error", "Speedup"});
  CsvWriter csv;
  csv.add_row({"model", "total", "pass_pct", "fail_pct", "timeout_pct", "error_pct",
               "best_speedup", "finished", "wall_hours"});

  std::vector<TargetSpec> specs = {models::mpas_target(), models::adcirc_target(),
                                   models::mom6_target()};
  std::vector<CampaignSummary> summaries;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::cout << "running " << specs[i].name << " campaign...\n";
    const CampaignResult result =
        bench::run_or_die(specs[i], io.campaign_options(specs[i].name));
    const CampaignSummary& s = result.summary;
    summaries.push_back(s);
    table.add_row({"paper " + std::string(paper[i].model), paper[i].total,
                   paper[i].pass, paper[i].fail, paper[i].timeout, paper[i].error,
                   paper[i].speedup});
    table.add_row(table2_row(s));
    csv.add_row(csv_row(s));
    std::cout << final_variant_report(result);
    if (io.diagnose) {
      std::cout << diagnosis_report(result);
      io.write_file("json", "diagnosis_" + s.model + ".json",
                    diagnosis_json(s.model, result.diagnosis));
      io.write_html("diagnosis_" + s.model + ".html",
                    diagnosis_html(s.model + " diagnosis", result.diagnosis));
    }
    std::cout << "  simulated wall time: " << format_double(s.wall_hours, 1)
              << " h (12 h budget); search "
              << (s.finished ? "reached 1-minimality" : "was cut off") << "\n\n";
  }

  // The paper's MOM6 search did not finish its 12 hours at 351 atoms; our
  // 33-atom mini needs ~7 h and finishes. Re-running with a reduced wall
  // budget demonstrates the same cutoff behavior — a search interrupted
  // mid-flight before reaching 1-minimality.
  {
    CampaignOptions scaled = io.campaign_options("MOM6-5h");
    scaled.cluster.wall_budget_seconds = 5.0 * 3600.0;
    scaled.diagnose = false;  // the 12 h MOM6 campaign already diagnosed
    std::cout << "running MOM6 campaign at a reduced (5 h) budget...\n";
    CampaignSummary s = bench::run_or_die(models::mom6_target(), scaled).summary;
    s.model = "MOM6 (5h budget)";
    table.add_row(table2_row(s));
    csv.add_row(csv_row(s));
    std::cout << "  search " << (s.finished ? "finished" : "was cut off mid-flight")
              << " after " << format_double(s.wall_hours, 2) << " h ("
              << s.total << " variants) — the paper's MOM6 outcome\n\n";
  }

  std::cout << table.to_string();
  io.write_csv("table2_campaigns.csv", csv.str());

  bench::header("Table II recap (shape checks)");
  bench::recap("MPAS-A best speedup", "1.95x",
               format_double(summaries[0].best_speedup, 2) + "x");
  bench::recap("ADCIRC best speedup", "1.12x",
               format_double(summaries[1].best_speedup, 2) + "x");
  bench::recap("MOM6 best speedup", "1.04x (negligible)",
               format_double(summaries[2].best_speedup, 2) + "x");
  bench::recap("MPAS-A runtime errors", "0%",
               format_double(summaries[0].error_pct, 1) + "%");
  bench::recap("ADCIRC has all three outcome classes", "yes",
               (summaries[1].fail_pct > 0 && summaries[1].error_pct > 0 ? "yes" : "NO"));
  bench::recap("MOM6 dominated by runtime errors", "51.7%",
               format_double(summaries[2].error_pct, 1) + "%");
  std::cout << "  note: totals scale with the mini-models' atom counts (paper models\n"
               "  have 445/468/351 atoms; see DESIGN.md and EXPERIMENTS.md).\n";
  return 0;
}
