// Numerical flight recorder walkthrough: run a tuning campaign on one of the
// paper's targets with the shadow-precision diagnosis on, and print the
// automated root-cause blame ranking — the analysis §V of the paper performs
// by hand (MOM6's flux-adjustment convergence loop, ITPACKV's adaptive
// acceleration parameter, MPAS-A's cast-dominated procedures).
//
// Flags: --model NAME (funarc | mpas | adcirc | mom6; default adcirc)
//        --hours H  --max-variants N  --jobs N
//        --max-diagnosed N (cap on shadow re-runs; default 64)
//        --diagnosis-out FILE (JSON export; FILE.html gets the standalone
//                  HTML diagnosis page alongside)
#include <fstream>
#include <iostream>

#include "models/models.h"
#include "support/cli.h"
#include "tuner/campaign.h"
#include "tuner/html_report.h"
#include "tuner/report.h"

using namespace prose;

int main(int argc, char** argv) {
  const CliFlags flags = CliFlags::parse_or_exit(
      argc, argv,
      {"model", "hours", "max-variants", "jobs", "max-diagnosed", "diagnosis-out"});

  const std::string model = flags.get_string("model", "adcirc");
  tuner::TargetSpec spec;
  if (model == "funarc") {
    spec = models::funarc_target();
  } else if (model == "mpas") {
    spec = models::mpas_target();
  } else if (model == "adcirc") {
    spec = models::adcirc_target();
  } else if (model == "mom6") {
    spec = models::mom6_target();
  } else {
    std::cerr << "unknown --model '" << model
              << "' (expected funarc | mpas | adcirc | mom6)\n";
    return 1;
  }

  tuner::CampaignOptions options;
  options.cluster.wall_budget_seconds = flags.get_double("hours", 12.0) * 3600.0;
  options.max_variants =
      static_cast<std::size_t>(flags.get_int("max-variants", 0));
  options.jobs = static_cast<std::size_t>(flags.get_int("jobs", 1));
  options.diagnose = true;
  options.max_diagnosed =
      static_cast<std::size_t>(flags.get_int("max-diagnosed", 64));
  const std::string diagnosis_out = flags.get_string("diagnosis-out", "");

  std::cout << "tuning " << spec.name << " with the numerical flight recorder on ("
            << options.cluster.wall_budget_seconds / 3600.0 << " h budget)...\n";
  auto result = tuner::run_campaign(spec, options);
  if (!result.is_ok()) {
    std::cerr << result.status().to_string() << "\n";
    return 1;
  }

  const tuner::CampaignSummary& s = result->summary;
  std::cout << "variants: " << s.total << "  pass " << s.pass_pct << "%  fail "
            << s.fail_pct << "%  timeout " << s.timeout_pct << "%  error "
            << s.error_pct << "%  best speedup " << s.best_speedup << "x\n\n"
            << tuner::final_variant_report(*result) << "\n"
            << tuner::diagnosis_report(*result);

  if (!diagnosis_out.empty()) {
    std::ofstream json(diagnosis_out);
    json << tuner::diagnosis_json(spec.name, result->diagnosis) << "\n";
    std::ofstream html(diagnosis_out + ".html");
    html << tuner::diagnosis_html(spec.name + " diagnosis", result->diagnosis);
    std::cout << "\nwrote " << diagnosis_out << " and " << diagnosis_out
              << ".html\n";
  }
  return 0;
}
