// Command-line precision tuner for a Fortran-subset source file — the shape
// of the paper's bespoke tool as a standalone utility.
//
// Usage:
//   tune_fortran_file --file model.f90 --entry mod::run --scope mod
//       [--hotspot mod::kernel] [--metric-var mod::out] [--threshold 1e-6]
//       [--algo dd|random|oat|brute] [--csv out.csv]
//
// Without --file it tunes a built-in demo kernel so the example always runs.
#include <fstream>
#include <iostream>
#include <sstream>

#include "ftn/transform.h"
#include "ftn/unparse.h"
#include "support/cli.h"
#include "tuner/evaluator.h"
#include "tuner/frontier.h"
#include "tuner/report.h"
#include "tuner/search.h"

using namespace prose;

namespace {

const char* kDemoSource = R"f(
module demo
  implicit none
  integer, parameter :: n = 512
  real(kind=8) :: xs(n)
  real(kind=8) :: weights(n)
  real(kind=8) :: accum
  real(kind=8) :: out_value
contains
  subroutine run()
    integer :: i, rep
    do i = 1, n
      xs(i) = 0.5d0 + 0.4d0 * sin(dble(i))
      weights(i) = 1.0d0 / (1.0d0 + dble(i) * 0.01d0)
    end do
    accum = 0.0d0
    do rep = 1, 8
      do i = 1, n
        accum = accum + weights(i) * sqrt(xs(i))
      end do
    end do
    out_value = accum
  end subroutine run
end module demo
)f";

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = CliFlags::parse_or_exit(
      argc, argv,
      {"file", "entry", "scope", "hotspot", "metric-var", "threshold",
       "noise-rsd", "algo", "samples", "seed", "csv"});

  tuner::TargetSpec spec;
  spec.name = "cli-target";
  const std::string file = flags.get_string("file", "");
  if (file.empty()) {
    std::cout << "(no --file given; tuning the built-in demo kernel)\n";
    spec.source = kDemoSource;
    spec.entry = "demo::run";
    spec.atom_scopes = {"demo"};
    spec.exclude_atoms = {"demo::out_value"};
    spec.hotspot_procs = {"demo::run"};
    spec.metric = [](const sim::Vm& vm) { return vm.get_scalar("demo::out_value"); };
    spec.measure_whole_model = true;
    spec.error_threshold = 1e-6;
  } else {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    spec.source = buffer.str();
    spec.entry = flags.get_string("entry", "");
    const std::string scope = flags.get_string("scope", "");
    if (spec.entry.empty() || scope.empty()) {
      std::cerr << "--entry module::proc and --scope module are required with --file\n";
      return 2;
    }
    spec.atom_scopes = {scope};
    const std::string hotspot = flags.get_string("hotspot", "");
    if (!hotspot.empty()) {
      spec.hotspot_procs = {hotspot};
    } else {
      spec.measure_whole_model = true;
    }
    const std::string metric_var = flags.get_string("metric-var", "");
    if (metric_var.empty()) {
      std::cerr << "--metric-var module::var is required with --file\n";
      return 2;
    }
    spec.metric = [metric_var](const sim::Vm& vm) { return vm.get_scalar(metric_var); };
    spec.error_threshold = flags.get_double("threshold", 1e-6);
  }
  spec.noise_rsd = flags.get_double("noise-rsd", 0.0);

  auto evaluator = tuner::Evaluator::create(spec);
  if (!evaluator.is_ok()) {
    std::cerr << "target rejected: " << evaluator.status().to_string() << "\n";
    return 1;
  }
  tuner::Evaluator& ev = *evaluator.value();
  std::cout << "atoms: " << ev.space().size() << ", baseline metric "
            << ev.baseline().metric << "\n";

  const std::string algo = flags.get_string("algo", "dd");
  tuner::SearchResult result;
  if (algo == "brute") {
    if (ev.space().size() > 16) {
      std::cerr << "brute force refused for " << ev.space().size() << " atoms\n";
      return 1;
    }
    result = tuner::brute_force_search(ev);
  } else if (algo == "random") {
    result = tuner::random_search(ev, flags.get_int("samples", 64),
                                  static_cast<std::uint64_t>(flags.get_int("seed", 7)));
  } else if (algo == "oat") {
    result = tuner::one_at_a_time_search(ev);
  } else {
    result = tuner::delta_debug_search(ev);
  }

  std::cout << "explored " << result.records.size() << " variants; best speedup "
            << result.best_speedup << "x"
            << (result.one_minimal ? " (1-minimal)" : "") << "\n";
  std::cout << tuner::variants_scatter(spec.name, result, spec.error_threshold);

  const auto frontier = tuner::optimal_frontier(result.records);
  std::cout << "optimal frontier:\n";
  for (const auto& p : frontier) {
    std::cout << "  variant " << p.variant_id << ": " << p.speedup << "x @ error "
              << p.error << "\n";
  }

  const std::string csv = flags.get_string("csv", "");
  if (!csv.empty()) {
    std::ofstream out(csv);
    out << tuner::variants_csv(result);
    std::cout << "wrote " << csv << "\n";
  }

  auto variant =
      ftn::make_variant(ev.pristine().program, ev.space().to_assignment(result.accepted));
  if (variant.is_ok()) {
    std::cout << "\naccepted variant diff:\n"
              << ftn::source_diff(ev.pristine().program, variant->program);
  }
  return 0;
}
