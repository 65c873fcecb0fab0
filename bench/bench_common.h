// Shared helpers for the reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper: it runs
// the relevant experiment on the simulated substrate, prints the series in
// the paper's shape (ASCII table/scatter), writes the raw data as CSV next
// to the binary (or under --outdir), and prints a PAPER vs MEASURED recap.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "support/cli.h"
#include "support/strings.h"
#include "support/trace.h"
#include "tuner/campaign.h"
#include "tuner/report.h"

namespace prose::bench {

struct BenchIo {
  std::string outdir = "bench_out";
  bool quick = false;  // reduced scale for smoke runs
  /// Host worker threads for variant evaluation (--jobs=N; 1 = serial,
  /// 0 = hardware concurrency). Campaign results are bit-identical for any
  /// value — jobs only changes host wall-clock time.
  std::size_t jobs = 1;
  /// Flight-recorder sinks (--trace-out=<chrome.json>, --trace-jsonl=<log>);
  /// empty = tracing off. Benches that run several campaigns tag the paths
  /// per campaign via trace_options(tag).
  std::string trace_out;
  std::string trace_jsonl;
  /// Numerical flight recorder (--diagnose): shadow re-run each campaign's
  /// rejected variants and report the root-cause blame ranking. Pure
  /// observer — the campaign numbers are bit-identical either way.
  bool diagnose = false;

  /// Parses the shared bench flags. A malformed or unknown flag, or a
  /// positional argument, prints what was wrong and exits with status 2: a
  /// bench must never quietly run a configuration other than the one asked.
  static BenchIo from_args(int argc, char** argv) {
    const CliFlags flags = CliFlags::parse_or_exit(
        argc, argv, {"outdir", "quick", "jobs", "trace-out", "trace-jsonl", "diagnose"});
    BenchIo io;
    io.outdir = flags.get_string("outdir", "bench_out");
    io.quick = flags.get_bool("quick", false);
    io.jobs = static_cast<std::size_t>(flags.get_int("jobs", 1));
    io.trace_out = flags.get_string("trace-out", "");
    io.trace_jsonl = flags.get_string("trace-jsonl", "");
    io.diagnose = flags.get_bool("diagnose", false);
    std::error_code ec;
    std::filesystem::create_directories(io.outdir, ec);  // best effort
    return io;
  }

  /// Inserts ".<tag>" before the final extension ("campaign.trace.json" +
  /// "MPAS-A" → "campaign.trace.MPAS-A.json") so multi-campaign benches
  /// write one trace pair per campaign instead of overwriting one file.
  static std::string tagged_path(const std::string& path, const std::string& tag) {
    if (path.empty() || tag.empty()) return path;
    std::string safe = tag;
    for (char& c : safe) {
      if (c == '/' || c == '\\' || c == ' ') c = '-';
    }
    const std::size_t slash = path.find_last_of("/\\");
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
      return path + "." + safe;
    }
    return path.substr(0, dot) + "." + safe + path.substr(dot);
  }

  [[nodiscard]] trace::TraceOptions trace_options(const std::string& tag = "") const {
    trace::TraceOptions t;
    t.chrome_path = tagged_path(trace_out, tag);
    t.jsonl_path = tagged_path(trace_jsonl, tag);
    return t;
  }

  /// CampaignOptions carrying the shared bench knobs (--jobs, --trace-*,
  /// --diagnose).
  [[nodiscard]] tuner::CampaignOptions campaign_options(
      const std::string& tag = "") const {
    tuner::CampaignOptions options;
    options.jobs = jobs;
    options.trace = trace_options(tag);
    options.diagnose = diagnose;
    return options;
  }

  void write_file(const std::string& tag, const std::string& name,
                  const std::string& content) const {
    const std::string path = outdir + "/" + name;
    std::ofstream f(path);
    if (f) {
      f << content;
      std::cout << "[" << tag << "] wrote " << path << "\n";
    } else {
      std::cout << "[" << tag << "] could not write " << path << " (skipped)\n";
    }
  }

  void write_csv(const std::string& name, const std::string& content) const {
    write_file("csv", name, content);
  }

  /// HTML counterpart of the paper artifact's interactive visualizations.
  void write_html(const std::string& name, const std::string& content) const {
    write_file("html", name, content);
  }
};

inline void header(const std::string& title) {
  std::cout << "\n" << std::string(74, '=') << "\n" << title << "\n"
            << std::string(74, '=') << "\n";
}

/// "paper: X | measured: Y" recap line.
inline void recap(const std::string& what, const std::string& paper,
                  const std::string& measured) {
  std::cout << "  " << pad_right(what, 44) << " paper: " << pad_right(paper, 12)
            << " measured: " << measured << "\n";
}

/// Runs a campaign and prints its Table II row; exits the process on failure
/// (benches must be loud about broken substrates).
inline tuner::CampaignResult run_or_die(const tuner::TargetSpec& spec,
                                        const tuner::CampaignOptions& options = {}) {
  auto result = tuner::run_campaign(spec, options);
  if (!result.is_ok()) {
    std::cerr << "campaign failed for " << spec.name << ": "
              << result.status().to_string() << "\n";
    std::exit(1);
  }
  return std::move(result.value());
}

}  // namespace prose::bench
