// Full tuning campaign on the mini-MPAS-A model: the paper's §IV-B
// experiment as a library client. Runs the delta-debugging search on the
// simulated 20-node cluster, then reports the Table-II-style summary, the
// per-procedure Figure-6 data, and the final variant.
//
// Flags: --nodes N  --hours H  --max-variants N
//        --jobs N (host worker threads for variant evaluation; 1 = serial,
//                  0 = hardware concurrency; results are bit-identical)
//        --trace-out FILE (Perfetto/chrome://tracing timeline)
//        --trace-jsonl FILE (structured event log, one JSON object per line)
//        --faults SPEC (deterministic fault injection, e.g.
//                  "compile:p=0.02;transient:p=0.05;straggler:p=0.03,slow=4x;
//                   node_crash:node=7,at=3600s")
//        --fault-seed N  --retries N  --backoff SECONDS
//        --journal FILE (write-ahead journal: every evaluation fsync'd
//                  before the search sees it, enabling --resume)
//        --resume (replay FILE's evaluations; the resumed campaign is
//                  bit-identical to the uninterrupted one)
//        --kill-after N (chaos testing: SIGKILL self after the Nth journaled
//                  variant)
//        --diagnose (numerical flight recorder: shadow re-run the rejected
//                  variants and print the root-cause blame ranking; the
//                  campaign itself stays bit-identical)
//        --diagnosis-out FILE (write the diagnosis as JSON; FILE.html gets
//                  the standalone HTML page alongside)
//        --server ENDPOINT (offload evaluations to a prose_served daemon at
//                  "unix:/path", "tcp:host:port", or a bare socket path;
//                  results are bit-identical to a local run; the same
//                  client as --servers, with one shard)
//        --servers a.sock,b.sock,... (fleet mode: the daemons' --peers list
//                  verbatim; requests are sharded by content key with
//                  hedging and automatic failover — results stay
//                  bit-identical even when a shard dies mid-run)
//        --hedge-ms N (fleet: re-issue a request to the next replica after
//                  N ms without an answer; first reply wins; 0 = off)
//        --metrics-out FILE (dump the final registry snapshot as Prometheus
//                  text exposition)
//        --metrics-footer (append the opt-in {"type":"metrics"} journal
//                  footer; off by default because it carries wall-clock
//                  values)
//        --formats LIST (comma-separated precision lattice, e.g.
//                  "binary16,bfloat16,binary32,binary64" or "e5m10,4,8";
//                  binary64 is always included; omitting the flag keeps the
//                  legacy two-level campaign byte-for-byte)
//        --census-html FILE (with --formats: write the per-format census /
//                  cast-tally page as a standalone HTML file)
//        --model NAME (funarc | mpas; default mpas — the full campaign
//                  driver on the small motivating example, a fast target
//                  for journal, resume and serving runs)
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "models/funarc.h"
#include "models/mpas.h"
#include "obs/metrics.h"
#include "prec/format.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "support/cli.h"
#include "tuner/campaign.h"
#include "tuner/html_report.h"
#include "tuner/report.h"

using namespace prose;

namespace {

// SIGINT/SIGTERM request a graceful stop: the campaign finishes the batch in
// flight, journals it, flushes the tracer, and tears down normally — so an
// interrupted run is resumable instead of leaving torn sinks behind.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  const CliFlags flags = CliFlags::parse_or_exit(
      argc, argv,
      {"nodes", "hours", "max-variants", "jobs", "trace-out", "trace-jsonl",
       "faults", "fault-seed", "retries", "backoff", "journal", "resume",
       "kill-after", "diagnose", "diagnosis-out", "server", "servers",
       "hedge-ms", "metrics-out", "metrics-footer", "formats", "census-html",
       "model"});
  tuner::CampaignOptions options;
  options.cluster.nodes = static_cast<std::size_t>(flags.get_int("nodes", 20));
  options.cluster.wall_budget_seconds = flags.get_double("hours", 12.0) * 3600.0;
  options.max_variants =
      static_cast<std::size_t>(flags.get_int("max-variants", 0));
  options.jobs = static_cast<std::size_t>(flags.get_int("jobs", 1));
  options.trace.chrome_path = flags.get_string("trace-out", "");
  options.trace.jsonl_path = flags.get_string("trace-jsonl", "");
  options.fault_spec = flags.get_string("faults", "");
  options.fault_seed =
      static_cast<std::uint64_t>(flags.get_int("fault-seed", 2025));
  options.retry.max_attempts = flags.get_int("retries", 3);
  options.retry.backoff_seconds = flags.get_double("backoff", 30.0);
  options.journal_path = flags.get_string("journal", "");
  options.resume = flags.get_bool("resume", false);
  options.journal_kill_after =
      static_cast<std::size_t>(flags.get_int("kill-after", 0));
  options.diagnose =
      flags.get_bool("diagnose", false) || flags.has("diagnosis-out");
  options.metrics_footer = flags.get_bool("metrics-footer", false);
  const std::string formats_arg = flags.get_string("formats", "");
  if (!formats_arg.empty()) {
    std::string bad;
    options.formats = prec::parse_format_list(formats_arg, &bad);
    if (options.formats.empty()) {
      std::cerr << "--formats: unknown format '" << bad << "'\n";
      return 2;
    }
  }
  const std::string metrics_out = flags.get_string("metrics-out", "");
  const std::string diagnosis_out = flags.get_string("diagnosis-out", "");
  const std::string census_html = flags.get_string("census-html", "");
  const std::string server_endpoint = flags.get_string("server", "");
  const std::string servers_arg = flags.get_string("servers", "");
  const double hedge_ms = flags.get_double("hedge-ms", 0.0);
  std::vector<std::string> server_fleet;
  {
    std::string cur;
    for (const char c : servers_arg + ",") {
      if (c == ',') {
        if (!cur.empty()) server_fleet.push_back(cur);
        cur.clear();
      } else if (c != ' ' && c != '\t') {
        cur.push_back(c);
      }
    }
  }

  const std::string model = flags.get_string("model", "mpas");
  if (model != "mpas" && model != "funarc") {
    std::cerr << "--model must be mpas or funarc (got '" << model << "')\n";
    return 2;
  }
  const tuner::TargetSpec spec =
      model == "funarc" ? models::funarc_target() : models::mpas_target();
  options.stop = &g_stop;
  // The digest (and the served-mode hello) must describe the spec the
  // campaign will actually run: --formats overlays the lattice the same way
  // run_campaign does before evaluating anything.
  tuner::TargetSpec digest_spec = spec;
  if (!options.formats.empty()) digest_spec.formats = options.formats;

  std::unique_ptr<serve::ServeClient> server_client;
  if (!server_endpoint.empty() || !server_fleet.empty()) {
    serve::ServeClient::Options copts;
    // --server X is a fleet of one; --servers wins when both are given.
    copts.endpoints =
        server_fleet.empty() ? std::vector<std::string>{server_endpoint}
                             : server_fleet;
    copts.model = spec.name;
    copts.noise_seed = options.noise_seed;
    copts.fault_spec = options.fault_spec;
    copts.fault_seed = options.fault_seed;
    copts.retry_max_attempts = options.retry.max_attempts;
    copts.retry_backoff_seconds = options.retry.backoff_seconds;
    copts.target_digest = serve::target_digest(digest_spec);
    copts.hedge_after_seconds = hedge_ms / 1000.0;
    if (!options.formats.empty()) {
      copts.formats = prec::format_list_name(options.formats);
    }
    auto client = serve::ServeClient::connect(copts);
    if (!client.is_ok()) {
      std::cerr << "cannot reach evaluation server"
                << (server_fleet.empty()
                        ? " at " + server_endpoint
                        : " fleet (" + servers_arg + ")")
                << ": " << client.status().to_string() << "\n";
      return 2;
    }
    server_client = std::move(client.value());
    options.backend = server_client.get();
    if (server_fleet.empty()) {
      std::cout << "server: " << server_endpoint << " namespace "
                << server_client->namespace_hex() << "\n";
    } else {
      std::cout << "server: fleet of " << server_fleet.size() << " shards ("
                << server_client->alive_shards() << " alive) namespace "
                << server_client->namespace_hex() << "\n";
    }
  }
  if (!options.formats.empty()) {
    std::cout << "formats: " << prec::format_list_name(options.formats)
              << "\n";
  }
  std::cout << "tuning " << spec.name << " on " << options.cluster.nodes
            << " simulated nodes, "
            << options.cluster.wall_budget_seconds / 3600.0 << " h budget ("
            << (options.jobs == 1 ? std::string("serial host evaluation")
                                  : "jobs=" + std::to_string(options.jobs))
            << ")...\n";

  auto result = tuner::run_campaign(spec, options);
  if (!result.is_ok()) {
    std::cerr << result.status().to_string() << "\n";
    return 1;
  }

  const tuner::CampaignSummary& s = result->summary;
  std::cout << "\nvariants: " << s.total << "  pass " << s.pass_pct << "%  fail "
            << s.fail_pct << "%  timeout " << s.timeout_pct << "%  error "
            << s.error_pct << "%  lost " << s.lost_pct << "%\n"
            << "best hotspot speedup: " << s.best_speedup << "x\n"
            << "simulated wall time: " << s.wall_hours << " h ("
            << (s.finished ? "finished — 1-minimal" : "budget exhausted") << ")\n\n";
  if (!s.trace_error.empty()) {
    std::cerr << "trace sink degraded: " << s.trace_error << "\n";
  }
  if (!s.journal_error.empty()) {
    std::cerr << "journal degraded: " << s.journal_error << "\n";
  }

  std::cout << tuner::variants_scatter(spec.name + " hotspot variants",
                                       result->search, spec.error_threshold);
  std::cout << "\nper-procedure variants (Figure 6 data):\n"
            << tuner::figure6_csv(result->figure6);
  std::cout << "\n" << tuner::final_variant_report(*result);
  if (!options.formats.empty()) {
    std::cout << "\n" << tuner::format_census_report(*result);
    if (!census_html.empty()) {
      std::ofstream html(census_html);
      html << tuner::format_census_html(spec.name + " format census",
                                        *result);
      std::cout << "census: wrote " << census_html << "\n";
    }
  }
  if (!options.trace.chrome_path.empty()) {
    std::cout << "\nwrote trace timeline: " << options.trace.chrome_path
              << " (load in ui.perfetto.dev or chrome://tracing)\n";
  }
  if (!options.trace.jsonl_path.empty()) {
    std::cout << "wrote trace event log: " << options.trace.jsonl_path << "\n";
  }
  // "server-stats|"-prefixed line so scripts can read warm-store hit rates
  // without parsing the human-readable report.
  if (server_client != nullptr) {
    auto stats = server_client->stats_json();
    if (stats.is_ok()) {
      std::cout << "server-stats| " << stats.value() << "\n";
    } else {
      std::cerr << "server stats unavailable: " << stats.status().to_string()
                << "\n";
    }
    // "server"-prefixed (stripped when comparing outputs): degradation tallies
    // are transport-dependent, not part of what the campaign measured.
    std::cout << "server-degradation| fallbacks=" << s.fallbacks
              << " busy_retries=" << s.busy_retries << " hedges=" << s.hedges
              << " hedge_wins=" << s.hedge_wins
              << " failovers=" << s.failovers
              << " shards_lost=" << s.shards_lost
              << " busy_backoff_s=" << s.busy_backoff_seconds << "\n";
    std::cout << "server-fleet| " << server_client->fleet_stats_json()
              << "\n";
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    out << obs::to_prometheus(s.metrics);
    std::cout << "metrics: wrote " << metrics_out << " ("
              << s.metrics.series.size() << " series)\n";
  }
  if (g_stop.load(std::memory_order_relaxed)) {
    std::cerr << "campaign interrupted by signal — sinks flushed; "
              << "rerun with --resume to continue\n";
  }
  // "journal"-prefixed lines so crash/resume harnesses can diff the rest of
  // the output against an uninterrupted reference run.
  if (!options.journal_path.empty()) {
    std::cout << "journal: " << options.journal_path
              << (options.resume ? " (resumed, " : " (fresh, ")
              << result->replayed_from_journal << " evaluations replayed)\n";
  }
  // "diag|"-prefixed lines so a diagnosed run compares against an
  // undiagnosed reference once the diagnosis is stripped.
  if (options.diagnose) {
    std::istringstream lines(tuner::diagnosis_report(*result));
    for (std::string line; std::getline(lines, line);) {
      std::cout << "diag| " << line << "\n";
    }
    if (!diagnosis_out.empty()) {
      std::ofstream json(diagnosis_out);
      json << tuner::diagnosis_json(spec.name, result->diagnosis) << "\n";
      std::ofstream html(diagnosis_out + ".html");
      html << tuner::diagnosis_html(spec.name + " diagnosis",
                                    result->diagnosis);
      std::cout << "diag| wrote " << diagnosis_out << " and " << diagnosis_out
                << ".html\n";
    }
  }
  return 0;
}
