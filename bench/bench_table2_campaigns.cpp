// Table II: summary metrics for the variants explored by the three
// delta-debugging campaigns (MPAS-A, ADCIRC, MOM6) on the simulated
// 20-node / 12-hour cluster with 3x-baseline per-variant timeouts.
//
// Each campaign is run twice — serial (jobs=1) and parallel (jobs=4, or
// --jobs when > 1) — and the host wall-clock seconds of both runs plus the
// parallel speedup land in BENCH_parallel_eval.json. The Table II numbers
// come from the serial run; the parallel run must (and is checked to)
// reproduce them bit-identically.
// A chaos leg re-runs the MPAS-A campaign with the write-ahead journal and
// deterministic fault injection on, emulates a mid-campaign crash by
// truncating the journal at half its variant records, resumes from the
// truncated journal, and verifies the resumed search is bit-identical. The
// measured overheads and the recovery ratio land in
// BENCH_chaos_campaigns.json.
// A served leg runs the MPAS-A campaign against an in-process evaluation
// daemon (serve/server.h) twice — once against a cold result store, once
// against the warm store a restarted daemon reloads — and verifies both are
// bit-identical to the local run while the warm pass executes (nearly) no
// evaluations. Evals executed, store-served counts, and wall times land in
// BENCH_served_cache.json.
// A fleet leg runs the MPAS-A campaign against a 3-shard replicated fleet
// (R=2, segmented stores) with one shard hard-killed mid-run, then a warm
// rerun against the two survivors; both must be bit-identical to local and
// the warm pass must be served from the surviving replicas. Wall times,
// failover tallies, and the warm served fraction land in BENCH_fleet.json.
// A metrics leg times every Table II campaign with the observability
// registry off and on (best of 3 interleaved reps), verifies the searches
// are bit-identical either way, and lands the relative overhead in
// BENCH_metrics_overhead.json. Target: <= 2% on the hot path.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "models/models.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "tuner/html_report.h"
#include "tuner/journal.h"

using namespace prose;
using namespace prose::tuner;

namespace {

struct TimedRun {
  CampaignResult result;
  double seconds = 0.0;
};

TimedRun timed_run(const TargetSpec& spec, CampaignOptions options,
                   std::size_t jobs) {
  options.jobs = jobs;
  const auto t0 = std::chrono::steady_clock::now();
  TimedRun run;
  run.result = bench::run_or_die(spec, options);
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return run;
}

/// The determinism contract, spot-checked on the bench path: a parallel run
/// must reproduce the serial SearchResult exactly.
bool same_search(const SearchResult& a, const SearchResult& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    if (!(a.records[i].config == b.records[i].config)) return false;
    if (a.records[i].eval.speedup != b.records[i].eval.speedup) return false;
    if (a.records[i].eval.outcome != b.records[i].eval.outcome) return false;
  }
  return a.accepted == b.accepted && a.best == b.best &&
         a.best_speedup == b.best_speedup && a.cache_hits == b.cache_hits;
}

struct ParallelEvalRow {
  std::string model;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  bool identical = false;
};

std::string parallel_eval_json(const std::vector<ParallelEvalRow>& rows,
                               std::size_t jobs) {
  std::string out = "{\n";
  out += "  \"parallel_jobs\": " + std::to_string(jobs) + ",\n";
  out += "  \"host_hardware_threads\": " +
         std::to_string(ThreadPool::hardware_workers()) + ",\n";
  out += "  \"campaigns\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const double speedup =
        r.parallel_seconds > 0.0 ? r.serial_seconds / r.parallel_seconds : 0.0;
    out += "    {\"model\": \"" + r.model + "\", \"serial_seconds\": " +
           format_double(r.serial_seconds, 4) + ", \"parallel_seconds\": " +
           format_double(r.parallel_seconds, 4) + ", \"speedup\": " +
           format_double(speedup, 3) + ", \"identical_results\": " +
           (r.identical ? "true" : "false") + "}";
    out += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

/// Copies the journal at `path` to `out`, keeping the header and only the
/// first `keep_variants` variant records — the byte pattern a SIGKILL
/// mid-campaign leaves behind (modulo the batch markers, which resume
/// ignores).
std::size_t truncate_journal(const std::string& path, const std::string& out,
                             std::size_t keep_variants) {
  std::ifstream in(path);
  std::ofstream trimmed(out, std::ios::out | std::ios::trunc);
  std::string line;
  std::size_t kept = 0;
  while (std::getline(in, line)) {
    const bool is_variant = line.find("\"type\":\"variant\"") != std::string::npos;
    if (is_variant && kept >= keep_variants) break;
    trimmed << line << '\n';
    if (is_variant) ++kept;
  }
  return kept;
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

  // Host worker threads for the parallel leg of each campaign (the serial
  // leg always runs jobs=1). Results are bit-identical either way.
  const std::size_t parallel_jobs = io.jobs > 1 ? io.jobs : 4;
  std::vector<ParallelEvalRow> timing;

  std::vector<TargetSpec> specs = {models::mpas_target(), models::adcirc_target(),
                                   models::mom6_target()};
  std::vector<CampaignSummary> summaries;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::cout << "running " << specs[i].name << " campaign (serial, then jobs="
              << parallel_jobs << ")...\n";
    CampaignOptions options;
    options.trace = io.trace_options(specs[i].name);
    options.diagnose = io.diagnose;
    const auto serial = timed_run(specs[i], options, 1);
    // Time the parallel leg without tracing so it measures evaluation alone.
    const auto parallel = timed_run(specs[i], CampaignOptions{}, parallel_jobs);
    timing.push_back({specs[i].name, serial.seconds, parallel.seconds,
                      same_search(serial.result.search, parallel.result.search)});
    const auto& result = serial.result;
    const CampaignSummary& s = result.summary;
    summaries.push_back(s);
    table.add_row({"paper " + std::string(paper[i].model), paper[i].total,
                   paper[i].pass, paper[i].fail, paper[i].timeout, paper[i].error,
                   paper[i].speedup});
    table.add_row(table2_row(s));
    csv.add_row({s.model, std::to_string(s.total), format_double(s.pass_pct, 1),
                 format_double(s.fail_pct, 1), format_double(s.timeout_pct, 1),
                 format_double(s.error_pct, 1), format_double(s.best_speedup, 3),
                 s.finished ? "yes" : "no", format_double(s.wall_hours, 2)});
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
    CampaignOptions scaled;
    scaled.cluster.wall_budget_seconds = 5.0 * 3600.0;
    scaled.trace = io.trace_options("MOM6-5h");
    std::cout << "running MOM6 campaign at a reduced (5 h) budget...\n";
    const auto serial = timed_run(models::mom6_target(), scaled, 1);
    CampaignOptions scaled_parallel;
    scaled_parallel.cluster.wall_budget_seconds = 5.0 * 3600.0;
    const auto parallel =
        timed_run(models::mom6_target(), scaled_parallel, parallel_jobs);
    timing.push_back({"MOM6-5h", serial.seconds, parallel.seconds,
                      same_search(serial.result.search, parallel.result.search)});
    const auto& result = serial.result;
    CampaignSummary s = result.summary;
    s.model = "MOM6 (5h budget)";
    table.add_row(table2_row(s));
    csv.add_row({s.model, std::to_string(s.total), format_double(s.pass_pct, 1),
                 format_double(s.fail_pct, 1), format_double(s.timeout_pct, 1),
                 format_double(s.error_pct, 1), format_double(s.best_speedup, 3),
                 s.finished ? "yes" : "no", format_double(s.wall_hours, 2)});
    std::cout << "  search " << (s.finished ? "finished" : "was cut off mid-flight")
              << " after " << format_double(s.wall_hours, 2) << " h ("
              << s.total << " variants) — the paper's MOM6 outcome\n\n";
  }

  std::cout << table.to_string();
  io.write_csv("table2_campaigns.csv", csv.str());
  io.write_file("json", "BENCH_parallel_eval.json",
                parallel_eval_json(timing, parallel_jobs));
  for (const auto& r : timing) {
    const double speedup =
        r.parallel_seconds > 0.0 ? r.serial_seconds / r.parallel_seconds : 0.0;
    std::cout << "  parallel eval " << pad_right(r.model, 10) << " serial "
              << format_double(r.serial_seconds, 2) << " s -> jobs="
              << parallel_jobs << " " << format_double(r.parallel_seconds, 2)
              << " s (" << format_double(speedup, 2) << "x, results "
              << (r.identical ? "identical" : "DIVERGED") << ")\n";
  }

  // --- Chaos leg: journaling + fault-injection overhead and crash recovery.
  // The MPAS-A campaign is run (a) bare, (b) with the write-ahead journal,
  // (c) with journal + injected faults; then the journal from (c) is
  // truncated at half its variant records — the state a SIGKILL would have
  // left — and the campaign resumed from it. The resumed search must be
  // bit-identical to (c)'s.
  {
    bench::header("Chaos — journaling / fault-injection overhead and recovery");
    const TargetSpec spec = models::mpas_target();
    const std::string journal_path = io.outdir + "/chaos_mpas.journal.jsonl";
    const std::string cut_path = io.outdir + "/chaos_mpas.journal.cut.jsonl";
    const char* kFaults =
        "compile:p=0.02;transient:p=0.05;straggler:p=0.03,slow=4x;"
        "node_crash:node=7,at=3600s";

    std::cout << "running MPAS-A bare / journaled / faulted / resumed...\n";
    const auto base = timed_run(spec, CampaignOptions{}, 1);

    CampaignOptions journaled;
    journaled.journal_path = journal_path;
    const auto with_journal = timed_run(spec, journaled, 1);

    CampaignOptions faulted = journaled;
    faulted.fault_spec = kFaults;
    const auto with_faults = timed_run(spec, faulted, 1);

    const auto loaded = tuner::Journal::load(journal_path);
    const std::size_t total_variants =
        loaded.is_ok() ? loaded.value().variants.size() : 0;
    // Crash emulation: keep half of the faulted run's journal, then resume
    // from the cut copy with identical options.
    truncate_journal(journal_path, cut_path, total_variants / 2);
    CampaignOptions resumed_opts = faulted;
    resumed_opts.journal_path = cut_path;
    resumed_opts.resume = true;
    const auto resumed = timed_run(spec, resumed_opts, 1);

    const bool identical =
        same_search(with_faults.result.search, resumed.result.search) &&
        with_faults.result.final_kinds == resumed.result.final_kinds;
    const double journal_overhead =
        base.seconds > 0.0 ? with_journal.seconds / base.seconds : 0.0;
    const double faults_overhead =
        base.seconds > 0.0 ? with_faults.seconds / base.seconds : 0.0;
    const double recovery_ratio =
        with_faults.result.search.records.size() > 0
            ? static_cast<double>(resumed.result.replayed_from_journal) /
                  static_cast<double>(with_faults.result.search.records.size())
            : 0.0;

    std::string json = "{\n";
    json += "  \"model\": \"" + spec.name + "\",\n";
    json += "  \"fault_spec\": \"" + std::string(kFaults) + "\",\n";
    json += "  \"base_seconds\": " + format_double(base.seconds, 4) + ",\n";
    json += "  \"journal_seconds\": " + format_double(with_journal.seconds, 4) + ",\n";
    json += "  \"journal_overhead\": " + format_double(journal_overhead, 3) + ",\n";
    json += "  \"faults_seconds\": " + format_double(with_faults.seconds, 4) + ",\n";
    json += "  \"faults_overhead\": " + format_double(faults_overhead, 3) + ",\n";
    json += "  \"journaled_variants\": " + std::to_string(total_variants) + ",\n";
    json += "  \"lost_pct\": " +
            format_double(with_faults.result.summary.lost_pct, 2) + ",\n";
    json += "  \"resume_seconds\": " + format_double(resumed.seconds, 4) + ",\n";
    json += "  \"replayed_from_journal\": " +
            std::to_string(resumed.result.replayed_from_journal) + ",\n";
    json += "  \"recovery_ratio\": " + format_double(recovery_ratio, 3) + ",\n";
    json += std::string("  \"identical_after_resume\": ") +
            (identical ? "true" : "false") + "\n";
    json += "}\n";
    io.write_file("json", "BENCH_chaos_campaigns.json", json);

    std::cout << "  journal overhead " << format_double(journal_overhead, 2)
              << "x, faults overhead " << format_double(faults_overhead, 2)
              << "x, recovery " << format_double(100.0 * recovery_ratio, 1)
              << "% replayed, resume "
              << (identical ? "bit-identical" : "DIVERGED") << "\n";
  }

  // --- Served leg: tuning-as-a-service, cold store vs warm store.
  // The same MPAS-A campaign offloaded to an in-process daemon: the cold
  // pass executes every variant and persists it; a *restarted* daemon over
  // the same store then serves the warm pass from disk. Both passes must be
  // bit-identical to the local run.
  {
    bench::header("Served — evaluation daemon, cold vs warm result store");
    const TargetSpec spec = models::mpas_target();
    // Unix socket paths are length-limited (~107 bytes), so the socket goes
    // under /tmp rather than the (possibly deep) outdir.
    const std::string sock =
        "/tmp/prose_bench_served_" + std::to_string(::getpid()) + ".sock";
    const std::string store = io.outdir + "/bench_served.store.jsonl";
    std::remove(store.c_str());

    const auto resolver =
        [](const std::string& model) -> StatusOr<TargetSpec> {
      if (model == "MPAS-A") return models::mpas_target();
      return Status(StatusCode::kNotFound, "unknown model '" + model + "'");
    };

    std::cout << "running MPAS-A local / served-cold / served-warm...\n";
    const auto local = timed_run(spec, CampaignOptions{}, 1);

    struct ServedLeg {
      TimedRun run;
      serve::ServerStats stats;
    };
    const auto served_leg = [&]() -> ServedLeg {
      serve::ServerOptions sopts;
      sopts.endpoint = sock;
      sopts.store_path = store;
      sopts.jobs = 4;
      serve::Server server(sopts, resolver);
      if (Status s = server.start(); !s.is_ok()) {
        std::cerr << "serve: " << s.to_string() << "\n";
        std::exit(1);
      }
      serve::ServeClient::Options copts;
      copts.endpoints = {sock};
      copts.model = spec.name;
      copts.target_digest = serve::target_digest(spec);
      auto client = serve::ServeClient::connect(copts);
      if (!client.is_ok()) {
        std::cerr << "serve: " << client.status().to_string() << "\n";
        std::exit(1);
      }
      CampaignOptions options;
      options.backend = client.value().get();
      options.jobs = 1;
      const auto t0 = std::chrono::steady_clock::now();
      ServedLeg leg;
      leg.run.result = bench::run_or_die(spec, options);
      leg.run.seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      leg.stats = server.stats();
      server.shutdown();
      server.wait();
      return leg;
    };
    const ServedLeg cold = served_leg();
    const ServedLeg warm = served_leg();  // fresh daemon, same store file

    const bool cold_identical =
        same_search(local.result.search, cold.run.result.search);
    const bool warm_identical =
        same_search(local.result.search, warm.run.result.search);
    const double warm_served_fraction =
        warm.stats.requests > 0
            ? static_cast<double>(warm.stats.store_hits) /
                  static_cast<double>(warm.stats.requests)
            : 0.0;

    std::string json = "{\n";
    json += "  \"model\": \"" + spec.name + "\",\n";
    json += "  \"local_seconds\": " + format_double(local.seconds, 4) + ",\n";
    json += "  \"cold\": {\"wall_seconds\": " +
            format_double(cold.run.seconds, 4) +
            ", \"requests\": " + std::to_string(cold.stats.requests) +
            ", \"evals_executed\": " +
            std::to_string(cold.stats.evals_executed) +
            ", \"store_served\": " + std::to_string(cold.stats.store_hits) +
            ", \"identical_to_local\": " +
            (cold_identical ? "true" : "false") + "},\n";
    json += "  \"warm\": {\"wall_seconds\": " +
            format_double(warm.run.seconds, 4) +
            ", \"requests\": " + std::to_string(warm.stats.requests) +
            ", \"evals_executed\": " +
            std::to_string(warm.stats.evals_executed) +
            ", \"store_served\": " + std::to_string(warm.stats.store_hits) +
            ", \"identical_to_local\": " +
            (warm_identical ? "true" : "false") + "},\n";
    json += "  \"warm_served_fraction\": " +
            format_double(warm_served_fraction, 4) + ",\n";
    json += "  \"store_records\": " + std::to_string(warm.stats.store_records) +
            "\n";
    json += "}\n";
    io.write_file("json", "BENCH_served_cache.json", json);

    std::cout << "  cold: " << cold.stats.evals_executed << " evals executed, "
              << format_double(cold.run.seconds, 2) << " s ("
              << (cold_identical ? "identical" : "DIVERGED") << ")\n"
              << "  warm: " << warm.stats.evals_executed
              << " evals executed, " << warm.stats.store_hits
              << " store-served, " << format_double(warm.run.seconds, 2)
              << " s (" << (warm_identical ? "identical" : "DIVERGED")
              << ", " << format_double(100.0 * warm_served_fraction, 1)
              << "% served)\n";
  }

  // --- Fleet leg: sharded, replicated serving under a mid-run SIGKILL.
  // The MPAS-A campaign runs against a 3-shard fleet (replication R=2,
  // segmented stores); one shard is hard-killed as soon as it has served
  // real work. The search must stay bit-identical to the local run, and a
  // warm rerun against the two survivors must be served from their replicas
  // without executing anything.
  {
    bench::header("Fleet — 3 shards, one killed mid-run, warm failover rerun");
    const TargetSpec spec = models::mpas_target();
    const auto resolver =
        [](const std::string& model) -> StatusOr<TargetSpec> {
      if (model == "MPAS-A") return models::mpas_target();
      return Status(StatusCode::kNotFound, "unknown model '" + model + "'");
    };
    const std::string base =
        "/tmp/prose_bench_fleet_" + std::to_string(::getpid());
    std::vector<std::string> endpoints, stores;
    for (int i = 0; i < 3; ++i) {
      endpoints.push_back(base + "_" + std::to_string(i) + ".sock");
      stores.push_back(io.outdir + "/bench_fleet_store" + std::to_string(i));
    }
    const auto make_shard = [&](std::size_t i) {
      serve::ServerOptions sopts;
      sopts.endpoint = endpoints[i];
      sopts.store_path = stores[i];
      sopts.store_dir = true;
      sopts.peers = endpoints;
      sopts.replicate = 2;
      sopts.jobs = 2;
      auto server = std::make_unique<serve::Server>(sopts, resolver);
      if (Status s = server->start(); !s.is_ok()) {
        std::cerr << "fleet: " << s.to_string() << "\n";
        std::exit(1);
      }
      return server;
    };
    const auto fleet_run = [&](std::vector<std::unique_ptr<serve::Server>>&
                                   shards,
                               bool kill_one) {
      serve::ServeClient::Options copts;
      copts.endpoints = endpoints;
      copts.model = spec.name;
      copts.target_digest = serve::target_digest(spec);
      copts.connect_timeout_seconds = 2.0;
      auto client = serve::ServeClient::connect(copts);
      if (!client.is_ok()) {
        std::cerr << "fleet: " << client.status().to_string() << "\n";
        std::exit(1);
      }
      std::atomic<bool> stop{false};
      std::thread killer([&] {
        while (kill_one && !stop.load()) {
          if (shards[2] != nullptr && shards[2]->stats().requests >= 2) {
            shards[2]->hard_kill();
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
      CampaignOptions options;
      options.backend = client.value().get();
      options.jobs = 1;
      const auto t0 = std::chrono::steady_clock::now();
      TimedRun run;
      run.result = bench::run_or_die(spec, options);
      run.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      stop.store(true);
      killer.join();
      return std::make_pair(std::move(run), client.value()->counters());
    };

    std::cout << "running MPAS-A local / fleet-cold (one shard killed) / "
                 "fleet-warm (two survivors)...\n";
    const auto local = timed_run(spec, CampaignOptions{}, 1);

    std::vector<std::unique_ptr<serve::Server>> shards;
    for (std::size_t i = 0; i < 3; ++i) shards.push_back(make_shard(i));
    auto [cold_run, cold_counters] = fleet_run(shards, /*kill_one=*/true);
    shards[2]->hard_kill();  // in case the killer never saw enough traffic
    std::uint64_t cold_evals = 0;
    for (const auto& s : shards) cold_evals += s->stats().evals_executed;
    for (auto& s : shards) {
      s->shutdown();
      s->wait();
    }

    // Warm rerun: only the survivors restart (slot 2 stays dead); every
    // result must come from their stores, R=2 guarantees coverage.
    shards.clear();
    shards.push_back(make_shard(0));
    shards.push_back(make_shard(1));
    shards.push_back(nullptr);
    auto [warm_run, warm_counters] = fleet_run(shards, /*kill_one=*/false);
    std::uint64_t warm_evals = 0, warm_hits = 0, warm_requests = 0;
    for (const auto& s : shards) {
      if (s == nullptr) continue;
      warm_evals += s->stats().evals_executed;
      warm_hits += s->stats().store_hits;
      warm_requests += s->stats().requests;
    }
    for (auto& s : shards) {
      if (s == nullptr) continue;
      s->shutdown();
      s->wait();
    }

    const bool cold_identical =
        same_search(local.result.search, cold_run.result.search);
    const bool warm_identical =
        same_search(local.result.search, warm_run.result.search);
    const double warm_served_fraction =
        warm_requests > 0 ? static_cast<double>(warm_hits) /
                                static_cast<double>(warm_requests)
                          : 0.0;

    std::string json = "{\n";
    json += "  \"model\": \"" + spec.name + "\",\n";
    json += "  \"shards\": 3,\n  \"replicate\": 2,\n";
    json += "  \"local_seconds\": " + format_double(local.seconds, 4) + ",\n";
    json += "  \"cold\": {\"wall_seconds\": " +
            format_double(cold_run.seconds, 4) +
            ", \"evals_executed\": " + std::to_string(cold_evals) +
            ", \"failovers\": " + std::to_string(cold_counters.failovers) +
            ", \"shards_lost\": " + std::to_string(cold_counters.shards_lost) +
            ", \"identical_to_local\": " +
            (cold_identical ? "true" : "false") + "},\n";
    json += "  \"warm\": {\"wall_seconds\": " +
            format_double(warm_run.seconds, 4) +
            ", \"evals_executed\": " + std::to_string(warm_evals) +
            ", \"store_served\": " + std::to_string(warm_hits) +
            ", \"identical_to_local\": " +
            (warm_identical ? "true" : "false") + "},\n";
    json += "  \"warm_served_fraction\": " +
            format_double(warm_served_fraction, 4) + "\n";
    json += "}\n";
    io.write_file("json", "BENCH_fleet.json", json);

    std::cout << "  cold (shard 2 killed mid-run): "
              << format_double(cold_run.seconds, 2) << " s, "
              << cold_counters.shards_lost << " shard lost, "
              << cold_counters.failovers << " failovers ("
              << (cold_identical ? "identical" : "DIVERGED") << ")\n"
              << "  warm (2 survivors): " << warm_evals
              << " evals executed, " << warm_hits << " store-served, "
              << format_double(warm_run.seconds, 2) << " s ("
              << (warm_identical ? "identical" : "DIVERGED") << ", "
              << format_double(100.0 * warm_served_fraction, 1)
              << "% served)\n";
  }

  // --- Metrics leg: observability overhead on the evaluation hot path.
  // Each Table II campaign runs with the metrics registry disabled and
  // enabled, interleaved off/on for 5 reps. The legs are serial (jobs=1),
  // so process CPU time — not wall-clock, which scheduler preemption on a
  // shared host perturbs by far more than the 2% being resolved — is the
  // timing; the overhead estimator is the *median of the paired per-rep
  // ratios*, so a slow ambient drift cancels inside each off/on pair and a
  // perturbed rep cannot drag the estimate. The searches must be
  // bit-identical: the registry observes the clock, it never feeds the
  // computation.
  {
    bench::header("Metrics — registry overhead, on vs off");
    constexpr int kReps = 5;
    const auto cpu_now = []() {
      struct timespec ts{};
      ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
    };
    struct OverheadRow {
      std::string model;
      double off_seconds = 0.0;  // fastest rep per side
      double on_seconds = 0.0;
      double overhead = 0.0;  // median(on_i / off_i) - 1
      std::size_t series = 0;
      bool identical = false;
    };
    std::vector<OverheadRow> rows;
    std::cout << "running MPAS-A / ADCIRC / MOM6 with metrics off and on ("
              << kReps << " interleaved reps each, CPU time)...\n";
    for (const auto& spec : specs) {
      OverheadRow row;
      row.model = spec.name;
      CampaignResult off_result, on_result;
      std::vector<double> ratios;
      for (int rep = 0; rep < kReps; ++rep) {
        CampaignOptions off_opts;
        off_opts.metrics = false;
        double t0 = cpu_now();
        off_result = bench::run_or_die(spec, off_opts);
        const double off_cpu = cpu_now() - t0;
        CampaignOptions on_opts;
        on_opts.metrics = true;
        t0 = cpu_now();
        on_result = bench::run_or_die(spec, on_opts);
        const double on_cpu = cpu_now() - t0;
        if (rep == 0 || off_cpu < row.off_seconds) row.off_seconds = off_cpu;
        if (rep == 0 || on_cpu < row.on_seconds) row.on_seconds = on_cpu;
        if (off_cpu > 0.0) ratios.push_back(on_cpu / off_cpu);
      }
      std::sort(ratios.begin(), ratios.end());
      row.overhead = ratios.empty() ? 0.0 : ratios[ratios.size() / 2] - 1.0;
      row.series = on_result.summary.metrics.series.size();
      row.identical = same_search(off_result.search, on_result.search);
      rows.push_back(row);
    }

    double off_total = 0.0, weighted = 0.0;
    bool all_identical = true;
    std::string json = "{\n  \"reps\": " + std::to_string(kReps) +
                       ",\n  \"campaigns\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      off_total += r.off_seconds;
      weighted += r.off_seconds * r.overhead;
      all_identical = all_identical && r.identical;
      json += "    {\"model\": \"" + r.model + "\", \"off_cpu_seconds\": " +
              format_double(r.off_seconds, 4) + ", \"on_cpu_seconds\": " +
              format_double(r.on_seconds, 4) + ", \"overhead\": " +
              format_double(r.overhead, 4) + ", \"series\": " +
              std::to_string(r.series) + ", \"identical_results\": " +
              (r.identical ? "true" : "false") + "}";
      json += (i + 1 < rows.size()) ? ",\n" : "\n";
      std::cout << "  " << pad_right(r.model, 10) << " off "
                << format_double(r.off_seconds, 3) << " s -> on "
                << format_double(r.on_seconds, 3) << " s ("
                << format_double(100.0 * r.overhead, 2) << "% overhead, "
                << r.series << " series, results "
                << (r.identical ? "identical" : "DIVERGED") << ")\n";
    }
    // Campaign-weighted mean of the per-model median overheads.
    const double total_overhead = off_total > 0.0 ? weighted / off_total : 0.0;
    json += "  ],\n  \"total_off_cpu_seconds\": " + format_double(off_total, 4) +
            ",\n  \"total_overhead\": " + format_double(total_overhead, 4) +
            ",\n  \"overhead_target\": 0.02,\n  \"identical_results\": " +
            (all_identical ? "true" : "false") + "\n}\n";
    io.write_file("json", "BENCH_metrics_overhead.json", json);
    std::cout << "  total overhead " << format_double(100.0 * total_overhead, 2)
              << "% (target <= 2%), results "
              << (all_identical ? "bit-identical" : "DIVERGED") << "\n";
  }

  // --- Trace leg: distributed-tracing overhead on a fleet campaign.
  // The MPAS-A campaign runs against a fresh in-process 3-shard fleet
  // (memory-only stores, so every rep evaluates cold) untraced and fully
  // traced — client sink, one sink per shard, a context on every wire
  // frame — interleaved off/on for 5 reps. Same estimator discipline as
  // the metrics leg: serial client, process CPU time (client and shards
  // share the process, so this is the whole fleet's CPU), overhead =
  // median of the paired per-rep ratios. The searches must be
  // bit-identical: tracing observes, it never feeds back.
  {
    bench::header("Tracing — fleet campaign, traced vs untraced");
    constexpr int kReps = 5;
    const auto cpu_now = []() {
      struct timespec ts{};
      ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
    };
    const TargetSpec spec = models::mpas_target();
    const auto resolver =
        [](const std::string& model) -> StatusOr<TargetSpec> {
      if (model == "MPAS-A") return models::mpas_target();
      return Status(StatusCode::kNotFound, "unknown model '" + model + "'");
    };
    const std::string base =
        "/tmp/prose_bench_trace_" + std::to_string(::getpid());
    std::vector<std::string> endpoints;
    for (int i = 0; i < 3; ++i) {
      endpoints.push_back(base + "_" + std::to_string(i) + ".sock");
    }
    const auto run_fleet = [&](bool traced) {
      std::vector<std::unique_ptr<serve::Server>> shards;
      for (std::size_t i = 0; i < endpoints.size(); ++i) {
        serve::ServerOptions sopts;
        sopts.endpoint = endpoints[i];
        sopts.peers = endpoints;
        sopts.replicate = 2;
        sopts.jobs = 2;
        if (traced) {
          sopts.trace.chrome_path =
              io.outdir + "/bench_trace_shard" + std::to_string(i) + ".json";
        }
        auto server = std::make_unique<serve::Server>(sopts, resolver);
        if (Status s = server->start(); !s.is_ok()) {
          std::cerr << "trace bench: " << s.to_string() << "\n";
          std::exit(1);
        }
        shards.push_back(std::move(server));
      }
      serve::ServeClient::Options copts;
      copts.endpoints = endpoints;
      copts.model = spec.name;
      copts.target_digest = serve::target_digest(spec);
      copts.connect_timeout_seconds = 2.0;
      auto client = serve::ServeClient::connect(copts);
      if (!client.is_ok()) {
        std::cerr << "trace bench: " << client.status().to_string() << "\n";
        std::exit(1);
      }
      CampaignOptions options;
      options.backend = client.value().get();
      options.jobs = 1;
      if (traced) {
        options.trace.chrome_path = io.outdir + "/bench_trace_client.json";
      }
      const double t0 = cpu_now();
      CampaignResult result = bench::run_or_die(spec, options);
      const double cpu = cpu_now() - t0;
      for (auto& s : shards) {
        s->shutdown();
        s->wait();
      }
      return std::make_pair(std::move(result), cpu);
    };

    std::cout << "running MPAS-A against a 3-shard fleet untraced and traced ("
              << kReps << " interleaved reps each, CPU time)...\n";
    double off_best = 0.0, on_best = 0.0;
    std::vector<double> ratios;
    CampaignResult off_result, on_result;
    for (int rep = 0; rep < kReps; ++rep) {
      auto [off_r, off_cpu] = run_fleet(/*traced=*/false);
      auto [on_r, on_cpu] = run_fleet(/*traced=*/true);
      off_result = std::move(off_r);
      on_result = std::move(on_r);
      if (rep == 0 || off_cpu < off_best) off_best = off_cpu;
      if (rep == 0 || on_cpu < on_best) on_best = on_cpu;
      if (off_cpu > 0.0) ratios.push_back(on_cpu / off_cpu);
    }
    std::sort(ratios.begin(), ratios.end());
    const double overhead = ratios.empty() ? 0.0 : ratios[ratios.size() / 2] - 1.0;
    const bool identical = same_search(off_result.search, on_result.search);

    std::string json = "{\n  \"model\": \"" + spec.name +
                       "\",\n  \"shards\": 3,\n  \"replicate\": 2,\n  \"reps\": " +
                       std::to_string(kReps) + ",\n  \"untraced_cpu_seconds\": " +
                       format_double(off_best, 4) + ",\n  \"traced_cpu_seconds\": " +
                       format_double(on_best, 4) + ",\n  \"overhead\": " +
                       format_double(overhead, 4) +
                       ",\n  \"overhead_target\": 0.05,\n  \"identical_results\": " +
                       (identical ? "true" : "false") + "\n}\n";
    io.write_file("json", "BENCH_trace_overhead.json", json);
    std::cout << "  untraced " << format_double(off_best, 3) << " s -> traced "
              << format_double(on_best, 3) << " s ("
              << format_double(100.0 * overhead, 2)
              << "% overhead, target <= 5%), results "
              << (identical ? "bit-identical" : "DIVERGED") << "\n";
  }

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
