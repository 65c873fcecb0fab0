// prose_top: a live terminal monitor for the observability subsystem.
//
// Two modes:
//   --http EP      poll a prose_served daemon's /metrics endpoint and render
//                  refreshing throughput / latency / cache panels plus a
//                  queue-depth timeline (support/ascii_plot);
//   --journal FILE read the opt-in {"type":"metrics"} footer of a finished
//                  campaign journal (campaign_* --metrics-footer) and print
//                  its counters and latency quantiles once.
//
// Flags: --http EP ("unix:/path", "tcp:host:port", or a bare path)
//        --fleet a.sock,b.sock,... (poll every daemon's stats frame over
//                  the eval socket — no --http listener needed — and render
//                  one row per shard: requests, hit rate, queue depth, and
//                  the degradation tallies, plus a fleet totals row)
//        --journal FILE (mutually exclusive with --http)
//        --interval SECONDS (poll period, default 2)
//        --frames N (stop after N polls; 0 = until the daemon goes away)
//        --once (single sample, no screen clearing — script-friendly)
//        --get PATH (raw probe: print "STATUS\nBODY" for one GET and exit
//                  with the status/100 — 2 for 200, 5 for 503. Lets
//                  scripts poll /healthz on unix sockets without curl.)
//        --lint FILE (promtool-style check of a saved exposition page:
//                  exit 0 on a clean page, 1 with the first problem on
//                  stderr — the in-repo scrape validator)
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/http.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "support/ascii_plot.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/table.h"

using namespace prose;

namespace {

std::string fmt_seconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.2fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fus", s * 1e6);
  }
  return buf;
}

std::string fmt_count(double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.3g", v);
  }
  return buf;
}

double series_value(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::SeriesSnapshot* s = snap.find(name);
  if (s == nullptr) return 0.0;
  return s->kind == obs::SeriesKind::kHistogram
             ? static_cast<double>(s->hist.count)
             : s->value;
}

/// "p50 1.2ms  p90 4.0ms  p99 9.1ms  (n=123)" for a histogram series, or ""
/// when the series is absent or empty.
std::string latency_line(const obs::MetricsSnapshot& snap,
                         const std::string& name) {
  const obs::SeriesSnapshot* s = snap.find(name);
  if (s == nullptr || s->kind != obs::SeriesKind::kHistogram ||
      s->hist.count == 0) {
    return "";
  }
  std::string out = "p50 " + fmt_seconds(s->hist.quantile(0.5));
  out += "  p90 " + fmt_seconds(s->hist.quantile(0.9));
  out += "  p99 " + fmt_seconds(s->hist.quantile(0.99));
  out += "  (n=" + std::to_string(s->hist.count) + ")";
  // Latency exemplar: the slowest bucket's trace id, straight from the
  // # EXEMPLAR exposition comments — paste it into the prose_trace output
  // to see that exact request's critical path.
  for (auto it = s->hist.exemplars.rbegin(); it != s->hist.exemplars.rend();
       ++it) {
    if (it->empty()) continue;
    out += "  slowest " + fmt_seconds(it->value) + " trace=" + it->label;
    break;
  }
  return out;
}

/// One rendered frame of the daemon dashboard. `prev` enables rate columns;
/// `depth_history` is the queue-depth timeline (newest last).
std::string render_daemon(const obs::MetricsSnapshot& snap,
                          const obs::MetricsSnapshot* prev, double interval,
                          const std::deque<double>& depth_history,
                          const std::string& endpoint, std::size_t frame) {
  const auto rate = [&](const std::string& name) -> std::string {
    if (prev == nullptr || interval <= 0.0) return "";
    const double d = series_value(snap, name) - series_value(*prev, name);
    char buf[32];
    std::snprintf(buf, sizeof buf, " (+%.0f/s)", d / interval);
    return buf;
  };
  std::string out = "prose_top — " + endpoint + "  frame " +
                    std::to_string(frame) + "\n\n";
  out += "  requests    " +
         fmt_count(series_value(snap, "prose_serve_requests_total")) +
         rate("prose_serve_requests_total");
  out += "   evals " +
         fmt_count(series_value(snap, "prose_serve_evals_total")) +
         rate("prose_serve_evals_total");
  const double hits = series_value(snap, "prose_serve_store_hits_total");
  const double reqs = series_value(snap, "prose_serve_requests_total");
  out += "   store hits " + fmt_count(hits) +
         rate("prose_serve_store_hits_total");
  if (reqs > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "  hit%% %.1f", 100.0 * hits / reqs);
    out += buf;
  }
  out += "\n";
  out += "  coalesced   " +
         fmt_count(series_value(snap, "prose_serve_coalesced_total"));
  out += "   busy " + fmt_count(series_value(snap, "prose_serve_busy_total"));
  out += "   aborts " +
         fmt_count(series_value(snap, "prose_serve_aborts_total"));
  out += "   bad frames " +
         fmt_count(series_value(snap, "prose_serve_bad_frames_total"));
  out += "\n";
  out += "  queue depth " +
         fmt_count(series_value(snap, "prose_serve_queue_depth"));
  out += "   pool active " +
         fmt_count(series_value(snap, "prose_pool_active_workers"));
  out += "   connections " +
         fmt_count(series_value(snap, "prose_serve_connections_total"));
  out += "   namespaces " +
         fmt_count(series_value(snap, "prose_serve_namespaces"));
  out += "   store " +
         fmt_count(series_value(snap, "prose_serve_store_bytes_total")) +
         " B\n\n";
  if (std::string l = latency_line(snap, "prose_serve_rpc_seconds");
      !l.empty()) {
    out += "  rpc latency   " + l + "\n";
  }
  if (std::string l = latency_line(snap, "prose_serve_eval_seconds");
      !l.empty()) {
    out += "  eval latency  " + l + "\n";
  }

  if (depth_history.size() >= 2) {
    AsciiScatter plot("queue depth (last " +
                          std::to_string(depth_history.size()) + " samples)",
                      "sample", "depth");
    plot.set_size(64, 10);
    std::size_t i = 0;
    for (const double d : depth_history) {
      plot.add_point(static_cast<double>(i++), d, '#');
    }
    plot.add_y_guide(0.0);
    out += "\n" + plot.render();
  }
  return out;
}

/// Campaign mode: print the last {"type":"metrics"} journal footer.
int show_journal(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "prose_top: cannot open journal '" << path << "'\n";
    return 1;
  }
  std::string footer;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"type\":\"metrics\"") != std::string::npos) footer = line;
  }
  if (footer.empty()) {
    std::cerr << "prose_top: no metrics footer in '" << path
              << "' (run the campaign with --metrics-footer)\n";
    return 1;
  }
  auto parsed = json::parse(footer);
  if (!parsed.is_ok()) {
    std::cerr << "prose_top: bad metrics footer: "
              << parsed.status().to_string() << "\n";
    return 1;
  }
  const json::Value* series = parsed->find("series");
  if (series == nullptr || !series->is_object()) {
    std::cerr << "prose_top: metrics footer has no series object\n";
    return 1;
  }
  std::cout << "campaign metrics — " << path << "\n\n";
  for (const auto& [name, value] : series->members()) {
    const double v = value.num_or(0.0);
    const bool is_latency = name.find("_seconds") != std::string::npos &&
                            name.rfind("_count") == std::string::npos;
    std::printf("  %-44s %s\n", name.c_str(),
                is_latency ? fmt_seconds(v).c_str() : fmt_count(v).c_str());
  }
  return 0;
}

/// "a.sock,b.sock" → {"a.sock","b.sock"}; whitespace and empties dropped.
std::vector<std::string> split_list(const std::string& arg) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : arg) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (c != ' ' && c != '\t') {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// One frame of the fleet dashboard: a stats frame per shard over its eval
/// socket (serve::query_stats — no /metrics listener required), one table
/// row per shard, dead shards included, plus a totals row.
std::string render_fleet(const std::vector<std::string>& endpoints,
                         std::size_t frame) {
  const auto field = [](const json::Value& v, const char* key) {
    const json::Value* f = v.find(key);
    return f == nullptr ? 0.0 : f->num_or(0.0);
  };
  TextTable table({"shard", "endpoint", "state", "requests", "evals", "hit%",
                   "queue", "busy", "aborts", "repl fail", "trace err"});
  double tot_requests = 0.0;
  double tot_evals = 0.0;
  double tot_hits = 0.0;
  std::size_t alive = 0;
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    auto body = serve::query_stats(endpoints[i], /*timeout_seconds=*/5.0);
    StatusOr<json::Value> stats = body.is_ok()
                                      ? json::parse(body.value())
                                      : StatusOr<json::Value>(body.status());
    if (!stats.is_ok()) {
      table.add_row({std::to_string(i), endpoints[i], "dead", "-", "-", "-",
                     "-", "-", "-", "-", "-"});
      continue;
    }
    ++alive;
    const double requests = field(*stats, "requests");
    const double hits = field(*stats, "store_hits");
    tot_requests += requests;
    tot_evals += field(*stats, "evals_executed");
    tot_hits += hits;
    char hitbuf[16] = "-";
    if (requests > 0.0) {
      std::snprintf(hitbuf, sizeof hitbuf, "%.1f", 100.0 * hits / requests);
    }
    table.add_row({std::to_string(i), endpoints[i], "up", fmt_count(requests),
                   fmt_count(field(*stats, "evals_executed")), hitbuf,
                   fmt_count(field(*stats, "queue_depth")),
                   fmt_count(field(*stats, "busy_rejections")),
                   fmt_count(field(*stats, "aborts")),
                   fmt_count(field(*stats, "repl_failed")),
                   fmt_count(field(*stats, "trace_write_errors"))});
  }
  char hitbuf[16] = "-";
  if (tot_requests > 0.0) {
    std::snprintf(hitbuf, sizeof hitbuf, "%.1f",
                  100.0 * tot_hits / tot_requests);
  }
  std::string out = "prose_top — fleet of " + std::to_string(endpoints.size()) +
                    " (" + std::to_string(alive) + " up)  frame " +
                    std::to_string(frame) + "\n\n" + table.to_string();
  out += "\n  fleet totals: requests " + fmt_count(tot_requests) + "  evals " +
         fmt_count(tot_evals) + "  store hits " + fmt_count(tot_hits) +
         (tot_requests > 0.0 ? "  hit% " + std::string(hitbuf) : "") + "\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = CliFlags::parse_or_exit(
      argc, argv,
      {"http", "fleet", "journal", "interval", "frames", "once", "get", "lint"});
  if (const std::string lint = flags.get_string("lint", ""); !lint.empty()) {
    std::ifstream in(lint);
    if (!in) {
      std::cerr << "prose_top: cannot open '" << lint << "'\n";
      return 2;
    }
    std::ostringstream page;
    page << in.rdbuf();
    std::string err;
    if (!obs::lint_prometheus(page.str(), &err)) {
      std::cerr << "prose_top: lint failed: " << err << "\n";
      return 1;
    }
    std::cout << "lint ok: " << lint << "\n";
    return 0;
  }
  const std::string journal = flags.get_string("journal", "");
  if (!journal.empty()) return show_journal(journal);

  if (const std::string fleet = flags.get_string("fleet", "");
      !fleet.empty()) {
    const std::vector<std::string> endpoints = split_list(fleet);
    if (endpoints.empty()) {
      std::cerr << "prose_top: --fleet needs at least one endpoint\n";
      return 2;
    }
    const bool fleet_once = flags.get_bool("once", false);
    const double fleet_interval = flags.get_double("interval", 2.0);
    const std::size_t fleet_frames =
        fleet_once ? 1
                   : static_cast<std::size_t>(flags.get_int("frames", 0));
    for (std::size_t frame = 1; fleet_frames == 0 || frame <= fleet_frames;
         ++frame) {
      if (!fleet_once) std::cout << "\x1b[2J\x1b[H";  // clear + home
      std::cout << render_fleet(endpoints, frame) << std::flush;
      if (fleet_frames != 0 && frame == fleet_frames) break;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(fleet_interval));
    }
    return 0;
  }

  const std::string endpoint = flags.get_string("http", "");
  if (endpoint.empty()) {
    std::cerr << "prose_top: need --http ENDPOINT, --fleet LIST, or "
                 "--journal FILE\n";
    return 2;
  }
  if (const std::string path = flags.get_string("get", ""); !path.empty()) {
    int status = 0;
    auto body = obs::http_get(endpoint, path, &status);
    if (!body.is_ok()) {
      std::cerr << "prose_top: " << body.status().to_string() << "\n";
      return 1;
    }
    std::cout << status << "\n" << body.value();
    return status / 100;
  }
  const bool once = flags.get_bool("once", false);
  const double interval = flags.get_double("interval", 2.0);
  const std::size_t frames = once
                                 ? 1
                                 : static_cast<std::size_t>(
                                       flags.get_int("frames", 0));

  obs::MetricsSnapshot prev;
  bool have_prev = false;
  std::deque<double> depth_history;
  for (std::size_t frame = 1; frames == 0 || frame <= frames; ++frame) {
    int status = 0;
    auto body = obs::http_get(endpoint, "/metrics", &status);
    if (!body.is_ok() || status != 200) {
      std::cerr << "prose_top: " << endpoint << " /metrics: "
                << (body.is_ok() ? "HTTP " + std::to_string(status)
                                 : body.status().to_string())
                << "\n";
      return frame == 1 ? 1 : 0;  // daemon went away mid-watch: normal exit
    }
    obs::MetricsSnapshot snap;
    std::string err;
    if (!obs::parse_prometheus(body.value(), &snap, &err)) {
      std::cerr << "prose_top: unparsable /metrics page: " << err << "\n";
      return 1;
    }
    depth_history.push_back(series_value(snap, "prose_serve_queue_depth"));
    while (depth_history.size() > 64) depth_history.pop_front();

    if (!once) std::cout << "\x1b[2J\x1b[H";  // clear + home
    std::cout << render_daemon(snap, have_prev ? &prev : nullptr, interval,
                               depth_history, endpoint, frame)
              << std::flush;
    prev = std::move(snap);
    have_prev = true;
    if (frames != 0 && frame == frames) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  return 0;
}
