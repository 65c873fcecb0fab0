// prose_served: the tuning-as-a-service daemon.
//
// Owns one shared Evaluator per (target, noise, fault) namespace and a
// persistent content-addressed result store, and serves evaluation requests
// to any number of `campaign_* --server` clients over the PF01 protocol.
//
// Flags: --socket PATH | --endpoint EP ("unix:/path" or "tcp:host:port")
//        --store PATH (persistent result store; a file appends forever, a
//                  directory becomes a segmented store of rotating,
//                  crash-safe seg-NNNNNN.jsonl files; empty = memory-only)
//        --rotate-bytes N / --compact-segments N (segmented-store knobs:
//                  rotation threshold and the segment count that triggers
//                  startup compaction; 0 keeps the defaults)
//        --peers a.sock,b.sock,... (the whole fleet's endpoint list,
//                  verbatim and identical on every daemon, including this
//                  one's own --endpoint; empty = standalone)
//        --replicate R (make each result durable on its key's R first ring
//                  successors before answering; <= 1 disables)
//        --peer-timeout SECONDS (bound per replication write to a peer)
//        --jobs N (evaluation worker threads; 0 = hardware concurrency)
//        --queue N (admission-queue bound before `busy` rejections)
//        --retry-after SECONDS (hint carried in `busy` frames)
//        --trace-out FILE / --trace-jsonl FILE (flight recorder)
//        --http EP (metrics/health listener: GET /metrics Prometheus text,
//                  GET /healthz 200 serving / 503 draining; empty = off)
//        --drain-grace SECONDS (keep /healthz answering 503 this long
//                  after the drain, for orchestrator health pollers)
//
// SIGINT/SIGTERM drain gracefully: stop accepting, finish in-flight work,
// deliver responses, flush store and tracer, print stats, exit 0.
#include <signal.h>
#include <sys/stat.h>

#include <iostream>
#include <string>
#include <vector>

#include "models/models.h"
#include "serve/server.h"
#include "support/cli.h"

using namespace prose;

namespace {

StatusOr<tuner::TargetSpec> resolve_model(const std::string& model) {
  if (model == "funarc") return models::funarc_target();
  if (model == "MPAS-A") return models::mpas_target();
  if (model == "ADCIRC") return models::adcirc_target();
  if (model == "MOM6") return models::mom6_target();
  return Status(StatusCode::kNotFound,
                "unknown model '" + model +
                    "' (have: funarc, MPAS-A, ADCIRC, MOM6)");
}

/// --store DIR (existing directory or trailing '/') selects the segmented
/// store rooted there; anything else is a single append-forever file
/// (--store cache/store.jsonl still opens the legacy format-1 store).
void resolve_store(const std::string& arg, serve::ServerOptions* options) {
  options->store_path = arg;
  options->store_dir = false;
  if (arg.empty()) return;
  struct stat st {};
  const bool is_dir =
      (::stat(arg.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) ||
      arg.back() == '/';
  if (!is_dir) return;
  std::string dir = arg;
  while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
  options->store_path = dir;
  options->store_dir = true;  // open_dir creates it if missing
}

/// "a.sock,b.sock,c.sock" → {"a.sock", "b.sock", "c.sock"}, whitespace and
/// empty entries dropped. Entries must match the fleet's endpoint strings
/// verbatim — placement hashes them as-is.
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

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = CliFlags::parse_or_exit(
      argc, argv,
      {"socket", "endpoint", "store", "rotate-bytes", "compact-segments",
       "peers", "replicate", "peer-timeout", "jobs", "queue", "retry-after",
       "trace-out", "trace-jsonl", "http", "drain-grace"});

  serve::ServerOptions options;
  options.endpoint = flags.get_string("endpoint", "");
  if (options.endpoint.empty()) {
    options.endpoint = flags.get_string("socket", "/tmp/prose.sock");
  }
  resolve_store(flags.get_string("store", ""), &options);
  if (const int rotate = flags.get_int("rotate-bytes", 0); rotate > 0) {
    options.store_options.rotate_bytes = static_cast<std::size_t>(rotate);
  }
  if (const int compact = flags.get_int("compact-segments", 0);
      compact > 0) {
    options.store_options.compact_over_segments =
        static_cast<std::size_t>(compact);
  }
  options.peers = split_list(flags.get_string("peers", ""));
  options.replicate = static_cast<std::size_t>(flags.get_int("replicate", 2));
  options.peer_timeout_seconds = flags.get_double("peer-timeout", 5.0);
  options.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  options.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue", 256));
  options.retry_after_seconds = flags.get_double("retry-after", 0.05);
  options.trace.chrome_path = flags.get_string("trace-out", "");
  options.trace.jsonl_path = flags.get_string("trace-jsonl", "");
  options.http_endpoint = flags.get_string("http", "");
  options.drain_grace_seconds = flags.get_double("drain-grace", 0.0);

  // Block the shutdown signals before any thread exists so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  serve::Server server(options, resolve_model);
  if (Status s = server.start(); !s.is_ok()) {
    std::cerr << "prose_served: " << s.to_string() << "\n";
    return 1;
  }
  std::cout << "prose_served listening on " << options.endpoint
            << (options.store_path.empty()
                    ? std::string(" (memory-only store)")
                    : " store=" + options.store_path +
                          (options.store_dir ? " (segmented)" : ""));
  if (!options.peers.empty()) {
    std::cout << " fleet=" << options.peers.size()
              << " replicate=" << options.replicate;
  }
  if (!server.http_endpoint().empty()) {
    std::cout << " http=" << server.http_endpoint();
  }
  std::cout << "\n" << std::flush;

  int sig = 0;
  sigwait(&sigs, &sig);
  std::cout << "prose_served: caught "
            << (sig == SIGTERM ? "SIGTERM" : "SIGINT") << ", draining...\n"
            << std::flush;
  server.shutdown();
  server.wait();

  const serve::ServerStats st = server.stats();
  std::cout << "prose_served: drained. connections=" << st.connections
            << " requests=" << st.requests
            << " evals_executed=" << st.evals_executed
            << " store_hits=" << st.store_hits << " coalesced=" << st.coalesced
            << " busy=" << st.busy_rejections << " aborts=" << st.aborts
            << " puts_in=" << st.puts_in << " repl_sent=" << st.repl_sent
            << " repl_failed=" << st.repl_failed
            << " trace_write_errors=" << st.trace_write_errors
            << " namespaces=" << st.namespaces
            << " store_records=" << st.store_records
            << " store_segments=" << st.store_segments << "\n";
  return 0;
}
