// prose_trace: merge a traced fleet run into one Perfetto timeline.
//
// A traced campaign (campaign_* --server ... --trace-out client.json) plus
// its daemons (prose_served --trace-out shardN.json each) leave one Chrome
// trace per process, each on its own clock. This tool folds them into a
// single file Perfetto (ui.perfetto.dev) or chrome://tracing opens directly:
// shard events move to per-shard pid lanes, shard clocks shift onto the
// client timeline via the serve/clock samples taken at hello, and the
// deterministic flow ids draw an arrow from every request transmission to
// the shard admission that handled it. See serve/trace_merge.h.
//
// Usage:
//   prose_trace [flags] client.json [endpoint=]shard0.json [...]
//
// Shard files pair with clock samples positionally (file i ↔ ring shard i);
// prefix a file with its daemon's endpoint ("unix:/tmp/a.sock=a.json") when
// passing them out of ring order.
//
// Flags: --out FILE   write the merged trace (default merged_trace.json)
//        --top N      rows in the critical-path table (default 20)
//        --require-linked  exit 1 unless every client request is flow-linked
//                  to a server span and at least one request exists
//        --quiet      suppress the per-request table (summary only)
//
// Exit: 0 ok, 1 linkage check failed, 2 bad usage or unreadable input.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "serve/trace_merge.h"
#include "support/cli.h"

using namespace prose;

int main(int argc, char** argv) {
  const CliFlags flags = CliFlags::parse_or_exit(
      argc, argv, {"out", "top", "require-linked", "quiet"},
      /*positional_ok=*/true);
  std::vector<std::string> files = flags.positional();
  bool require_linked = flags.get_bool("require-linked", false);
  bool quiet = flags.get_bool("quiet", false);
  // CliFlags treats `--flag value` as an assignment, so a boolean flag
  // written right before the file list eats the client path. Recover it:
  // a "value" that is not a boolean literal is really the first positional.
  for (const char* name : {"require-linked", "quiet"}) {
    const std::string v = flags.get_string(name, "");
    if (!v.empty() && v != "true" && v != "false") {
      files.insert(files.begin(), v);
      (name == std::string("quiet") ? quiet : require_linked) = true;
    }
  }
  if (files.empty()) {
    std::cerr << "usage: prose_trace [--out FILE] [--top N] "
                 "[--require-linked] client.json [endpoint=]shard.json...\n";
    return 2;
  }
  const std::string client_path = files.front();
  std::vector<serve::TraceShardInput> shards;
  for (std::size_t i = 1; i < files.size(); ++i) {
    serve::TraceShardInput input;
    // "endpoint=path" names the shard's endpoint for clock pairing; a bare
    // path pairs positionally. Endpoints contain ':' (unix:/..., tcp:...),
    // paths contain '=' essentially never, so split on the first '='.
    if (const auto eq = files[i].find('='); eq != std::string::npos) {
      input.endpoint = files[i].substr(0, eq);
      input.path = files[i].substr(eq + 1);
    } else {
      input.path = files[i];
    }
    shards.push_back(std::move(input));
  }

  auto merged = serve::merge_traces(client_path, shards);
  if (!merged.is_ok()) {
    std::cerr << "prose_trace: " << merged.status().to_string() << "\n";
    return 2;
  }

  const std::string out_path =
      flags.get_string("out", "merged_trace.json");
  {
    std::ofstream out(out_path, std::ios::out | std::ios::trunc);
    out << merged->merged_json;
    if (!out) {
      std::cerr << "prose_trace: cannot write '" << out_path << "'\n";
      return 2;
    }
  }

  std::cout << "prose_trace: merged " << merged->client_events
            << " client + " << merged->shard_events << " shard events from "
            << shards.size() << " shard file"
            << (shards.size() == 1 ? "" : "s") << " -> " << out_path << "\n";
  for (std::size_t k = 0; k < shards.size(); ++k) {
    std::printf("  shard %zu: %s  clock offset %s%.0f us\n", k,
                shards[k].path.c_str(),
                merged->shard_offset_known[k] ? "" : "(assumed) ",
                merged->shard_offset_us[k]);
  }
  std::cout << "  flows: " << merged->flows_linked << "/"
            << merged->flows_started << " linked   requests: "
            << merged->requests_linked << "/" << merged->requests
            << " flow-linked\n";
  for (const std::string& w : merged->warnings) {
    std::cout << "  warning: " << w << "\n";
  }

  if (!quiet && !merged->requests_detail.empty()) {
    const auto top =
        static_cast<std::size_t>(flags.get_int("top", 20));
    std::cout << "\nslowest requests (critical path, client timeline):\n"
              << serve::critical_path_table(*merged, top);
  }

  if (require_linked) {
    if (merged->requests == 0) {
      std::cerr << "prose_trace: --require-linked: no client/request spans "
                   "in '" << client_path << "'\n";
      return 1;
    }
    if (merged->requests_linked < merged->requests) {
      std::cerr << "prose_trace: --require-linked: only "
                << merged->requests_linked << "/" << merged->requests
                << " requests flow-linked\n";
      return 1;
    }
  }
  return 0;
}
