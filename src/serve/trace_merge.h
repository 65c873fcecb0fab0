// Fleet trace merging: one Perfetto timeline from a traced campaign.
//
// A traced fleet run produces N+1 Chrome trace files — the client campaign's
// (campaign_* --trace-out) and one per daemon (prose_served --trace-out) —
// each on its own steady clock with its own epoch. merge_traces() folds them
// into a single valid Chrome/Perfetto JSON document:
//
//   * every shard's events move to a distinct pid block (shard k keeps its
//     internal pid layout, offset by 100·(k+1)), with process_name metadata
//     naming the shard, so Perfetto renders the fleet as one process lane
//     per daemon under the client's timeline;
//   * shard timestamps shift onto the client clock using the serve/clock
//     instants the client emitted at hello (offset = server trace clock
//     minus client trace clock at the hello midpoint; the hello RTT bounds
//     the estimate's error);
//   * the client's serve/flow flow-start events and the shards' flow-end
//     events keep their deterministic shared ids, so Perfetto draws an
//     arrow from every request transmission (primary, busy resend, hedge,
//     failover) to the admission that handled it.
//
// On top of the merged document the merger reconstructs per-request critical
// paths: each client/request span is matched to the serve/request span that
// handled it (by trace-id, confirmed by flow-id derivation — the server span
// id is a pure function of the client's flow id, see TraceContext), and the
// server-side queue / execute / store / replicate child spans are summed
// into a breakdown the prose_trace tool prints and the tests assert against.
//
// Pure observability, pure read side: inputs are files a finished run left
// behind; nothing here touches the wire or the campaign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"

namespace prose::serve {

/// One shard's trace file. `endpoint` is optional: when set it must match
/// the endpoint string in the client's serve/clock instants (how clock
/// offsets are paired); when empty the shard is paired positionally (file i
/// ↔ clock sample with shard index i, or the sole sample when one shard
/// served the run).
struct TraceShardInput {
  std::string path;
  std::string endpoint;
};

/// Critical-path breakdown of one client request. Times are µs on the
/// merged (client) timeline; component sums can disagree with client_us by
/// up to the clock-offset error (bounded by the hello RTT) plus genuine
/// wire/serialization time.
struct RequestBreakdown {
  std::string trace_hex;  ///< 32-hex trace id (namespace ⊕ content key)
  std::string result;     ///< client-side close result (ok, hedge_win, ...)
  int shard = -1;         ///< shard input index that answered (-1 = none found)
  bool flow_linked = false;  ///< server span id derives from a client flow id
  double begin_us = 0.0;     ///< client-side request begin
  double client_us = 0.0;    ///< client-observed latency
  double server_us = 0.0;    ///< serve/request span (admission → answer)
  double queue_us = 0.0;     ///< serve/queue (admission queue wait)
  double execute_us = 0.0;   ///< serve/execute (VM / evaluator work)
  double store_us = 0.0;     ///< serve/store (lookup + insert)
  double replicate_us = 0.0;  ///< serve/replicate (peer durability writes)
};

struct TraceMergeResult {
  /// The merged Chrome trace document (validated JSON, Perfetto-loadable).
  std::string merged_json;

  std::size_t client_events = 0;
  std::size_t shard_events = 0;
  /// serve/flow transmissions the client started, and how many a shard
  /// admitted (unlinked flows are transmissions that died with their shard).
  std::size_t flows_started = 0;
  std::size_t flows_linked = 0;
  /// client/request spans, and how many were flow-linked to a serve/request.
  std::size_t requests = 0;
  std::size_t requests_linked = 0;

  /// Per shard input: the clock shift applied (client = server − offset) and
  /// whether it came from a real serve/clock sample (false ⇒ 0 was assumed
  /// and a warning was recorded).
  std::vector<double> shard_offset_us;
  std::vector<bool> shard_offset_known;

  std::vector<std::string> warnings;
  /// One entry per client/request span, in client begin order.
  std::vector<RequestBreakdown> requests_detail;
};

/// Merges the client trace with any number of shard traces. Fails on
/// unreadable or non-trace JSON inputs; degraded linkage (missing clock
/// samples, unmatched flows) is reported in warnings/counters, not an error.
StatusOr<TraceMergeResult> merge_traces(
    const std::string& client_path, const std::vector<TraceShardInput>& shards);

/// Renders the slowest `top_n` requests as a markdown table: total latency
/// against the server-side queue/execute/store/replicate components and the
/// residual wire+client time.
std::string critical_path_table(const TraceMergeResult& result,
                                std::size_t top_n = 20);

}  // namespace prose::serve
