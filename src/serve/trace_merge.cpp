#include "serve/trace_merge.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "support/json.h"
#include "support/table.h"
#include "support/trace.h"
#include "tuner/eval_codec.h"

namespace prose::serve {

namespace {

/// Salt pinning serve/request span ids to flow ids — must match
/// TraceContext::server_span_id() and the unit-span salt in server.cpp.
constexpr std::uint64_t kServerSpanSalt = 0x5e57e5u;
constexpr std::uint64_t kUnitSpanSalt = 0xd15;
/// Shard k's events land on pids 100·(k+1) + original pid.
constexpr int kShardPidStride = 100;

StatusOr<json::Value> load_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) {
    return Status(StatusCode::kNotFound,
                  "cannot open trace file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto doc = json::parse(text.str());
  if (!doc.is_ok()) {
    return Status(StatusCode::kInvalidArgument,
                  "'" + path + "' is not valid JSON: " +
                      doc.status().message());
  }
  const json::Value* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status(StatusCode::kInvalidArgument,
                  "'" + path + "' has no traceEvents array — not a Chrome "
                  "trace (was the run started with --trace-out?)");
  }
  return doc;
}

std::string event_str(const json::Value& ev, std::string_view key) {
  const json::Value* v = ev.find(key);
  static const std::string kEmpty;
  return v == nullptr ? kEmpty : v->str_or(kEmpty);
}

double event_num(const json::Value& ev, std::string_view key, double fallback) {
  const json::Value* v = ev.find(key);
  return v == nullptr ? fallback : v->num_or(fallback);
}

/// Parses the tracer's "0x<hex>" id strings; false on absent/garbled ids.
bool event_id(const json::Value& ev, std::uint64_t* out) {
  const json::Value* v = ev.find("id");
  if (v == nullptr || !v->is_string()) return false;
  static const std::string kEmpty;
  const std::string& s = v->str_or(kEmpty);
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s.c_str(), &end, 16);
  if (end == s.c_str() || *end != '\0') return false;
  *out = parsed;
  return true;
}

/// Args lookup: event_str/event_num on the nested "args" object.
std::string arg_str(const json::Value& ev, std::string_view key) {
  const json::Value* args = ev.find("args");
  return args == nullptr ? std::string() : event_str(*args, key);
}

double arg_num(const json::Value& ev, std::string_view key, double fallback) {
  const json::Value* args = ev.find("args");
  return args == nullptr ? fallback : event_num(*args, key, fallback);
}

/// Fixed-format µs, matching the tracer's own timestamp formatting.
std::string fmt_ts(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// Re-serializes a parsed JSON value. Numbers print through the journal's
/// round-trip formatter so nothing degrades on the way through the merger.
void append_value(const json::Value& v, std::string* out) {
  switch (v.kind()) {
    case json::Value::Kind::kNull:
      *out += "null";
      return;
    case json::Value::Kind::kBool:
      *out += v.bool_or(false) ? "true" : "false";
      return;
    case json::Value::Kind::kNumber:
      *out += tuner::json_double(v.num_or(0.0));
      return;
    case json::Value::Kind::kString:
      *out += '"';
      *out += trace::json_escape(v.str_or(std::string()));
      *out += '"';
      return;
    case json::Value::Kind::kArray: {
      *out += '[';
      bool first = true;
      for (const json::Value& item : v.items()) {
        if (!first) *out += ',';
        first = false;
        append_value(item, out);
      }
      *out += ']';
      return;
    }
    case json::Value::Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, member] : v.members()) {
        if (!first) *out += ',';
        first = false;
        *out += '"';
        *out += trace::json_escape(key);
        *out += "\":";
        append_value(member, out);
      }
      *out += '}';
      return;
    }
  }
}

/// One merged event: every member passes through verbatim except ts (shifted
/// onto the client clock) and pid (moved into the shard's pid block).
std::string serialize_event(const json::Value& ev, double ts_shift,
                            int pid_base) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, member] : ev.members()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += trace::json_escape(key);
    out += "\":";
    if (key == "ts" && member.is_number()) {
      out += fmt_ts(member.num_or(0.0) + ts_shift);
    } else if (key == "pid" && member.is_number()) {
      out += std::to_string(member.int_or(0) + pid_base);
    } else {
      append_value(member, &out);
    }
  }
  out += '}';
  return out;
}

/// A closed b/e span pulled from one shard file, on the client timeline.
struct ServerSpan {
  std::string name;
  std::uint64_t id = 0;
  double begin_us = 0.0;
  double end_us = 0.0;
  std::string trace_hex;  // "trace" begin-arg (serve/request only)
  int shard = -1;
  bool claimed = false;
};

/// Clock sample recovered from a client serve/clock instant.
struct ClockSample {
  std::string endpoint;
  int shard = -1;
  double offset_us = 0.0;
};

}  // namespace

StatusOr<TraceMergeResult> merge_traces(
    const std::string& client_path, const std::vector<TraceShardInput>& shards) {
  auto client_doc = load_trace_file(client_path);
  if (!client_doc.is_ok()) return client_doc.status();

  TraceMergeResult result;
  std::vector<std::string> merged;

  // -- Pass 1: the client file. Events pass through untouched; along the way
  // collect clock samples, flow starts, and client/request span pairs.
  struct ClientRequest {
    std::string trace_hex;
    std::string result;
    double begin_us = 0.0;
    double end_us = -1.0;
  };
  std::vector<ClockSample> clocks;
  std::unordered_map<std::uint64_t, std::size_t> flow_started;  // id → count
  std::unordered_map<std::uint64_t, ClientRequest> client_reqs;
  std::vector<std::uint64_t> client_req_order;

  const json::Value& client_events = *client_doc->find("traceEvents");
  for (const json::Value& ev : client_events.items()) {
    merged.push_back(serialize_event(ev, 0.0, 0));
    ++result.client_events;
    const std::string name = event_str(ev, "name");
    const std::string ph = event_str(ev, "ph");
    std::uint64_t id = 0;
    if (name == "serve/clock" && ph == "i") {
      ClockSample c;
      c.endpoint = arg_str(ev, "endpoint");
      c.shard = static_cast<int>(arg_num(ev, "shard", -1.0));
      c.offset_us = arg_num(ev, "offset_us", 0.0);
      clocks.push_back(std::move(c));
    } else if (name == "serve/flow" && ph == "s" && event_id(ev, &id)) {
      ++flow_started[id];
      ++result.flows_started;
    } else if (name == "client/request" && event_id(ev, &id)) {
      ClientRequest& req = client_reqs[id];
      if (ph == "b") {
        req.begin_us = event_num(ev, "ts", 0.0);
        req.trace_hex = arg_str(ev, "trace");
        client_req_order.push_back(id);
      } else if (ph == "e") {
        req.end_us = event_num(ev, "ts", 0.0);
        req.result = arg_str(ev, "result");
      }
    }
  }

  // -- Pass 2: shard files. Shift + remap while collecting flow ends,
  // serve/request spans, and their child spans.
  std::vector<ServerSpan> server_spans;
  std::unordered_map<std::uint64_t, std::size_t> flow_ended;  // id → count
  result.shard_offset_us.assign(shards.size(), 0.0);
  result.shard_offset_known.assign(shards.size(), false);

  for (std::size_t k = 0; k < shards.size(); ++k) {
    auto shard_doc = load_trace_file(shards[k].path);
    if (!shard_doc.is_ok()) return shard_doc.status();

    // Pair this file with a clock sample: by endpoint when the caller named
    // one, else by ring index, else the sole sample of a one-shard run.
    const ClockSample* clock = nullptr;
    for (const ClockSample& c : clocks) {
      if (!shards[k].endpoint.empty()) {
        if (c.endpoint == shards[k].endpoint) clock = &c;
      } else if (c.shard == static_cast<int>(k) ||
                 (clocks.size() == 1 && shards.size() == 1)) {
        clock = &c;
      }
      if (clock != nullptr) break;
    }
    double shift = 0.0;
    if (clock != nullptr) {
      shift = -clock->offset_us;  // client time = server time − offset
      result.shard_offset_us[k] = clock->offset_us;
      result.shard_offset_known[k] = true;
    } else {
      result.warnings.push_back(
          "no serve/clock sample for shard " + std::to_string(k) + " ('" +
          shards[k].path +
          "') — timestamps merged unshifted; was the client traced?");
    }

    const int pid_base = kShardPidStride * static_cast<int>(k + 1);
    std::unordered_set<int> pids_seen;
    // Open b-events awaiting their e, keyed by (id, name).
    struct OpenSpan {
      double begin_us = 0.0;
      std::string trace_hex;
    };
    std::unordered_map<std::uint64_t,
                       std::unordered_map<std::string, std::vector<OpenSpan>>>
        open;

    const json::Value& events = *shard_doc->find("traceEvents");
    for (const json::Value& ev : events.items()) {
      const std::string ph = event_str(ev, "ph");
      const bool metadata = ph == "M";
      merged.push_back(serialize_event(ev, metadata ? 0.0 : shift, pid_base));
      ++result.shard_events;
      pids_seen.insert(static_cast<int>(event_num(ev, "pid", 1.0)));
      if (metadata) continue;

      const std::string name = event_str(ev, "name");
      std::uint64_t id = 0;
      if (!event_id(ev, &id)) continue;
      if (name == "serve/flow" && ph == "f") {
        ++flow_ended[id];
      } else if (ph == "b") {
        OpenSpan span;
        span.begin_us = event_num(ev, "ts", 0.0) + shift;
        span.trace_hex = arg_str(ev, "trace");
        open[id][name].push_back(std::move(span));
      } else if (ph == "e") {
        auto& stack = open[id][name];
        if (stack.empty()) continue;  // e without b: truncated file
        ServerSpan span;
        span.name = name;
        span.id = id;
        span.begin_us = stack.back().begin_us;
        span.end_us = event_num(ev, "ts", 0.0) + shift;
        span.trace_hex = std::move(stack.back().trace_hex);
        span.shard = static_cast<int>(k);
        stack.pop_back();
        server_spans.push_back(std::move(span));
      }
    }

    // Name the shard's pid block (last metadata event wins in Perfetto, so
    // this overrides any process_name the daemon wrote for itself).
    const std::string label =
        shards[k].endpoint.empty() ? shards[k].path : shards[k].endpoint;
    for (const int pid : pids_seen) {
      std::string name = "shard " + std::to_string(k) + ": " + label;
      if (pid != 1) name += " (aux " + std::to_string(pid) + ")";
      merged.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                       std::to_string(pid_base + pid) +
                       ",\"args\":{\"name\":\"" + trace::json_escape(name) +
                       "\"}}");
    }
  }

  // -- Flow linkage: a started flow is linked when some shard admitted it.
  for (const auto& [id, count] : flow_started) {
    const auto it = flow_ended.find(id);
    if (it == flow_ended.end()) continue;
    result.flows_linked += std::min(count, it->second);
  }
  // The serve/request span id is a pure function of the flow id, so the
  // client's flow starts predict exactly which server spans are "ours".
  std::unordered_set<std::uint64_t> derived_request_spans;
  derived_request_spans.reserve(flow_started.size());
  for (const auto& [id, count] : flow_started) {
    derived_request_spans.insert(trace::mix64(id ^ kServerSpanSalt));
  }

  // Index server spans: serve/request by trace id, children by span id.
  std::unordered_map<std::string, std::vector<std::size_t>> srv_by_hex;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> spans_by_id;
  for (std::size_t i = 0; i < server_spans.size(); ++i) {
    if (server_spans[i].name == "serve/request") {
      srv_by_hex[server_spans[i].trace_hex].push_back(i);
    }
    spans_by_id[server_spans[i].id].push_back(i);
  }

  // -- Per-request critical paths, in client begin order.
  for (const std::uint64_t id : client_req_order) {
    const ClientRequest& req = client_reqs[id];
    RequestBreakdown rb;
    rb.trace_hex = req.trace_hex;
    rb.result = req.result.empty() ? "open" : req.result;
    rb.begin_us = req.begin_us;
    rb.client_us = req.end_us >= req.begin_us ? req.end_us - req.begin_us : 0.0;
    ++result.requests;

    // Prefer the serve/request span whose id derives from one of our flow
    // ids (flow-confirmed); fall back to any unclaimed span with our trace
    // id (e.g. another client's coalesced request for the same key).
    ServerSpan* srv = nullptr;
    if (auto it = srv_by_hex.find(req.trace_hex);
        it != srv_by_hex.end() && !req.trace_hex.empty()) {
      for (const std::size_t i : it->second) {
        ServerSpan& cand = server_spans[i];
        if (cand.claimed) continue;
        const bool flow_hit = derived_request_spans.count(cand.id) != 0;
        if (srv == nullptr || (flow_hit && !rb.flow_linked)) {
          srv = &cand;
          rb.flow_linked = flow_hit;
          if (flow_hit) break;
        }
      }
    }
    if (srv != nullptr) {
      srv->claimed = true;
      rb.shard = srv->shard;
      rb.server_us = srv->end_us - srv->begin_us;
      if (rb.flow_linked) ++result.requests_linked;
      const std::uint64_t unit_span = trace::mix64(srv->id ^ kUnitSpanSalt);
      for (const std::uint64_t child_id : {srv->id, unit_span}) {
        const auto it = spans_by_id.find(child_id);
        if (it == spans_by_id.end()) continue;
        for (const std::size_t i : it->second) {
          const ServerSpan& child = server_spans[i];
          if (child.shard != srv->shard) continue;
          const double dur = child.end_us - child.begin_us;
          if (child.name == "serve/queue") rb.queue_us += dur;
          else if (child.name == "serve/execute") rb.execute_us += dur;
          else if (child.name == "serve/store") rb.store_us += dur;
          else if (child.name == "serve/replicate") rb.replicate_us += dur;
        }
      }
    }
    result.requests_detail.push_back(std::move(rb));
  }

  if (result.requests > 0 && result.requests_linked < result.requests) {
    result.warnings.push_back(
        std::to_string(result.requests - result.requests_linked) + " of " +
        std::to_string(result.requests) +
        " client requests have no flow-linked server span (shard died, "
        "shard file missing, or request was answered from the client path)");
  }

  // -- Assemble and self-check the merged document.
  std::string doc = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < merged.size(); ++i) {
    doc += i == 0 ? "\n" : ",\n";
    doc += merged[i];
  }
  doc += "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (std::string err; !trace::validate_json(doc, &err)) {
    return Status(StatusCode::kInvalidArgument,
                  "merged trace failed JSON self-check: " + err);
  }
  result.merged_json = std::move(doc);
  return result;
}

std::string critical_path_table(const TraceMergeResult& result,
                                std::size_t top_n) {
  const auto fmt_ms = [](double us) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", us / 1e3);
    return std::string(buf);
  };
  std::vector<const RequestBreakdown*> by_latency;
  by_latency.reserve(result.requests_detail.size());
  for (const RequestBreakdown& rb : result.requests_detail) {
    by_latency.push_back(&rb);
  }
  std::stable_sort(by_latency.begin(), by_latency.end(),
                   [](const RequestBreakdown* a, const RequestBreakdown* b) {
                     return a->client_us > b->client_us;
                   });
  if (by_latency.size() > top_n) by_latency.resize(top_n);

  TextTable table({"trace id", "result", "shard", "total ms", "server ms",
                   "queue ms", "exec ms", "store ms", "repl ms", "wire ms"});
  for (const RequestBreakdown* rb : by_latency) {
    table.add_row(
        {rb->trace_hex.size() >= 16 ? rb->trace_hex.substr(16) : rb->trace_hex,
         rb->result + (rb->flow_linked ? "" : " (unlinked)"),
         rb->shard < 0 ? "-" : std::to_string(rb->shard),
         fmt_ms(rb->client_us), fmt_ms(rb->server_us), fmt_ms(rb->queue_us),
         fmt_ms(rb->execute_us), fmt_ms(rb->store_us),
         fmt_ms(rb->replicate_us), fmt_ms(rb->client_us - rb->server_us)});
  }
  return table.to_string();
}

}  // namespace prose::serve
