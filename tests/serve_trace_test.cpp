// Distributed tracing across the serve wire, end to end: the wire context
// codec (including garbage tolerance and byte-split framing), version-skew
// compatibility (context-less clients against traced servers and the
// reverse), latency exemplars through the exposition round trip, the hard
// determinism contract (journal bytes bit-identical traced vs untraced),
// and the trace merger that folds a traced fleet run into one Perfetto
// timeline with flow-linked client→server spans.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "models/models.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/trace_merge.h"
#include "serve/wire.h"
#include "support/json.h"
#include "support/trace.h"
#include "tuner/campaign.h"

namespace prose::serve {
namespace {

std::string fresh_path(const char* suffix) {
  static std::atomic<int> counter{0};
  return "/tmp/prose_trace_t" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + suffix;
}

StatusOr<tuner::TargetSpec> resolve_model(const std::string& model) {
  if (model == "funarc") return models::funarc_target();
  if (model == "MPAS-A") return models::mpas_target();
  return Status(StatusCode::kNotFound, "unknown model '" + model + "'");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void remove_dir(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  (void)!std::system(cmd.c_str());
}

// --- wire context codec ---------------------------------------------------

TEST(TraceWire, ContextRoundTripsThroughAFrame) {
  trace::TraceContext ctx;
  ctx.trace_id_hi = 0x0123456789abcdefULL;
  ctx.trace_id_lo = 0xfedcba9876543210ULL;
  ctx.parent_span = 0xdeadbeefcafef00dULL;
  ctx.sampled = true;
  const std::string frame =
      R"({"type":"eval","id":7,"trace":)" + trace_to_json(ctx) + "}";
  auto v = json::parse(frame);
  ASSERT_TRUE(v.is_ok()) << frame;
  const trace::TraceContext back = trace_from_frame(v.value());
  EXPECT_TRUE(back.valid());
  EXPECT_EQ(back.trace_id_hi, ctx.trace_id_hi);
  EXPECT_EQ(back.trace_id_lo, ctx.trace_id_lo);
  EXPECT_EQ(back.parent_span, ctx.parent_span);
  EXPECT_TRUE(back.sampled);
  // Both ends derive the same flow arrow and server span id — the property
  // that lets the merge tool stitch files with no extra wire traffic.
  EXPECT_EQ(back.flow_id(), ctx.flow_id());
  EXPECT_EQ(back.server_span_id(), ctx.server_span_id());
  EXPECT_EQ(back.trace_hex(), "0123456789abcdeffedcba9876543210");
}

TEST(TraceWire, AbsentOrGarbledContextIsInvalidNotFatal) {
  const char* frames[] = {
      R"({"type":"eval","id":1})",                          // no context at all
      R"({"type":"eval","trace":"zzz"})",                   // not an object
      R"({"type":"eval","trace":{}})",                      // empty object
      R"({"type":"eval","trace":{"tid_hi":"0123456789abcdef"}})",  // partial
      R"({"type":"eval","trace":{"tid_hi":"0123456789abcdef",)"
      R"("tid_lo":"XYZ","span":"0000000000000001"}})",      // garbled hex
      R"({"type":"eval","trace":{"tid_hi":"0123456789abcdef",)"
      R"("tid_lo":42,"span":"0000000000000001"}})",         // wrong type
      R"({"type":"eval","trace":{"tid_hi":"0000000000000000",)"
      R"("tid_lo":"0000000000000000","span":"0000000000000001",)"
      R"("sampled":true}})",                                // all-zero trace id
  };
  for (const char* frame : frames) {
    auto v = json::parse(frame);
    ASSERT_TRUE(v.is_ok()) << frame;
    EXPECT_FALSE(trace_from_frame(v.value()).valid()) << frame;
  }
}

TEST(TraceWire, DecoderSurvivesEveryByteSplitWithAndWithoutContext) {
  trace::TraceContext ctx;
  ctx.trace_id_hi = 0x1111222233334444ULL;
  ctx.trace_id_lo = 0x5555666677778888ULL;
  ctx.parent_span = 0x9999aaaabbbbccccULL;
  ctx.sampled = true;
  const std::string payloads[] = {
      R"({"type":"eval","id":3,"key":"444","stream":9})",
      R"({"type":"eval","id":3,"key":"444","stream":9,"trace":)" +
          trace_to_json(ctx) + "}",
      // Garbage context must decode as a frame and parse as "no context".
      R"({"type":"eval","id":3,"trace":{"tid_hi":"junk","span":[1,2]}})",
  };
  for (const std::string& payload : payloads) {
    const std::string wire = encode_frame(payload);
    for (std::size_t split = 0; split <= wire.size(); ++split) {
      FrameDecoder dec;
      std::string got;
      dec.feed(wire.data(), split);
      auto first = dec.next(&got);
      ASSERT_TRUE(first.is_ok()) << "split " << split;
      if (first.value()) {
        EXPECT_EQ(split, wire.size());
        EXPECT_EQ(got, payload);
        continue;
      }
      dec.feed(wire.data() + split, wire.size() - split);
      auto second = dec.next(&got);
      ASSERT_TRUE(second.is_ok()) << "split " << split;
      ASSERT_TRUE(second.value()) << "split " << split;
      EXPECT_EQ(got, payload) << "split " << split;
      // Exactly one frame, nothing left behind.
      auto drained = dec.next(&got);
      ASSERT_TRUE(drained.is_ok());
      EXPECT_FALSE(drained.value());
      EXPECT_EQ(dec.buffered(), 0u);
    }
  }
}

// --- latency exemplars ----------------------------------------------------

TEST(Exemplars, HistogramKeepsTheLargestLabeledObservationPerBucket) {
  obs::Registry reg;
  obs::Histogram* h =
      reg.histogram("ex_seconds", "help", {0.001, 0.01, 0.1});
  h->observe(0.0005, "trace-a");
  h->observe(0.0008, "trace-b");   // same bucket, larger: replaces a
  h->observe(0.0002, "trace-c");   // smaller: ignored
  h->observe(0.05, "trace-slow");  // third bucket
  h->observe(0.5);                 // +Inf bucket, unlabeled: no exemplar
  h->observe(0.002, "");           // empty label degrades to plain observe
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::SeriesSnapshot* s = snap.find("ex_seconds");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->hist.exemplars.size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(s->hist.exemplars[0].label, "trace-b");
  EXPECT_EQ(s->hist.exemplars[0].value, 0.0008);
  EXPECT_TRUE(s->hist.exemplars[1].empty());  // only unlabeled landed here
  EXPECT_EQ(s->hist.exemplars[2].label, "trace-slow");
  EXPECT_TRUE(s->hist.exemplars[3].empty());
  EXPECT_EQ(s->hist.count, 6u);  // exemplars never change the counts
}

TEST(Exemplars, SurviveTheExpositionRoundTripAndLint) {
  obs::Registry reg;
  obs::Histogram* h = reg.histogram("rt_seconds", "help", {0.01, 1.0});
  h->observe(0.002, "00ff00ff00ff00ff00ff00ff00ff00ff");
  h->observe(12.5, "11aa11aa11aa11aa11aa11aa11aa11aa");  // +Inf bucket
  const std::string page = obs::to_prometheus(reg.snapshot());
  EXPECT_NE(page.find("# EXEMPLAR rt_seconds_bucket{le=\"0.01\"} "
                      "trace_id=00ff00ff00ff00ff00ff00ff00ff00ff"),
            std::string::npos)
      << page;
  std::string err;
  EXPECT_TRUE(obs::lint_prometheus(page, &err)) << err;
  obs::MetricsSnapshot back;
  ASSERT_TRUE(obs::parse_prometheus(page, &back, &err)) << err;
  const obs::SeriesSnapshot* s = back.find("rt_seconds");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->hist.exemplars.size(), 3u);
  EXPECT_EQ(s->hist.exemplars[0].label, "00ff00ff00ff00ff00ff00ff00ff00ff");
  EXPECT_EQ(s->hist.exemplars[2].label, "11aa11aa11aa11aa11aa11aa11aa11aa");
  EXPECT_EQ(s->hist.exemplars[2].value, 12.5);
}

TEST(Exemplars, SnapshotMergeKeepsTheLargestPerBucket) {
  obs::Registry a;
  obs::Registry b;
  obs::Histogram* ha = a.histogram("m_seconds", "help", {1.0});
  obs::Histogram* hb = b.histogram("m_seconds", "help", {1.0});
  ha->observe(0.2, "shard-a");
  hb->observe(0.7, "shard-b");
  obs::MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const obs::SeriesSnapshot* s = merged.find("m_seconds");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->hist.exemplars.size(), 2u);
  EXPECT_EQ(s->hist.exemplars[0].label, "shard-b");  // 0.7 beats 0.2
  EXPECT_EQ(s->hist.count, 2u);
}

// --- in-process fleet harness ---------------------------------------------

struct Fleet {
  std::vector<std::string> endpoints;
  std::vector<std::string> stores;
  std::vector<std::string> traces;
  std::vector<std::unique_ptr<Server>> servers;

  Fleet() = default;
  Fleet(Fleet&&) = default;
  Fleet& operator=(Fleet&&) = default;

  /// `traced` gives every daemon a Chrome trace sink, the shape of
  /// prose_served --trace-out.
  static Fleet start(std::size_t n, std::size_t replicate, bool traced) {
    Fleet f;
    for (std::size_t i = 0; i < n; ++i) {
      f.endpoints.push_back(fresh_path(".shard.sock"));
      f.stores.push_back(fresh_path(".storedir"));
      f.traces.push_back(traced ? fresh_path(".shard_trace.json")
                                : std::string());
    }
    for (std::size_t i = 0; i < n; ++i) {
      ServerOptions opts;
      opts.endpoint = f.endpoints[i];
      opts.store_path = f.stores[i];
      opts.store_dir = true;
      opts.peers = f.endpoints;
      opts.replicate = replicate;
      opts.peer_timeout_seconds = 2.0;
      opts.jobs = 2;
      opts.retry_after_seconds = 0.001;
      opts.trace.chrome_path = f.traces[i];
      f.servers.push_back(std::make_unique<Server>(opts, resolve_model));
      const Status started = f.servers.back()->start();
      EXPECT_TRUE(started.is_ok()) << started.to_string();
    }
    return f;
  }

  void stop_all() {
    for (auto& s : servers) {
      if (s != nullptr) {
        s->shutdown();
        s->wait();
      }
    }
  }

  ~Fleet() {
    stop_all();
    for (const auto& dir : stores) remove_dir(dir);
    for (const auto& path : traces) {
      if (!path.empty()) ::unlink(path.c_str());
    }
    for (const auto& ep : endpoints) ::unlink(ep.c_str());
  }
};

StatusOr<std::unique_ptr<ServeClient>> fleet_client(const Fleet& f) {
  ServeClient::Options copts;
  copts.endpoints = f.endpoints;
  copts.model = "funarc";
  copts.target_digest = target_digest(models::funarc_target());
  copts.connect_timeout_seconds = 2.0;
  copts.io_timeout_seconds = 30.0;
  return ServeClient::connect(copts);
}

tuner::CampaignResult run_funarc(tuner::EvalBackend* backend,
                                 std::size_t jobs,
                                 const std::string& journal_path,
                                 const std::string& trace_path) {
  tuner::CampaignOptions opts;
  opts.jobs = jobs;
  opts.backend = backend;
  opts.journal_path = journal_path;
  opts.trace.chrome_path = trace_path;
  auto result = tuner::run_campaign(models::funarc_target(), opts);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result.value());
}

void expect_same_records(const tuner::CampaignResult& a,
                         const tuner::CampaignResult& b) {
  ASSERT_EQ(a.search.records.size(), b.search.records.size());
  for (std::size_t i = 0; i < a.search.records.size(); ++i) {
    EXPECT_EQ(a.search.records[i].config, b.search.records[i].config);
    EXPECT_EQ(a.search.records[i].eval.metric, b.search.records[i].eval.metric);
    EXPECT_EQ(a.search.records[i].eval.speedup,
              b.search.records[i].eval.speedup);
  }
  EXPECT_EQ(a.summary.best_speedup, b.summary.best_speedup);
  EXPECT_EQ(a.final_kinds, b.final_kinds);
}

// --- determinism: the hard contract ---------------------------------------

class TraceDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TraceDeterminism, JournalBytesBitIdenticalTracedVsUntracedFleet) {
  const std::size_t jobs = GetParam();
  const std::string journal_untraced = fresh_path(".journal");
  const std::string journal_traced = fresh_path(".journal");
  const std::string client_trace = fresh_path(".client_trace.json");

  tuner::CampaignResult untraced = [&] {
    Fleet f = Fleet::start(3, 2, /*traced=*/false);
    auto client = fleet_client(f);
    EXPECT_TRUE(client.is_ok()) << client.status().to_string();
    return run_funarc(client.value().get(), jobs, journal_untraced, "");
  }();
  tuner::CampaignResult traced = [&] {
    Fleet f = Fleet::start(3, 2, /*traced=*/true);
    auto client = fleet_client(f);
    EXPECT_TRUE(client.is_ok()) << client.status().to_string();
    return run_funarc(client.value().get(), jobs, journal_traced,
                      client_trace);
  }();

  // Tracing feeds nothing back: identical results AND identical journal
  // bytes — replica placement, retry schedules, every recorded double.
  expect_same_records(untraced, traced);
  const std::string bytes_untraced = read_file(journal_untraced);
  const std::string bytes_traced = read_file(journal_traced);
  ASSERT_FALSE(bytes_untraced.empty());
  EXPECT_EQ(bytes_untraced, bytes_traced);

  // And identical to a local, serverless campaign's journal.
  const std::string journal_local = fresh_path(".journal");
  tuner::CampaignResult local = run_funarc(nullptr, jobs, journal_local, "");
  expect_same_records(local, traced);
  EXPECT_EQ(read_file(journal_local), bytes_traced);

  ::unlink(journal_untraced.c_str());
  ::unlink(journal_traced.c_str());
  ::unlink(journal_local.c_str());
  ::unlink(client_trace.c_str());
}

INSTANTIATE_TEST_SUITE_P(Jobs, TraceDeterminism,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

// --- version skew ---------------------------------------------------------

TEST(TraceCompat, ContextlessClientAgainstTracedServerEmitsUnparentedSpans) {
  // An "old" client — one that never attaches trace contexts (set_tracer
  // not called) — against a traced daemon: requests are answered normally
  // and the daemon still traces them, just unparented.
  const std::string trace_path = fresh_path(".server_trace.json");
  std::string endpoint = fresh_path(".sock");
  {
    ServerOptions opts;
    opts.endpoint = endpoint;
    opts.jobs = 2;
    opts.trace.chrome_path = trace_path;
    Server server(opts, resolve_model);
    ASSERT_TRUE(server.start().is_ok());

    ServeClient::Options copts;
    copts.endpoints = {endpoint};
    copts.model = "funarc";
    auto client = ServeClient::connect(copts);
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    tuner::CampaignOptions opts2;
    opts2.backend = client.value().get();
    auto result = tuner::run_campaign(models::funarc_target(), opts2);
    ASSERT_TRUE(result.is_ok());
    server.shutdown();  // flushes the trace sink (the SIGTERM drain path)
    server.wait();
  }
  const std::string trace = read_file(trace_path);
  ASSERT_FALSE(trace.empty());
  std::string err;
  EXPECT_TRUE(trace::validate_json(trace, &err)) << err;
  EXPECT_NE(trace.find("\"serve/request\""), std::string::npos);
  EXPECT_NE(trace.find("\"unparented\""), std::string::npos);
  // No client context ⇒ no flow arrows land here.
  EXPECT_EQ(trace.find("\"ph\":\"f\""), std::string::npos);
  ::unlink(trace_path.c_str());
  ::unlink(endpoint.c_str());
}

TEST(TraceCompat, TracedClientAgainstUntracedServerStaysBitIdentical) {
  // A "new" traced client against an "old" daemon that ignores the trace
  // member and sends no trace_clock_us: results stay bit-identical to
  // local, and the client's own spans still close.
  const std::string trace_path = fresh_path(".client_trace.json");
  std::string endpoint = fresh_path(".sock");
  tuner::CampaignResult local = run_funarc(nullptr, 1, "", "");
  {
    ServerOptions opts;
    opts.endpoint = endpoint;
    opts.jobs = 2;
    Server server(opts, resolve_model);
    ASSERT_TRUE(server.start().is_ok());
    ServeClient::Options copts;
    copts.endpoints = {endpoint};
    copts.model = "funarc";
    auto client = ServeClient::connect(copts);
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    tuner::CampaignResult served =
        run_funarc(client.value().get(), 1, "", trace_path);
    expect_same_records(local, served);
    server.shutdown();
    server.wait();
  }
  const std::string trace = read_file(trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"client/request\""), std::string::npos);
  // The daemon sent no trace clock, so no alignment sample was emitted.
  EXPECT_EQ(trace.find("\"serve/clock\""), std::string::npos);
  ::unlink(trace_path.c_str());
  ::unlink(endpoint.c_str());
}

// --- the merger -----------------------------------------------------------

TEST(TraceMerge, TracedFleetRunLinksEveryRequestAndSumsWithinTolerance) {
  const std::string client_trace = fresh_path(".client_trace.json");
  std::vector<TraceShardInput> inputs;
  {
    Fleet f = Fleet::start(3, 2, /*traced=*/true);
    auto client = fleet_client(f);
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    run_funarc(client.value().get(), 4, "", client_trace);
    f.stop_all();  // graceful drain flushes every shard's sink
    for (std::size_t i = 0; i < f.traces.size(); ++i) {
      inputs.push_back(TraceShardInput{f.traces[i], f.endpoints[i]});
      // Keep the files past ~Fleet teardown.
      const std::string keep = fresh_path(".shard_trace.json");
      ASSERT_EQ(std::rename(f.traces[i].c_str(), keep.c_str()), 0);
      inputs.back().path = keep;
    }
  }

  auto merged = merge_traces(client_trace, inputs);
  ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
  EXPECT_TRUE(merged->warnings.empty())
      << merged->warnings.front();

  // The merged document is valid JSON and a plausible Chrome trace.
  std::string err;
  EXPECT_TRUE(trace::validate_json(merged->merged_json, &err)) << err;
  EXPECT_NE(merged->merged_json.find("\"traceEvents\""), std::string::npos);

  // Every client request span links via flow ids to a server-side span,
  // and every transmission's flow arrow found its admission.
  ASSERT_GT(merged->requests, 0u);
  EXPECT_EQ(merged->requests_linked, merged->requests);
  ASSERT_GT(merged->flows_started, 0u);
  EXPECT_EQ(merged->flows_linked, merged->flows_started);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_TRUE(merged->shard_offset_known[k]) << "shard " << k;
  }

  // Critical paths are coherent on the merged timeline: components sum to
  // no more than the server span, and the server span fits inside the
  // client-observed latency once the clock-offset error (bounded by the
  // hello RTT, generously 50ms here) is allowed for.
  for (const RequestBreakdown& rb : merged->requests_detail) {
    EXPECT_GT(rb.client_us, 0.0) << rb.trace_hex;
    EXPECT_GE(rb.shard, 0) << rb.trace_hex;
    const double parts =
        rb.queue_us + rb.execute_us + rb.store_us + rb.replicate_us;
    EXPECT_LE(parts, rb.server_us + 1e3) << rb.trace_hex;
    EXPECT_LE(rb.server_us, rb.client_us + 50e3) << rb.trace_hex;
  }
  const std::string table = critical_path_table(*merged, 10);
  EXPECT_NE(table.find("total ms"), std::string::npos);

  ::unlink(client_trace.c_str());
  for (const auto& input : inputs) ::unlink(input.path.c_str());
}

TEST(TraceMerge, MissingClockSampleWarnsAndStillMerges) {
  // Synthetic minimal files: a client with one request span but no
  // serve/clock instant, and a shard with the matching server span.
  const std::string client_path = fresh_path(".client.json");
  const std::string shard_path = fresh_path(".shard.json");
  {
    std::ofstream out(client_path);
    out << R"({"traceEvents":[
{"name":"client/request","cat":"prose","ph":"b","ts":10.0,"id":"0xabc","pid":1,"tid":3,"args":{"trace":"00000000000000010000000000000002"}},
{"name":"serve/flow","cat":"prose","ph":"s","ts":11.0,"id":"0x123","pid":1,"tid":3},
{"name":"client/request","cat":"prose","ph":"e","ts":50.0,"id":"0xabc","pid":1,"tid":3,"args":{"result":"ok"}}
],"displayTimeUnit":"ms"})";
  }
  {
    std::ofstream out(shard_path);
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(
                      trace::mix64(0x123 ^ 0x5e57e5u)));
    out << R"({"traceEvents":[
{"name":"serve/flow","cat":"prose","ph":"f","ts":20.0,"id":"0x123","bp":"e","pid":1,"tid":3},
{"name":"serve/request","cat":"prose","ph":"b","ts":20.0,"id":")"
        << buf
        << R"(","pid":1,"tid":3,"args":{"trace":"00000000000000010000000000000002"}},
{"name":"serve/request","cat":"prose","ph":"e","ts":45.0,"id":")"
        << buf << R"(","pid":1,"tid":3,"args":{"result":"ok"}}
],"displayTimeUnit":"ms"})";
  }
  auto merged = merge_traces(client_path, {TraceShardInput{shard_path, ""}});
  ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
  ASSERT_FALSE(merged->shard_offset_known.empty());
  EXPECT_FALSE(merged->shard_offset_known[0]);
  ASSERT_FALSE(merged->warnings.empty());
  EXPECT_NE(merged->warnings[0].find("serve/clock"), std::string::npos);
  EXPECT_EQ(merged->requests, 1u);
  EXPECT_EQ(merged->requests_linked, 1u);
  EXPECT_EQ(merged->flows_linked, 1u);
  ASSERT_EQ(merged->requests_detail.size(), 1u);
  EXPECT_EQ(merged->requests_detail[0].client_us, 40.0);
  EXPECT_EQ(merged->requests_detail[0].server_us, 25.0);
  // Shard events land on the remapped pid block.
  EXPECT_NE(merged->merged_json.find("\"pid\":101"), std::string::npos);
  ::unlink(client_path.c_str());
  ::unlink(shard_path.c_str());
}

TEST(TraceMerge, RejectsFilesThatAreNotChromeTraces) {
  const std::string bogus = fresh_path(".json");
  {
    std::ofstream out(bogus);
    out << R"({"hello":"world"})";
  }
  auto merged = merge_traces(bogus, {});
  EXPECT_FALSE(merged.is_ok());
  EXPECT_NE(merged.status().message().find("traceEvents"), std::string::npos);
  EXPECT_FALSE(merge_traces(fresh_path(".missing.json"), {}).is_ok());
  ::unlink(bogus.c_str());
}

}  // namespace
}  // namespace prose::serve
