// The evaluation service end to end: PF01 framing (partial reads, torn
// frames, garbage, seeded chunkings and header-byte mutants), the
// content-addressed result store (crash recovery, foreign-file refusal),
// and the hard determinism contract — a campaign
// served by a daemon is bit-identical to a local one for any worker count,
// any client count, and any arrival order, cold or warm store.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "models/models.h"
#include "serve/client.h"
#include "serve/result_store.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "support/json.h"
#include "support/rng.h"
#include "tuner/campaign.h"

namespace prose::serve {
namespace {

std::string fresh_path(const char* suffix) {
  static std::atomic<int> counter{0};
  return "/tmp/prose_serve_t" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + suffix;
}

StatusOr<tuner::TargetSpec> resolve_model(const std::string& model) {
  if (model == "funarc") return models::funarc_target();
  if (model == "MPAS-A") return models::mpas_target();
  return Status(StatusCode::kNotFound, "unknown model '" + model + "'");
}

// --- framing --------------------------------------------------------------

TEST(Wire, FrameSurvivesSplitAtEveryByte) {
  const std::string payload = R"({"type":"eval","id":7,"key":"4848"})";
  const std::string frame = encode_frame(payload);
  for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
    FrameDecoder dec;
    std::string out;
    dec.feed(frame.data(), cut);
    auto got = dec.next(&out);
    ASSERT_TRUE(got.is_ok()) << "cut at " << cut;
    EXPECT_EQ(got.value(), cut == frame.size()) << "cut at " << cut;
    if (cut < frame.size()) {
      dec.feed(frame.data() + cut, frame.size() - cut);
      got = dec.next(&out);
      ASSERT_TRUE(got.is_ok()) << "cut at " << cut;
      ASSERT_TRUE(got.value()) << "cut at " << cut;
    }
    EXPECT_EQ(out, payload) << "cut at " << cut;
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(Wire, InterleavedFramesAnyChunking) {
  std::vector<std::string> payloads;
  std::string stream;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back("{\"id\":" + std::to_string(i) + "}");
    stream += encode_frame(payloads.back());
  }
  // Feed the concatenated stream in awkward chunk sizes; every frame must
  // come out whole and in order.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, stream.size()}) {
    FrameDecoder dec;
    std::vector<std::string> got;
    for (std::size_t pos = 0; pos < stream.size(); pos += chunk) {
      dec.feed(stream.data() + pos, std::min(chunk, stream.size() - pos));
      std::string payload;
      while (true) {
        auto next = dec.next(&payload);
        ASSERT_TRUE(next.is_ok());
        if (!next.value()) break;
        got.push_back(payload);
      }
    }
    EXPECT_EQ(got, payloads) << "chunk " << chunk;
  }
}

TEST(Wire, EmptyPayloadRoundTrips) {
  FrameDecoder dec;
  const std::string frame = encode_frame("");
  dec.feed(frame.data(), frame.size());
  std::string out = "sentinel";
  auto got = dec.next(&out);
  ASSERT_TRUE(got.is_ok());
  ASSERT_TRUE(got.value());
  EXPECT_EQ(out, "");
}

TEST(Wire, BadMagicIsUnrecoverable) {
  FrameDecoder dec;
  const std::string garbage("XY01\x00\x00\x00\x02{}", 10);
  dec.feed(garbage.data(), garbage.size());
  std::string out;
  auto got = dec.next(&out);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
}

TEST(Wire, OversizedLengthPrefixIsGarbageNotABigRequest) {
  const auto header = [](std::uint32_t len) {
    std::string h = "PF01";
    for (int shift = 24; shift >= 0; shift -= 8) {
      h += static_cast<char>((len >> shift) & 0xffu);
    }
    return h;
  };
  std::string out;
  for (const std::uint32_t len : {0xffffffffu, kMaxFramePayload + 1}) {
    // Refused as soon as the eighth header byte arrives, no payload read.
    const std::string over = header(len);
    FrameDecoder dec;
    dec.feed(over.data(), 7);
    auto got = dec.next(&out);
    ASSERT_TRUE(got.is_ok()) << len;
    EXPECT_FALSE(got.value()) << len;
    dec.feed(over.data() + 7, 1);
    got = dec.next(&out);
    ASSERT_FALSE(got.is_ok()) << len;
    EXPECT_EQ(got.status().code(), StatusCode::kParseError) << len;
  }
  // Exactly the cap is a legal frame still waiting for its payload.
  const std::string at_cap = header(kMaxFramePayload);
  FrameDecoder legal;
  legal.feed(at_cap.data(), at_cap.size());
  const auto got = legal.next(&out);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_FALSE(got.value());
}

// Seeded fuzzing of the frame decoder, which reads bytes straight off a
// socket: any chunking yields the same payloads, and header corruption is a
// parse error, never a crash or a giant allocation.

/// 50 payloads of seeded lengths and bytes (empty and binary included) and
/// their concatenated frames.
std::vector<std::string> fuzz_payloads(Rng& rng, std::string* stream) {
  std::vector<std::string> payloads;
  for (int i = 0; i < 50; ++i) {
    std::string p(rng.uniform_index(300), '\0');
    for (char& c : p) c = static_cast<char>(rng.uniform_index(256));
    *stream += encode_frame(p);
    payloads.push_back(std::move(p));
  }
  return payloads;
}

TEST(WireFuzz, RandomChunkingYieldsEveryPayloadInOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::string stream;
    const std::vector<std::string> payloads = fuzz_payloads(rng, &stream);
    FrameDecoder dec;
    std::vector<std::string> got;
    for (std::size_t pos = 0; pos < stream.size();) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform_index(64), stream.size() - pos);
      dec.feed(stream.data() + pos, n);
      pos += n;
      std::string payload;
      while (true) {
        auto next = dec.next(&payload);
        ASSERT_TRUE(next.is_ok()) << "seed " << seed;
        if (!next.value()) break;
        got.push_back(payload);
      }
    }
    EXPECT_EQ(got, payloads) << "seed " << seed;
    EXPECT_EQ(dec.buffered(), 0u) << "seed " << seed;
  }
}

TEST(WireFuzz, HeaderByteMutantsYieldPayloadsOrParseErrors) {
  Rng rng(0x5046303166757a7aull);
  std::string clean;
  const std::vector<std::string> payloads = fuzz_payloads(rng, &clean);
  // Header offsets of every frame in the stream.
  std::vector<std::size_t> headers;
  for (std::size_t off = 0, i = 0; i < payloads.size(); ++i) {
    headers.push_back(off);
    off += 8 + payloads[i].size();
  }
  for (int mutant = 0; mutant < 2000; ++mutant) {
    std::string stream = clean;
    const std::size_t at =
        headers[rng.uniform_index(headers.size())] + rng.uniform_index(8);
    stream[at] = static_cast<char>(rng.uniform_index(256));
    FrameDecoder dec;
    dec.feed(stream.data(), stream.size());
    std::size_t frames = 0;
    std::string payload;
    while (true) {
      auto next = dec.next(&payload);
      if (!next.is_ok()) {
        EXPECT_EQ(next.status().code(), StatusCode::kParseError)
            << "mutant " << mutant;
        break;
      }
      if (!next.value()) break;
      ASSERT_LE(payload.size(), kMaxFramePayload) << "mutant " << mutant;
      ++frames;
    }
    EXPECT_LE(frames, payloads.size()) << "mutant " << mutant;
  }
}

TEST(Wire, DigestsSeparateTargetsAndNamespaces) {
  const std::uint64_t funarc = target_digest(models::funarc_target());
  const std::uint64_t mpas = target_digest(models::mpas_target());
  EXPECT_NE(funarc, mpas);
  // Same source, different machine: still a different digest.
  tuner::TargetSpec tweaked = models::funarc_target();
  tweaked.machine.cost_div += 1.0;
  EXPECT_NE(funarc, target_digest(tweaked));
  // The namespace adds noise/fault/retry identity on top.
  EXPECT_NE(namespace_digest(funarc, 2024, "", 2025, 3, 30.0),
            namespace_digest(funarc, 2025, "", 2025, 3, 30.0));
  EXPECT_NE(namespace_digest(funarc, 2024, "", 2025, 3, 30.0),
            namespace_digest(funarc, 2024, "transient:p=0.05", 2025, 3, 30.0));
  EXPECT_EQ(namespace_digest(funarc, 2024, "", 2025, 3, 30.0),
            namespace_digest(funarc, 2024, "", 2025, 3, 30.0));
}

// --- result store ---------------------------------------------------------

tuner::Evaluation sample_eval(double metric) {
  tuner::Evaluation e;
  e.outcome = tuner::Outcome::kPass;
  e.metric = metric;
  e.error = 1.25e-7;
  e.hotspot_cycles = 12345.0;
  e.speedup = 1.5;
  e.fraction32 = 0.5;
  e.proc_mean_cycles["mod::proc"] = 42.0;
  e.proc_calls["mod::proc"] = 7;
  return e;
}

TEST(ResultStore, RoundTripsAcrossReopen) {
  const std::string path = fresh_path(".store");
  {
    auto store = ResultStore::open(path);
    ASSERT_TRUE(store.is_ok()) << store.status().to_string();
    (*store)->insert(1, "4848", 3, sample_eval(2.0));
    (*store)->insert(1, "8888", 0, sample_eval(3.0));
    (*store)->insert(1, "4848", 3, sample_eval(99.0));  // dup: first wins
    EXPECT_EQ((*store)->records(), 2u);
  }
  auto store = ResultStore::open(path);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  EXPECT_EQ((*store)->records(), 2u);
  EXPECT_EQ((*store)->recovered(), 2u);
  tuner::Evaluation eval;
  ASSERT_TRUE((*store)->lookup(1, "4848", 3, &eval));
  EXPECT_EQ(eval.metric, 2.0);  // the duplicate never overwrote
  EXPECT_EQ(eval.error, 1.25e-7);
  EXPECT_EQ(eval.proc_mean_cycles.at("mod::proc"), 42.0);
  EXPECT_EQ(eval.proc_calls.at("mod::proc"), 7u);
  EXPECT_FALSE((*store)->lookup(2, "4848", 3, &eval));   // other namespace
  EXPECT_FALSE((*store)->lookup(1, "4848", 4, &eval));   // other stream
  std::remove(path.c_str());
}

TEST(ResultStore, TornTrailingLineIsDroppedRestSurvives) {
  const std::string path = fresh_path(".store");
  {
    auto store = ResultStore::open(path);
    ASSERT_TRUE(store.is_ok());
    (*store)->insert(7, "44", 0, sample_eval(1.0));
    (*store)->insert(7, "48", 1, sample_eval(2.0));
  }
  {
    // Simulate a crash mid-write: a torn (newline-less) trailing record.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"type\":\"result\",\"ns\":\"00000000000000";
  }
  auto store = ResultStore::open(path);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  EXPECT_EQ(store.value()->recovered(), 2u);
  tuner::Evaluation eval;
  EXPECT_TRUE((*store)->lookup(7, "48", 1, &eval));
  // The file was truncated back to the valid prefix; appending still works.
  (*store)->insert(7, "88", 2, sample_eval(3.0));
  EXPECT_TRUE((*store)->error().is_ok());
  EXPECT_EQ((*store)->records(), 3u);
  std::remove(path.c_str());
}

TEST(ResultStore, RefusesForeignFiles) {
  // Prose, and a file whose complete lines are all blank: appending results
  // after no header would leave a store that no later open accepts.
  for (const char* text : {"once upon a time\n", "\n"}) {
    const std::string path = fresh_path(".store");
    {
      std::ofstream out(path);
      out << text;
    }
    auto store = ResultStore::open(path);
    ASSERT_FALSE(store.is_ok()) << "accepted " << text;
    EXPECT_NE(store.status().message().find("refusing"), std::string::npos);
    std::remove(path.c_str());
  }
}

// --- server protocol ------------------------------------------------------

struct ServerHandle {
  std::string endpoint;
  std::unique_ptr<Server> server;
};

ServerHandle start_server(std::size_t jobs = 2, const std::string& store = "",
                          std::size_t queue_capacity = 256,
                          double retry_after = 0.001,
                          const std::string& http_endpoint = "",
                          double drain_grace = 0.0) {
  ServerHandle h;
  h.endpoint = fresh_path(".sock");
  ServerOptions opts;
  opts.endpoint = h.endpoint;
  opts.store_path = store;
  opts.jobs = jobs;
  opts.queue_capacity = queue_capacity;
  opts.retry_after_seconds = retry_after;
  opts.http_endpoint = http_endpoint;
  opts.drain_grace_seconds = drain_grace;
  h.server = std::make_unique<Server>(opts, resolve_model);
  const Status started = h.server->start();
  EXPECT_TRUE(started.is_ok()) << started.to_string();
  return h;
}

/// Reads one frame and parses it; fails the test on transport errors.
json::Value read_json(int fd, FrameDecoder& dec) {
  std::string payload;
  const Status got = read_frame(fd, dec, &payload);
  EXPECT_TRUE(got.is_ok()) << got.to_string();
  if (!got.is_ok()) return {};
  auto v = json::parse(payload);
  EXPECT_TRUE(v.is_ok()) << payload;
  return v.is_ok() ? std::move(v.value()) : json::Value{};
}

std::string field(const json::Value& v, const char* name) {
  const json::Value* f = v.find(name);
  return f != nullptr ? f->str_or("") : "";
}

TEST(Server, GarbagePayloadGetsErrorFrameAndConnectionSurvives) {
  ServerHandle h = start_server();
  auto fd = connect_endpoint(h.endpoint);
  ASSERT_TRUE(fd.is_ok()) << fd.status().to_string();
  FrameDecoder dec;

  // Non-UTF8 garbage inside an intact frame: framing stays synchronized, so
  // the server answers with a clean error frame and keeps the connection.
  ASSERT_TRUE(send_frame(fd.value(), "\x80\x81\xfe not json").is_ok());
  json::Value err = read_json(fd.value(), dec);
  EXPECT_EQ(field(err, "type"), "error");
  EXPECT_EQ(field(err, "code"), "bad_frame");

  ASSERT_TRUE(send_frame(fd.value(), "{\"type\":\"stats\"}").is_ok());
  json::Value stats = read_json(fd.value(), dec);
  EXPECT_EQ(field(stats, "type"), "stats_ok");
  const json::Value* bad = stats.find("bad_frames");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->int_or(0), 1);
  ::close(fd.value());
}

TEST(Server, FramingCorruptionGetsErrorFrameThenClose) {
  ServerHandle h = start_server();
  auto fd = connect_endpoint(h.endpoint);
  ASSERT_TRUE(fd.is_ok());
  // Raw garbage bytes, no valid magic: the stream cannot be resynchronized.
  const char garbage[] = "this is not a PF01 stream at all";
  ASSERT_GT(::send(fd.value(), garbage, sizeof garbage - 1, 0), 0);
  FrameDecoder dec;
  json::Value err = read_json(fd.value(), dec);
  EXPECT_EQ(field(err, "type"), "error");
  EXPECT_EQ(field(err, "code"), "bad_frame");
  // ...and then the server hangs up.
  std::string payload;
  const Status eof = read_frame(fd.value(), dec, &payload);
  EXPECT_FALSE(eof.is_ok());
  EXPECT_EQ(eof.code(), StatusCode::kNotFound);
  ::close(fd.value());
}

TEST(Server, UnknownModelAndEvalBeforeHelloAreCleanErrors) {
  ServerHandle h = start_server();
  auto fd = connect_endpoint(h.endpoint);
  ASSERT_TRUE(fd.is_ok());
  FrameDecoder dec;

  ASSERT_TRUE(send_frame(fd.value(),
                         "{\"type\":\"eval\",\"id\":1,\"key\":\"48\","
                         "\"stream\":0}")
                  .is_ok());
  json::Value err = read_json(fd.value(), dec);
  EXPECT_EQ(field(err, "code"), "bad_request");

  ASSERT_TRUE(send_frame(fd.value(),
                         "{\"type\":\"hello\",\"id\":2,\"proto\":1,"
                         "\"model\":\"nope\"}")
                  .is_ok());
  err = read_json(fd.value(), dec);
  EXPECT_EQ(field(err, "code"), "unknown_model");

  // The connection survived both rejections.
  ASSERT_TRUE(send_frame(fd.value(), "{\"type\":\"stats\"}").is_ok());
  EXPECT_EQ(field(read_json(fd.value(), dec), "type"), "stats_ok");
  ::close(fd.value());
}

TEST(Server, DigestMismatchRejectsTheHello) {
  ServerHandle h = start_server();
  ServeClient::Options copts;
  copts.endpoints = {h.endpoint};
  copts.model = "funarc";
  copts.target_digest = 0xdeadbeef;  // deliberately wrong
  auto client = ServeClient::connect(copts);
  ASSERT_FALSE(client.is_ok());
  EXPECT_NE(client.status().message().find("digest_mismatch"),
            std::string::npos);

  copts.target_digest = target_digest(models::funarc_target());
  auto good = ServeClient::connect(copts);
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
  EXPECT_EQ(good.value()->namespace_hex().size(), 16u);
}

// --- served-vs-local determinism ------------------------------------------

/// Bit-identical comparison of every Evaluation field (doubles with
/// operator==, deliberately: the contract is exact reproduction).
void expect_same_eval(const tuner::Evaluation& a, const tuner::Evaluation& b,
                      int id) {
  EXPECT_EQ(a.outcome, b.outcome) << "variant " << id;
  EXPECT_EQ(a.detail, b.detail) << "variant " << id;
  EXPECT_EQ(a.metric, b.metric) << "variant " << id;
  EXPECT_EQ(a.error, b.error) << "variant " << id;
  EXPECT_EQ(a.hotspot_cycles, b.hotspot_cycles) << "variant " << id;
  EXPECT_EQ(a.whole_cycles, b.whole_cycles) << "variant " << id;
  EXPECT_EQ(a.cast_cycles, b.cast_cycles) << "variant " << id;
  EXPECT_EQ(a.measured_cycles, b.measured_cycles) << "variant " << id;
  EXPECT_EQ(a.speedup, b.speedup) << "variant " << id;
  EXPECT_EQ(a.fraction32, b.fraction32) << "variant " << id;
  EXPECT_EQ(a.wrappers, b.wrappers) << "variant " << id;
  EXPECT_EQ(a.proc_mean_cycles, b.proc_mean_cycles) << "variant " << id;
  EXPECT_EQ(a.proc_calls, b.proc_calls) << "variant " << id;
  EXPECT_EQ(a.node_seconds, b.node_seconds) << "variant " << id;
}

void expect_same_campaign(const tuner::CampaignResult& local,
                          const tuner::CampaignResult& served) {
  const tuner::SearchResult& a = local.search;
  const tuner::SearchResult& b = served.search;
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].id, b.records[i].id);
    EXPECT_EQ(a.records[i].config, b.records[i].config)
        << "variant " << a.records[i].id;
    expect_same_eval(a.records[i].eval, b.records[i].eval, a.records[i].id);
  }
  EXPECT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best.has_value() && b.best.has_value()) {
    EXPECT_EQ(*a.best, *b.best);
  }
  EXPECT_EQ(a.best_speedup, b.best_speedup);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.one_minimal, b.one_minimal);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(local.summary.best_speedup, served.summary.best_speedup);
  EXPECT_EQ(local.summary.total, served.summary.total);
  EXPECT_EQ(local.summary.wall_hours, served.summary.wall_hours);
  EXPECT_EQ(local.final_kinds, served.final_kinds);
}

tuner::CampaignOptions campaign_options(const std::string& model,
                                        std::size_t jobs) {
  tuner::CampaignOptions opts;
  opts.jobs = jobs;
  if (model == "MPAS-A") {
    opts.cluster.wall_budget_seconds = 3600.0;
    opts.max_variants = 40;
  }
  return opts;
}

tuner::TargetSpec spec_for(const std::string& model) {
  return model == "MPAS-A" ? models::mpas_target() : models::funarc_target();
}

tuner::CampaignResult run_local(const std::string& model, std::size_t jobs) {
  auto result = tuner::run_campaign(spec_for(model), campaign_options(model, jobs));
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result.value());
}

tuner::CampaignResult run_served(const std::string& model, std::size_t jobs,
                                 const std::string& endpoint) {
  ServeClient::Options copts;
  copts.endpoints = {endpoint};
  copts.model = model;
  copts.target_digest = target_digest(spec_for(model));
  auto client = ServeClient::connect(copts);
  EXPECT_TRUE(client.is_ok()) << client.status().to_string();
  tuner::CampaignOptions opts = campaign_options(model, jobs);
  opts.backend = client.is_ok() ? client.value().get() : nullptr;
  auto result = tuner::run_campaign(spec_for(model), opts);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result.value());
}

// The model travels as a std::string, not a `const char*`: the parameter is
// printed into every discovered test name, and a pointer would put its
// load-address-dependent value there.
class ServedDeterminism
    : public ::testing::TestWithParam<std::pair<std::string, std::size_t>> {};

TEST_P(ServedDeterminism, TwoConcurrentClientsBitIdenticalToLocal) {
  const auto [model, jobs] = GetParam();
  const tuner::CampaignResult local = run_local(model, 1);

  ServerHandle h = start_server(/*jobs=*/4);
  // Two clients race through the same namespace concurrently — coalescing
  // and arrival order must not leak into either result.
  tuner::CampaignResult first, second;
  std::thread t1([&] { first = run_served(model, jobs, h.endpoint); });
  std::thread t2([&] { second = run_served(model, jobs, h.endpoint); });
  t1.join();
  t2.join();
  expect_same_campaign(local, first);
  expect_same_campaign(local, second);

  const ServerStats stats = h.server->stats();
  EXPECT_GT(stats.requests, 0u);
  // Whatever the interleaving, the two campaigns share one result set: every
  // distinct (config, stream) is executed at most once.
  EXPECT_LE(stats.evals_executed, local.search.records.size() + 1);
  EXPECT_GE(stats.store_hits + stats.coalesced, stats.evals_executed);
}

INSTANTIATE_TEST_SUITE_P(
    Models, ServedDeterminism,
    ::testing::Values(std::make_pair(std::string("funarc"), std::size_t{1}),
                      std::make_pair(std::string("funarc"), std::size_t{4}),
                      std::make_pair(std::string("MPAS-A"), std::size_t{1}),
                      std::make_pair(std::string("MPAS-A"), std::size_t{4})),
    [](const auto& info) {
      return (info.param.first == "MPAS-A" ? std::string("mpas")
                                           : info.param.first) +
             "_jobs" + std::to_string(info.param.second);
    });

TEST(ServedDeterminism, BusyBackpressureDegradesLatencyNotResults) {
  const tuner::CampaignResult local = run_local("funarc", 1);
  // A one-deep admission queue forces busy rejections under a jobs=4
  // client; the retry path must still converge to the identical result.
  ServerHandle h = start_server(/*jobs=*/1, /*store=*/"",
                                /*queue_capacity=*/1, /*retry_after=*/0.001);
  expect_same_campaign(local, run_served("funarc", 4, h.endpoint));
}

TEST(ServedDeterminism, WarmStoreServesRepeatCampaignsWithoutExecuting) {
  const std::string store = fresh_path(".store");
  const tuner::CampaignResult local = run_local("funarc", 1);

  std::uint64_t cold_evals = 0;
  {
    ServerHandle h = start_server(/*jobs=*/2, store);
    expect_same_campaign(local, run_served("funarc", 1, h.endpoint));
    cold_evals = h.server->stats().evals_executed;
    EXPECT_GT(cold_evals, 0u);
    h.server->shutdown();
    h.server->wait();
  }
  {
    // A fresh daemon over the same store: ≥90% of requests must be served
    // from disk (here: all of them — the namespace is identical).
    ServerHandle h = start_server(/*jobs=*/2, store);
    expect_same_campaign(local, run_served("funarc", 1, h.endpoint));
    const ServerStats stats = h.server->stats();
    EXPECT_EQ(stats.evals_executed, 0u);
    EXPECT_GT(stats.requests, 0u);
    EXPECT_GE(stats.store_hits * 10, stats.requests * 9);
  }
  std::remove(store.c_str());
}

// --- observability --------------------------------------------------------

TEST(ServeObservability, MetricsEndpointServesLintCleanPageAndHealthFlips) {
  const std::string http = fresh_path(".http.sock");
  const std::string store = fresh_path(".store");
  ServerHandle h = start_server(/*jobs=*/2, store,
                                /*queue_capacity=*/256, /*retry_after=*/0.001,
                                http, /*drain_grace=*/0.5);
  ASSERT_EQ(h.server->http_endpoint(), "unix:" + http);  // normalized

  int status = 0;
  auto health = obs::http_get(http, "/healthz", &status);
  ASSERT_TRUE(health.is_ok()) << health.status().to_string();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(health.value(), "ok\n");

  const tuner::CampaignResult served = run_served("funarc", 1, h.endpoint);
  ASSERT_GT(served.summary.total, 0u);

  auto page = obs::http_get(http, "/metrics", &status);
  ASSERT_TRUE(page.is_ok()) << page.status().to_string();
  EXPECT_EQ(status, 200);
  std::string err;
  EXPECT_TRUE(obs::lint_prometheus(page.value(), &err)) << err;

  // The scraped series agree with the wire-protocol stats.
  obs::MetricsSnapshot snap;
  ASSERT_TRUE(obs::parse_prometheus(page.value(), &snap, &err)) << err;
  const ServerStats stats = h.server->stats();
  EXPECT_EQ(snap.value("prose_serve_requests_total"),
            static_cast<double>(stats.requests));
  EXPECT_EQ(snap.value("prose_serve_evals_total"),
            static_cast<double>(stats.evals_executed));
  EXPECT_EQ(snap.value("prose_serve_connections_total"),
            static_cast<double>(stats.connections));
  EXPECT_GT(snap.value("prose_serve_frames_in_total"), 0.0);
  EXPECT_GT(snap.value("prose_serve_frames_out_total"), 0.0);
  EXPECT_GT(snap.value("prose_serve_store_appends_total"), 0.0);
  EXPECT_GT(snap.value("prose_serve_store_bytes_total"), 0.0);
  const obs::SeriesSnapshot* rpc = snap.find("prose_serve_rpc_seconds");
  ASSERT_NE(rpc, nullptr);
  EXPECT_GT(rpc->hist.count, 0u);
  const obs::SeriesSnapshot* eval = snap.find("prose_serve_eval_seconds");
  ASSERT_NE(eval, nullptr);
  EXPECT_GT(eval->hist.count, 0u);
  EXPECT_NE(snap.find("prose_serve_queue_depth"), nullptr);
  EXPECT_NE(snap.find("prose_trace_events_total"), nullptr);

  // /healthz flips to 503 the moment the drain starts, and the listener
  // stays up through the grace window so pollers can observe it.
  std::thread drainer([&] { h.server->shutdown(); });
  int drain_status = 0;
  for (int i = 0; i < 100; ++i) {
    auto draining = obs::http_get(http, "/healthz", &drain_status);
    if (draining.is_ok() && drain_status == 503) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(drain_status, 503);
  drainer.join();
  h.server->wait();
  std::remove(store.c_str());
}

TEST(ServeObservability, ClientCountsBusyRetriesAndSurfacesThemInSummary) {
  const tuner::CampaignResult local = run_local("funarc", 1);
  // A one-deep admission queue under a jobs=4 client forces busy rounds;
  // the client tallies them and the campaign surfaces the tally.
  ServerHandle h = start_server(/*jobs=*/1, /*store=*/"",
                                /*queue_capacity=*/1, /*retry_after=*/0.001);
  ServeClient::Options copts;
  copts.endpoints = {h.endpoint};
  copts.model = "funarc";
  copts.target_digest = target_digest(spec_for("funarc"));
  auto client = ServeClient::connect(copts);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  tuner::CampaignOptions opts = campaign_options("funarc", 4);
  opts.backend = client.value().get();
  auto served = tuner::run_campaign(spec_for("funarc"), opts);
  ASSERT_TRUE(served.is_ok()) << served.status().to_string();
  expect_same_campaign(local, *served);
  EXPECT_GT(served->summary.busy_retries, 0u);
  EXPECT_EQ(served->summary.busy_retries,
            client.value()->counters().busy_retries);
  // Registry mirror of the same tallies.
  EXPECT_EQ(served->summary.metrics.value("prose_client_busy_retries"),
            static_cast<double>(served->summary.busy_retries));
}

TEST(ServeObservability, DeadServerFallsBackLocallyAndCountsFallbacks) {
  const tuner::CampaignResult local = run_local("funarc", 1);
  ServerHandle h = start_server();
  ServeClient::Options copts;
  copts.endpoints = {h.endpoint};
  copts.model = "funarc";
  auto client = ServeClient::connect(copts);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  // Kill the daemon before the campaign: every remote batch fails, the
  // evaluator computes locally, and the degradation is tallied — results
  // bit-identical regardless.
  h.server->shutdown();
  h.server->wait();
  tuner::CampaignOptions opts = campaign_options("funarc", 1);
  opts.backend = client.value().get();
  auto served = tuner::run_campaign(spec_for("funarc"), opts);
  ASSERT_TRUE(served.is_ok()) << served.status().to_string();
  expect_same_campaign(local, *served);
  EXPECT_GT(served->summary.fallbacks, 0u);
  EXPECT_EQ(served->summary.fallbacks,
            client.value()->counters().fallback_items);
  EXPECT_EQ(served->summary.metrics.value("prose_client_fallback_items"),
            static_cast<double>(served->summary.fallbacks));
}

TEST(ServedDeterminism, ShutdownDrainsBeforeReturning) {
  ServerHandle h = start_server();
  ServeClient::Options copts;
  copts.endpoints = {h.endpoint};
  copts.model = "funarc";
  auto client = ServeClient::connect(copts);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  h.server->shutdown();
  h.server->wait();
  // After the drain the endpoint is gone: new connections fail cleanly.
  EXPECT_FALSE(connect_endpoint(h.endpoint).is_ok());
  // Shutdown is idempotent.
  h.server->shutdown();
  h.server->wait();
}

}  // namespace
}  // namespace prose::serve
