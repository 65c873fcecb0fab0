// Metrics subsystem unit tests: histogram bucket boundaries (Prometheus
// `le`-inclusive semantics), quantile estimation error bounds, snapshot
// merge algebra (associative, commutative), exact totals under concurrent
// ThreadPool(8) increments, exposition-format round-trips, the in-repo
// promtool-style lint, the embedded HTTP listener, and trace::Span, the one
// timing scope that feeds a latency histogram and a trace span together.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/http.h"
#include "obs/metrics.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace prose::obs {
namespace {

// --- histogram buckets ----------------------------------------------------

TEST(Histogram, BucketBoundariesAreLeInclusive) {
  Registry reg;
  Histogram* h = reg.histogram("h_test", "test", {1.0, 2.0, 4.0});
  h->observe(0.5);  // bucket 0
  h->observe(1.0);  // bucket 0 — le semantics: v <= bound
  h->observe(1.5);  // bucket 1
  h->observe(2.0);  // bucket 1
  h->observe(4.0);  // bucket 2
  h->observe(4.5);  // +Inf overflow
  const MetricsSnapshot snap = reg.snapshot();
  const SeriesSnapshot* s = snap.find("h_test");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->kind, SeriesKind::kHistogram);
  ASSERT_EQ(s->hist.counts.size(), 4u);
  EXPECT_EQ(s->hist.counts[0], 2u);
  EXPECT_EQ(s->hist.counts[1], 2u);
  EXPECT_EQ(s->hist.counts[2], 1u);
  EXPECT_EQ(s->hist.counts[3], 1u);  // +Inf
  EXPECT_EQ(s->hist.count, 6u);
  EXPECT_DOUBLE_EQ(s->hist.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.5);
}

TEST(Histogram, PresetBucketShapes) {
  const std::vector<double> latency = latency_buckets_seconds();
  ASSERT_EQ(latency.size(), 12u);
  EXPECT_DOUBLE_EQ(latency.front(), 1e-4);
  const std::vector<double> sizes = size_buckets_bytes();
  ASSERT_EQ(sizes.size(), 8u);
  EXPECT_DOUBLE_EQ(sizes.front(), 64.0);
  EXPECT_DOUBLE_EQ(sizes.back(), 64.0 * 8 * 8 * 8 * 8 * 8 * 8 * 8);
  for (std::size_t i = 1; i < latency.size(); ++i) {
    EXPECT_LT(latency[i - 1], latency[i]);
  }
}

// --- quantile estimation --------------------------------------------------

TEST(HistogramSnapshot, QuantileErrorBoundedByBucketWidth) {
  // 100 uniform observations 0.5, 1.5, ..., 99.5 into width-10 buckets: the
  // interpolation estimator must land within one bucket width of the true
  // quantile for every q.
  Registry reg;
  std::vector<double> bounds;
  for (int b = 10; b <= 100; b += 10) bounds.push_back(b);
  Histogram* h = reg.histogram("h_q", "test", bounds);
  for (int i = 0; i < 100; ++i) h->observe(i + 0.5);
  const HistogramSnapshot hist = reg.snapshot().find("h_q")->hist;
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double truth = q * 100.0;  // uniform on [0, 100]
    EXPECT_NEAR(hist.quantile(q), truth, 10.0) << "q=" << q;
  }
  // Exact interior check: rank 50 of 100 sits at the middle of the 40..50
  // bucket's cumulative range.
  EXPECT_GE(hist.quantile(0.5), 40.0);
  EXPECT_LE(hist.quantile(0.5), 60.0);
}

TEST(HistogramSnapshot, QuantileEdgeCases) {
  Registry reg;
  Histogram* h = reg.histogram("h_edge", "test", {1.0, 2.0});
  EXPECT_EQ(reg.snapshot().find("h_edge")->hist.quantile(0.5), 0.0);  // empty
  h->observe(10.0);  // only the +Inf bucket
  const HistogramSnapshot hist = reg.snapshot().find("h_edge")->hist;
  // Ranks in the overflow bucket clamp to the highest finite bound.
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 2.0);
}

// --- merge algebra --------------------------------------------------------

MetricsSnapshot make_snapshot(std::uint64_t c, double g,
                              std::vector<double> observations) {
  Registry reg;
  reg.counter("c", "test")->inc(c);
  reg.gauge("g", "test")->set(g);
  Histogram* h = reg.histogram("h", "test", {1.0, 10.0, 100.0});
  for (const double v : observations) h->observe(v);
  return reg.snapshot();
}

void expect_same(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].name, b.series[i].name);
    EXPECT_EQ(a.series[i].kind, b.series[i].kind);
    EXPECT_DOUBLE_EQ(a.series[i].value, b.series[i].value);
    EXPECT_EQ(a.series[i].hist.counts, b.series[i].hist.counts);
    EXPECT_DOUBLE_EQ(a.series[i].hist.sum, b.series[i].hist.sum);
    EXPECT_EQ(a.series[i].hist.count, b.series[i].hist.count);
  }
}

TEST(MetricsSnapshot, MergeIsCommutative) {
  const MetricsSnapshot a = make_snapshot(3, 1.5, {0.5, 20.0});
  const MetricsSnapshot b = make_snapshot(7, 2.5, {5.0, 500.0});
  MetricsSnapshot ab = a;
  ab.merge(b);
  MetricsSnapshot ba = b;
  ba.merge(a);
  expect_same(ab, ba);
  EXPECT_DOUBLE_EQ(ab.value("c"), 10.0);
  EXPECT_DOUBLE_EQ(ab.value("g"), 4.0);
  EXPECT_DOUBLE_EQ(ab.value("h"), 4.0);  // histogram scalar view = count
}

TEST(MetricsSnapshot, MergeIsAssociative) {
  const MetricsSnapshot a = make_snapshot(1, 0.5, {0.1});
  const MetricsSnapshot b = make_snapshot(2, 1.0, {2.0, 3.0});
  const MetricsSnapshot c = make_snapshot(4, 2.0, {50.0, 5000.0});
  MetricsSnapshot left = a;
  left.merge(b);
  left.merge(c);
  MetricsSnapshot bc = b;
  bc.merge(c);
  MetricsSnapshot right = a;
  right.merge(bc);
  expect_same(left, right);
}

TEST(MetricsSnapshot, MergeAppendsUnknownSeries) {
  MetricsSnapshot a = make_snapshot(1, 1.0, {});
  Registry reg;
  reg.counter("other_total", "test")->inc(9);
  a.merge(reg.snapshot());
  EXPECT_DOUBLE_EQ(a.value("c"), 1.0);
  EXPECT_DOUBLE_EQ(a.value("other_total"), 9.0);
}

// --- registry semantics ---------------------------------------------------

TEST(Registry, ReRegistrationReturnsSameInstrument) {
  Registry reg;
  Counter* c1 = reg.counter("dup_total", "first");
  Counter* c2 = reg.counter("dup_total", "second registration ignored");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(reg.snapshot().series.size(), 1u);
  // Kind mismatch on an existing name is refused.
  EXPECT_EQ(reg.gauge("dup_total", "not a gauge"), nullptr);
  EXPECT_EQ(reg.histogram("dup_total", "not a histogram", {1.0}), nullptr);
}

// --- concurrency ----------------------------------------------------------

TEST(Registry, ConcurrentIncrementsAreExact) {
  Registry reg;
  Counter* c = reg.counter("conc_total", "test");
  Gauge* g = reg.gauge("conc_gauge", "test");
  Histogram* h = reg.histogram("conc_seconds", "test", {0.25, 0.5, 0.75});
  constexpr std::size_t kItems = 20000;
  ThreadPool pool(8);
  pool.for_each(kItems, [&](std::size_t i, std::size_t) {
    c->inc();
    g->add(1.0);
    h->observe(static_cast<double>(i % 4) * 0.25);
  });
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("conc_total"), static_cast<double>(kItems));
  EXPECT_DOUBLE_EQ(snap.value("conc_gauge"), static_cast<double>(kItems));
  const HistogramSnapshot hist = snap.find("conc_seconds")->hist;
  EXPECT_EQ(hist.count, kItems);
  ASSERT_EQ(hist.counts.size(), 4u);
  // i%4 in {0,1,2,3} → 0.0 and 0.25 share the first bucket (le-inclusive).
  EXPECT_EQ(hist.counts[0], kItems / 2);
  EXPECT_EQ(hist.counts[1], kItems / 4);
  EXPECT_EQ(hist.counts[2], kItems / 4);
  EXPECT_EQ(hist.counts[3], 0u);
}

// --- exposition format ----------------------------------------------------

TEST(Exposition, RenderedPagePassesLintAndRoundTrips) {
  Registry reg;
  reg.counter("x_requests_total", "Requests.")->inc(42);
  reg.gauge("x_depth", "Depth.")->set(3.5);
  Histogram* h = reg.histogram("x_seconds", "Latency.", {0.001, 0.01, 0.1});
  h->observe(0.0005);
  h->observe(0.05);
  h->observe(7.0);
  const MetricsSnapshot snap = reg.snapshot();
  const std::string page = to_prometheus(snap);

  std::string err;
  EXPECT_TRUE(lint_prometheus(page, &err)) << err << "\n" << page;
  EXPECT_NE(page.find("# TYPE x_requests_total counter"), std::string::npos);
  EXPECT_NE(page.find("# TYPE x_seconds histogram"), std::string::npos);
  EXPECT_NE(page.find("x_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(page.find("x_seconds_count 3"), std::string::npos);

  MetricsSnapshot back;
  ASSERT_TRUE(parse_prometheus(page, &back, &err)) << err;
  EXPECT_DOUBLE_EQ(back.value("x_requests_total"), 42.0);
  EXPECT_DOUBLE_EQ(back.value("x_depth"), 3.5);
  const SeriesSnapshot* hs = back.find("x_seconds");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->kind, SeriesKind::kHistogram);
  EXPECT_EQ(hs->hist.count, 3u);
  EXPECT_EQ(hs->hist.counts,
            (std::vector<std::uint64_t>{1u, 0u, 1u, 1u}));
  EXPECT_DOUBLE_EQ(hs->hist.sum, 0.0005 + 0.05 + 7.0);
}

TEST(Exposition, LintRejectsCorruptPages) {
  std::string err;
  // Metric-name syntax.
  EXPECT_FALSE(lint_prometheus("9bad_name 1\n", &err));
  // Unparsable value.
  EXPECT_FALSE(lint_prometheus("a_total 1.2.3\n", &err));
  // Duplicate sample.
  EXPECT_FALSE(lint_prometheus("a_total 1\na_total 2\n", &err));
  // Interleaved families.
  EXPECT_FALSE(lint_prometheus("a_total 1\nb_total 1\na_total 2\n", &err));
  // Histogram without a +Inf bucket.
  EXPECT_FALSE(lint_prometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
      &err));
  // Non-cumulative buckets.
  EXPECT_FALSE(lint_prometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
      &err));
  // _count disagrees with the +Inf bucket.
  EXPECT_FALSE(lint_prometheus(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
      &err));
  // And a well-formed hand-written page is accepted.
  EXPECT_TRUE(lint_prometheus(
      "# HELP h Latency.\n# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 9.5\nh_count 3\n",
      &err))
      << err;
}

// --- embedded HTTP listener -----------------------------------------------

TEST(HttpServer, ServesMetricsHealthAnd404) {
  Registry reg;
  reg.counter("http_hits_total", "Hits.")->inc(5);
  bool draining = false;
  const std::string endpoint =
      std::string(::testing::TempDir()) + "/obs_http_test.sock";
  auto server = HttpServer::start(endpoint, [&](const std::string& path) {
    HttpResponse resp;
    if (path == "/metrics") {
      resp.body = to_prometheus(reg.snapshot());
    } else if (path == "/healthz") {
      resp.status = draining ? 503 : 200;
      resp.body = draining ? "draining\n" : "ok\n";
    } else {
      resp.status = 404;
      resp.body = "not found\n";
    }
    return resp;
  });
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  int status = 0;
  auto metrics = http_get(endpoint, "/metrics", &status);
  ASSERT_TRUE(metrics.is_ok()) << metrics.status().to_string();
  EXPECT_EQ(status, 200);
  std::string err;
  EXPECT_TRUE(lint_prometheus(metrics.value(), &err)) << err;
  EXPECT_NE(metrics.value().find("http_hits_total 5"), std::string::npos);

  auto health = http_get(endpoint, "/healthz", &status);
  ASSERT_TRUE(health.is_ok());
  EXPECT_EQ(status, 200);
  EXPECT_EQ(health.value(), "ok\n");

  draining = true;
  health = http_get(endpoint, "/healthz", &status);
  ASSERT_TRUE(health.is_ok());
  EXPECT_EQ(status, 503);
  EXPECT_EQ(health.value(), "draining\n");

  auto missing = http_get(endpoint, "/nope", &status);
  ASSERT_TRUE(missing.is_ok());
  EXPECT_EQ(status, 404);
  (*server)->stop();
}

// --- the one timing scope -------------------------------------------------

TEST(Span, OneScopeFeedsTheTraceAndTheHistogram) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "obs_span_test.jsonl").string();
  Registry reg;
  Histogram* h = reg.histogram("stage_seconds", "test", {0.001, 1.0});
  {
    trace::TraceOptions opts;
    opts.jsonl_path = path;
    trace::Tracer t(opts);
    {
      trace::Span s(&t, trace::Track::evaluator(), "stage", {}, h);
      s.annotate({{"ok", true}});
    }
    ASSERT_TRUE(t.flush().is_ok());
  }
  EXPECT_EQ(h->count(), 1u);
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Span, HistogramScopeReadsItsExemplarAtClose) {
  Registry reg;
  Histogram* h = reg.histogram("rpc_seconds", "test", {1000.0});
  std::string exemplar;
  {
    const trace::Span s(h, &exemplar);
    exemplar = "trace-late";  // set after open, as a handler learns its id
  }
  { const trace::Span unlabeled(h); }
  {
    trace::Span failed(h);
    failed.drop_observation();  // a failed operation is no latency sample
  }
  const MetricsSnapshot snap = reg.snapshot();
  const SeriesSnapshot* s = snap.find("rpc_seconds");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->hist.count, 2u);
  ASSERT_EQ(s->hist.exemplars.size(), 2u);
  EXPECT_EQ(s->hist.exemplars[0].label, "trace-late");
}

}  // namespace
}  // namespace prose::obs
