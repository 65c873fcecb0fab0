// Determinism contract of parallel batch evaluation: a delta-debugging
// search run with any worker count produces a SearchResult bit-identical to
// the serial run — same records in the same order, same noise-stream draws
// (hence the exact same speedup doubles), same cache-hit accounting.
//
// Each model's serial SearchResult is checked in as one line of
// tests/golden/search_goldens.txt. jobs1 checks the serial run against it
// and jobs2/4/8 their own runs, so by transitivity every worker count
// reproduces the serial result without re-running it in each test process.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "golden.h"
#include "models/models.h"
#include "support/thread_pool.h"
#include "tuner/search.h"

namespace prose::tuner {
namespace {

using prose::testing::search_line;

SearchResult run_delta_debug(const TargetSpec& spec, std::size_t jobs) {
  auto ev = Evaluator::create(spec);
  EXPECT_TRUE(ev.is_ok()) << ev.status().to_string();
  SearchOptions opts;
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) {
    pool = std::make_unique<ThreadPool>(jobs);
    opts.pool = pool.get();
  }
  return delta_debug_search(**ev, opts);
}

/// Bit-identical comparison of every Evaluation field (doubles compared with
/// operator==, deliberately: the contract is exact reproduction, not
/// tolerance).
void expect_same_eval(const Evaluation& a, const Evaluation& b, int id) {
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

void expect_same_result(const SearchResult& serial, const SearchResult& parallel) {
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].id, parallel.records[i].id);
    EXPECT_EQ(serial.records[i].config, parallel.records[i].config)
        << "variant " << serial.records[i].id;
    expect_same_eval(serial.records[i].eval, parallel.records[i].eval,
                     serial.records[i].id);
  }
  EXPECT_EQ(serial.best.has_value(), parallel.best.has_value());
  if (serial.best.has_value() && parallel.best.has_value()) {
    EXPECT_EQ(*serial.best, *parallel.best);
  }
  EXPECT_EQ(serial.best_speedup, parallel.best_speedup);
  EXPECT_EQ(serial.accepted, parallel.accepted);
  EXPECT_EQ(serial.one_minimal, parallel.one_minimal);
  EXPECT_EQ(serial.budget_exhausted, parallel.budget_exhausted);
  EXPECT_EQ(serial.cache_hits, parallel.cache_hits);
  EXPECT_EQ(serial.statically_skipped, parallel.statically_skipped);
}

class ParallelDeterminism : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelDeterminism, FunarcBitIdenticalToSerial) {
  prose::testing::expect_golden(search_line(
      "search.funarc", run_delta_debug(models::funarc_target(), GetParam())));
}

TEST_P(ParallelDeterminism, MpasBitIdenticalToSerial) {
  prose::testing::expect_golden(search_line(
      "search.mpas", run_delta_debug(models::mpas_target(), GetParam())));
}

TEST_P(ParallelDeterminism, AdcircBitIdenticalToSerial) {
  prose::testing::expect_golden(search_line(
      "search.adcirc", run_delta_debug(models::adcirc_target(), GetParam())));
}

TEST_P(ParallelDeterminism, Mom6BitIdenticalToSerial) {
  prose::testing::expect_golden(search_line(
      "search.mom6", run_delta_debug(models::mom6_target(), GetParam())));
}

INSTANTIATE_TEST_SUITE_P(Jobs, ParallelDeterminism,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

TEST(ParallelDeterminism, SingleWorkerPoolMatchesSerialFallback) {
  // A pool of one worker takes the serial fast path inside evaluate_batch;
  // results must still match.
  auto ev = Evaluator::create(models::funarc_target());
  ASSERT_TRUE(ev.is_ok()) << ev.status().to_string();
  ThreadPool pool(1);
  SearchOptions opts;
  opts.pool = &pool;
  prose::testing::expect_golden(
      search_line("search.funarc", delta_debug_search(**ev, opts)));
}

TEST(ParallelDeterminism, VariantCapBitIdenticalUnderParallelism) {
  // The truncate-at-cap bookkeeping (budget_exhausted, the capping record)
  // must not depend on the worker count either.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    auto ev = Evaluator::create(models::funarc_target());
    ASSERT_TRUE(ev.is_ok()) << ev.status().to_string();
    SearchOptions opts;
    opts.max_variants = 5;
    std::unique_ptr<ThreadPool> pool;
    if (jobs > 1) {
      pool = std::make_unique<ThreadPool>(jobs);
      opts.pool = pool.get();
    }
    const SearchResult result = delta_debug_search(**ev, opts);
    if (jobs == 1) continue;
    auto ev_serial = Evaluator::create(models::funarc_target());
    ASSERT_TRUE(ev_serial.is_ok());
    SearchOptions serial_opts;
    serial_opts.max_variants = 5;
    expect_same_result(delta_debug_search(**ev_serial, serial_opts), result);
  }
}

}  // namespace
}  // namespace prose::tuner
