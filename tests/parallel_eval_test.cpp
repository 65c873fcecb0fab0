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

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "golden.h"
#include "models/models.h"
#include "obs/metrics.h"
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
  // A pool of one worker computes the batch in order on the calling thread,
  // like no pool at all; results must still match.
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

/// Holds the batch of whichever caller plans first until the registry has
/// counted `target` cache lookups — i.e. until the other caller has planned
/// its batch against the same, still in-flight keys — then reports a
/// transport failure for every item, so the holder computes them locally.
/// This makes the cross-caller single-flight wait happen every run instead
/// of depending on thread timing.
class HoldUntilLookups : public EvalBackend {
 public:
  HoldUntilLookups(const obs::Counter* lookups, std::uint64_t target)
      : lookups_(lookups), target_(target) {}
  std::vector<RemoteItem> evaluate_many(
      std::span<const Config> configs,
      std::span<const std::uint64_t> /*streams*/) override {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (lookups_->value() < target_ &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::vector<RemoteItem>(configs.size());
  }

 private:
  const obs::Counter* lookups_;
  std::uint64_t target_;
};

TEST(ParallelDeterminism, ConcurrentCallersSingleFlightEachKey) {
  // Two threads evaluate the same six keys at once, one in proposal order
  // on a pool, the other reversed with no pool. Whichever plans second finds
  // every key in flight and must wait for the first: each key is computed
  // exactly once, and both callers see the same, finished evaluation.
  auto created = Evaluator::create(models::funarc_target());
  ASSERT_TRUE(created.is_ok()) << created.status().to_string();
  Evaluator& ev = **created;
  obs::Registry registry;
  ev.set_metrics(&registry);
  HoldUntilLookups backend(
      registry.counter("prose_eval_cache_lookups_total", "Memo-cache lookups"),
      12);
  ev.set_backend(&backend);

  std::vector<Config> forward;
  for (std::size_t i = 0; i < 6; ++i) {
    Config c = ev.space().uniform(8);
    c.kinds[i] = 4;
    forward.push_back(c);
  }
  const std::vector<Config> reversed(forward.rbegin(), forward.rend());

  struct Seen {
    std::vector<Evaluator::BatchItem> items;
    std::vector<Evaluation> copies;  // taken the moment the batch returned
  };
  const auto run = [&ev](const std::vector<Config>& configs, ThreadPool* pool,
                         Seen* seen) {
    seen->items = ev.evaluate_batch(configs, pool);
    for (const Evaluator::BatchItem& item : seen->items) {
      seen->copies.push_back(*item.eval);
    }
  };
  ThreadPool pool(2);
  Seen a;
  Seen b;
  std::thread ta(run, std::cref(forward), &pool, &a);
  std::thread tb(run, std::cref(reversed), nullptr, &b);
  ta.join();
  tb.join();

  EXPECT_EQ(ev.unique_evaluations(), 6u);
  EXPECT_EQ(registry.snapshot().value("prose_eval_attempts_total"), 6.0);
  ASSERT_EQ(a.items.size(), 6u);
  ASSERT_EQ(b.items.size(), 6u);
  int misses = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t j = 5 - i;  // b's position of forward[i]
    EXPECT_EQ(a.items[i].eval, b.items[j].eval) << "key " << i;
    EXPECT_NE(a.copies[i].whole_cycles, 0.0) << "key " << i;
    expect_same_eval(a.copies[i], b.copies[j], static_cast<int>(i));
    misses += (a.items[i].cache_hit ? 0 : 1) + (b.items[j].cache_hit ? 0 : 1);
  }
  EXPECT_EQ(misses, 6);
}

}  // namespace
}  // namespace prose::tuner
