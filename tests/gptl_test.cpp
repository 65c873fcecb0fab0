// GPTL-style timer substrate tests: nesting, attribution, overhead.
#include <gtest/gtest.h>

#include "gptl/gptl.h"

namespace prose::gptl {
namespace {

TimerOptions no_overhead() {
  TimerOptions o;
  o.overhead_cycles_per_pair = 0.0;
  return o;
}

TEST(Gptl, SingleRegionAccumulates) {
  SimClock clock;
  Timers t(&clock, no_overhead());
  ASSERT_TRUE(t.start("work").is_ok());
  t.charge(100.0);
  ASSERT_TRUE(t.stop("work").is_ok());
  auto s = t.stats("work");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s->calls, 1u);
  EXPECT_DOUBLE_EQ(s->inclusive_cycles, 100.0);
  EXPECT_DOUBLE_EQ(s->exclusive_cycles, 100.0);
}

TEST(Gptl, NestedExclusiveAttribution) {
  SimClock clock;
  Timers t(&clock, no_overhead());
  ASSERT_TRUE(t.start("outer").is_ok());
  t.charge(10.0);
  ASSERT_TRUE(t.start("inner").is_ok());
  t.charge(30.0);
  ASSERT_TRUE(t.stop("inner").is_ok());
  t.charge(5.0);
  ASSERT_TRUE(t.stop("outer").is_ok());

  auto outer = t.stats("outer");
  auto inner = t.stats("inner");
  ASSERT_TRUE(outer.is_ok());
  ASSERT_TRUE(inner.is_ok());
  EXPECT_DOUBLE_EQ(outer->inclusive_cycles, 45.0);
  EXPECT_DOUBLE_EQ(outer->exclusive_cycles, 15.0);
  EXPECT_DOUBLE_EQ(inner->inclusive_cycles, 30.0);
  EXPECT_DOUBLE_EQ(inner->exclusive_cycles, 30.0);
}

TEST(Gptl, PerCallStatistics) {
  SimClock clock;
  Timers t(&clock, no_overhead());
  for (const double c : {10.0, 30.0, 20.0}) {
    ASSERT_TRUE(t.start("r").is_ok());
    t.charge(c);
    ASSERT_TRUE(t.stop("r").is_ok());
  }
  auto s = t.stats("r");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s->calls, 3u);
  EXPECT_DOUBLE_EQ(s->mean_call_cycles(), 20.0);
  EXPECT_DOUBLE_EQ(s->min_call_cycles, 10.0);
  EXPECT_DOUBLE_EQ(s->max_call_cycles, 30.0);
}

TEST(Gptl, MinCallCyclesSeededByFirstCall) {
  // Regression: min_call_cycles is zero-initialized; the first completed call
  // must seed it rather than min() against the initial 0, which would pin
  // the reported minimum at 0 forever.
  SimClock clock;
  Timers t(&clock, no_overhead());
  for (const double c : {250.0, 90.0}) {
    ASSERT_TRUE(t.start("seeded").is_ok());
    t.charge(c);
    ASSERT_TRUE(t.stop("seeded").is_ok());
  }
  auto s = t.stats("seeded");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s->calls, 2u);
  EXPECT_GT(s->min_call_cycles, 0.0);
  EXPECT_DOUBLE_EQ(s->min_call_cycles, 90.0);
  EXPECT_DOUBLE_EQ(s->max_call_cycles, 250.0);

  // Ascending order must seed from the first call too, not stay at 0.
  Timers t2(&clock, no_overhead());
  for (const double c : {90.0, 250.0}) {
    ASSERT_TRUE(t2.start("seeded").is_ok());
    t2.charge(c);
    ASSERT_TRUE(t2.stop("seeded").is_ok());
  }
  auto s2 = t2.stats("seeded");
  ASSERT_TRUE(s2.is_ok());
  EXPECT_GT(s2->min_call_cycles, 0.0);
  EXPECT_DOUBLE_EQ(s2->min_call_cycles, 90.0);
}

TEST(Gptl, RecursiveRegion) {
  SimClock clock;
  Timers t(&clock, no_overhead());
  ASSERT_TRUE(t.start("rec").is_ok());
  t.charge(10.0);
  ASSERT_TRUE(t.start("rec").is_ok());
  t.charge(20.0);
  ASSERT_TRUE(t.stop("rec").is_ok());
  ASSERT_TRUE(t.stop("rec").is_ok());
  auto s = t.stats("rec");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s->calls, 2u);
  // Inner 20 counts in both the inner call and the outer inclusive window.
  EXPECT_DOUBLE_EQ(s->inclusive_cycles, 50.0);
  EXPECT_DOUBLE_EQ(s->exclusive_cycles, 30.0);
}

TEST(Gptl, StrictNestingRejectsOutOfOrderStop) {
  SimClock clock;
  Timers t(&clock);
  ASSERT_TRUE(t.start("a").is_ok());
  ASSERT_TRUE(t.start("b").is_ok());
  EXPECT_FALSE(t.stop("a").is_ok());
}

TEST(Gptl, RegionIndexPathMatchesNamedPath) {
  // region() interns without opening; start/stop by index account exactly
  // as by name, and strict nesting compares the indices.
  SimClock by_name_clock;
  Timers by_name(&by_name_clock);
  SimClock by_index_clock;
  Timers by_index(&by_index_clock);
  const std::size_t outer = by_index.region("outer");
  const std::size_t inner = by_index.region("inner");
  EXPECT_EQ(by_index.region("outer"), outer);
  EXPECT_NE(inner, outer);
  EXPECT_EQ(by_index.stats("outer")->calls, 0u);  // registered, never run
  for (int rep = 0; rep < 2; ++rep) {
    ASSERT_TRUE(by_name.start("outer").is_ok());
    ASSERT_TRUE(by_index.start(outer).is_ok());
    by_name.charge(10.0);
    by_index.charge(10.0);
    ASSERT_TRUE(by_name.start("inner").is_ok());
    ASSERT_TRUE(by_index.start(inner).is_ok());
    by_name.charge(7.0 + rep);
    by_index.charge(7.0 + rep);
    const Status wrong = by_index.stop(outer);
    EXPECT_FALSE(wrong.is_ok());
    EXPECT_EQ(wrong.message(),
              "stop('outer') but innermost open region is 'inner'");
    ASSERT_TRUE(by_name.stop("inner").is_ok());
    ASSERT_TRUE(by_index.stop(inner).is_ok());
    ASSERT_TRUE(by_name.stop("outer").is_ok());
    ASSERT_TRUE(by_index.stop(outer).is_ok());
  }
  EXPECT_EQ(by_index.stop(outer).message(), "stop('outer') with no open region");
  EXPECT_EQ(by_name_clock.now(), by_index_clock.now());
  for (const char* name : {"outer", "inner"}) {
    const RegionStats a = by_name.stats(name).value();
    const RegionStats b = by_index.stats(name).value();
    EXPECT_EQ(a.calls, b.calls) << name;
    EXPECT_EQ(a.inclusive_cycles, b.inclusive_cycles) << name;
    EXPECT_EQ(a.exclusive_cycles, b.exclusive_cycles) << name;
    EXPECT_EQ(a.min_call_cycles, b.min_call_cycles) << name;
    EXPECT_EQ(a.max_call_cycles, b.max_call_cycles) << name;
    EXPECT_EQ(a.overhead_cycles, b.overhead_cycles) << name;
  }
}

TEST(Gptl, StopWithoutStartIsAnError) {
  SimClock clock;
  Timers t(&clock);
  EXPECT_FALSE(t.stop("never").is_ok());
}

TEST(Gptl, EmptyRegionNameIsAnError) {
  SimClock clock;
  Timers t(&clock);
  EXPECT_FALSE(t.start("").is_ok());
}

TEST(Gptl, OverheadIsChargedAndReported) {
  // The paper reports 1-7% timing overhead; the substrate models it as
  // cycles per start/stop pair so high-frequency regions pay more.
  SimClock clock;
  TimerOptions opts;
  opts.overhead_cycles_per_pair = 10.0;
  Timers t(&clock, opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.start("hot").is_ok());
    t.charge(190.0);  // 10 overhead on 190 work = 5%
    ASSERT_TRUE(t.stop("hot").is_ok());
  }
  EXPECT_DOUBLE_EQ(t.total_overhead(), 1000.0);
  EXPECT_NEAR(t.overhead_fraction("hot"), 10.0 / 195.0, 1e-9);
  // Clock advanced by work + overhead.
  EXPECT_DOUBLE_EQ(clock.now(), 100 * 200.0);
}

TEST(Gptl, AllStatsSortedByInclusiveTime) {
  SimClock clock;
  Timers t(&clock, no_overhead());
  ASSERT_TRUE(t.start("small").is_ok());
  t.charge(1.0);
  ASSERT_TRUE(t.stop("small").is_ok());
  ASSERT_TRUE(t.start("big").is_ok());
  t.charge(100.0);
  ASSERT_TRUE(t.stop("big").is_ok());
  const auto all = t.all_stats();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "big");
}

}  // namespace
}  // namespace prose::gptl
