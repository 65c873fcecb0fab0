// A reimplementation of the General Purpose Timing Library (GPTL) surface the
// paper uses to collect hotspot CPU time (§III-E).
//
// The paper instruments Fortran hotspots with gptl_start/gptl_stop region
// pairs and reports per-region CPU time; Figure 6 is built from the average
// CPU time *per call* of each procedure. We reproduce that API over a
// simulated cycle clock: the VM advances the clock as it executes and charges
// cycles to the innermost open region, so attribution works exactly like a
// sampling-free instrumented build.
//
// Timing overhead: the paper reports 1–7% instrumentation overhead. Each
// start/stop pair here charges a configurable number of cycles to the region
// (and transitively to its ancestors), so high-frequency regions show higher
// relative overhead — the same mechanism that produces the paper's range.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/status.h"

namespace prose::gptl {

/// Monotone simulated clock measured in machine cycles (doubles, since the
/// cost model produces fractional amortized costs for vectorized ops).
class SimClock {
 public:
  void advance(double cycles) {
    PROSE_CHECK(cycles >= 0.0);
    now_ += cycles;
  }
  /// Monotone absolute update. Lets an execution engine accumulate cycles in
  /// a register-resident local and publish the exact sum it computed (an
  /// advance(target - now()) round-trip would not be bit-exact).
  void set_now(double cycles) {
    if (cycles < now_) [[unlikely]] backwards(cycles);
    now_ = cycles;
  }
  [[nodiscard]] double now() const { return now_; }
  void reset() { now_ = 0.0; }

 private:
  /// set_now's failed monotonicity check, out of line so that set_now
  /// inlines into the engines' hot paths as a compare and a store.
  [[noreturn]] void backwards(double cycles) const;

  double now_ = 0.0;
};

/// Accumulated statistics for one named region.
struct RegionStats {
  std::string name;
  std::uint64_t calls = 0;
  double inclusive_cycles = 0.0;  // time with children included
  double exclusive_cycles = 0.0;  // time with children excluded
  double min_call_cycles = 0.0;   // fastest single call (inclusive); seeded by
                                  // the first completed call, 0 only when calls == 0
  double max_call_cycles = 0.0;   // slowest single call (inclusive)
  double overhead_cycles = 0.0;   // instrumentation cost charged here

  [[nodiscard]] double mean_call_cycles() const {
    return calls == 0 ? 0.0 : inclusive_cycles / static_cast<double>(calls);
  }
};

struct TimerOptions {
  /// Cycles charged per start/stop pair (instrumentation overhead).
  double overhead_cycles_per_pair = 40.0;
  /// Reject stop() of a region that is not the innermost open one.
  bool strict_nesting = true;
};

/// The timer registry. One instance per simulated process/run.
class Timers {
 public:
  explicit Timers(SimClock* clock, TimerOptions options = {});

  /// Opens a region. Regions may nest and recurse; recursive re-entry is
  /// counted once per entry with inner time attributed to the same region.
  Status start(const std::string& name);

  /// Closes the innermost region; `name` must match under strict nesting.
  Status stop(const std::string& name);

  /// The index of the region `name`, registering it (with no calls) on first
  /// use. A caller that opens one region many times looks it up once and
  /// passes the index to start/stop, which then build no string.
  std::size_t region(const std::string& name);
  Status start(std::size_t region_index);
  Status stop(std::size_t region_index);

  /// Charges cycles to the clock and to the innermost open region's
  /// *exclusive* time. Test fixture: gptl_test drives simulated work with
  /// it; the VM publishes its cycles through SimClock::set_now instead.
  void charge(double cycles);

  [[nodiscard]] bool any_open() const { return !stack_.empty(); }
  [[nodiscard]] std::size_t depth() const { return stack_.size(); }

  /// Stats for one region; NotFound if the region was never started.
  [[nodiscard]] StatusOr<RegionStats> stats(const std::string& name) const;

  /// All regions, sorted by descending inclusive time.
  [[nodiscard]] std::vector<RegionStats> all_stats() const;

  /// Total instrumentation overhead across all regions. Test oracle:
  /// gptl_test checks the overhead charged per start/stop pair with it.
  [[nodiscard]] double total_overhead() const;

  /// Fraction of the named region's inclusive time that is instrumentation
  /// overhead. Test oracle: gptl_test and sim_cost_test check the paper's
  /// "1%-7%" instrumentation overhead with it.
  [[nodiscard]] double overhead_fraction(const std::string& name) const;

 private:
  struct Frame {
    std::size_t region_index;
    double entry_time;
    double child_cycles = 0.0;  // cycles attributed to nested regions
  };

  Status nesting_error(const std::string& name) const;

  SimClock* clock_;  // non-owning; outlives this registry
  TimerOptions options_;
  std::vector<RegionStats> regions_;
  std::map<std::string, std::size_t> index_;
  std::vector<Frame> stack_;
};

}  // namespace prose::gptl
