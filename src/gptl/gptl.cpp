#include "gptl/gptl.h"

#include <algorithm>

namespace prose::gptl {

void SimClock::backwards(double cycles) const {
  detail::check_failed("cycles >= now_", __FILE__, __LINE__,
                       "set_now(" + std::to_string(cycles) + ") before now() = " +
                           std::to_string(now_));
}

Timers::Timers(SimClock* clock, TimerOptions options)
    : clock_(clock), options_(options) {
  PROSE_CHECK(clock_ != nullptr);
}

std::size_t Timers::region(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const std::size_t idx = regions_.size();
  regions_.push_back(RegionStats{.name = name});
  index_.emplace(name, idx);
  return idx;
}

Status Timers::start(const std::string& name) {
  if (name.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty region name");
  }
  return start(region(name));
}

Status Timers::start(std::size_t region_index) {
  PROSE_CHECK(region_index < regions_.size());
  // Instrumentation overhead: half charged at start, half at stop.
  const double oh = options_.overhead_cycles_per_pair / 2.0;
  clock_->advance(oh);
  regions_[region_index].overhead_cycles += oh;
  stack_.push_back(Frame{.region_index = region_index, .entry_time = clock_->now()});
  return Status::ok();
}

Status Timers::nesting_error(const std::string& name) const {
  if (stack_.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "stop('" + name + "') with no open region");
  }
  return Status(StatusCode::kInvalidArgument,
                "stop('" + name + "') but innermost open region is '" +
                    regions_[stack_.back().region_index].name + "'");
}

Status Timers::stop(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return stop(it->second);
  // Never started: under strict nesting that is a mismatch; otherwise the
  // innermost region closes, whatever its name.
  if (stack_.empty() || options_.strict_nesting) return nesting_error(name);
  return stop(stack_.back().region_index);
}

Status Timers::stop(std::size_t region_index) {
  PROSE_CHECK(region_index < regions_.size());
  if (stack_.empty() ||
      (options_.strict_nesting && stack_.back().region_index != region_index)) {
    return nesting_error(regions_[region_index].name);
  }
  const Frame frame = stack_.back();
  RegionStats& region = regions_[frame.region_index];
  stack_.pop_back();

  const double oh = options_.overhead_cycles_per_pair / 2.0;
  clock_->advance(oh);
  region.overhead_cycles += oh;

  const double inclusive = clock_->now() - frame.entry_time;
  region.calls += 1;
  region.inclusive_cycles += inclusive;
  region.exclusive_cycles += inclusive - frame.child_cycles;
  // min_call_cycles is zero-initialized in RegionStats; a naive min() update
  // would pin it at 0 forever. The first *completed* call (calls just became
  // 1) must seed both extrema instead of folding into them.
  if (region.calls == 1) {
    region.min_call_cycles = region.max_call_cycles = inclusive;
  } else {
    region.min_call_cycles = std::min(region.min_call_cycles, inclusive);
    region.max_call_cycles = std::max(region.max_call_cycles, inclusive);
  }
  if (!stack_.empty()) stack_.back().child_cycles += inclusive;
  return Status::ok();
}

void Timers::charge(double cycles) {
  clock_->advance(cycles);
  // Exclusive attribution happens implicitly: cycles not inside a child
  // region's [entry, exit) window count toward the innermost open region's
  // exclusive time at stop().
}

StatusOr<RegionStats> Timers::stats(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    return Status(StatusCode::kNotFound, "no region named '" + name + "'");
  }
  return regions_[it->second];
}

std::vector<RegionStats> Timers::all_stats() const {
  std::vector<RegionStats> out = regions_;
  std::sort(out.begin(), out.end(), [](const RegionStats& a, const RegionStats& b) {
    return a.inclusive_cycles > b.inclusive_cycles;
  });
  return out;
}

double Timers::total_overhead() const {
  double total = 0.0;
  for (const auto& r : regions_) total += r.overhead_cycles;
  return total;
}

double Timers::overhead_fraction(const std::string& name) const {
  const auto s = stats(name);
  if (!s.is_ok() || s->inclusive_cycles <= 0.0) return 0.0;
  return s->overhead_cycles / s->inclusive_cycles;
}

}  // namespace prose::gptl
