// Wall/CPU clocks and per-op interval logs used to time workloads from the
// outside, plus the pool statistics derived from those intervals.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady clock).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by the whole process (all threads).
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Dense per-thread index (0 for the first thread that asks, 1 next, ...).
inline int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// One timed unit of work: where it ran and when.
struct Interval {
  double start_s = 0;
  double end_s = 0;
  int thread = 0;
  double ms() const { return (end_s - start_s) * 1e3; }
};

/// Intervals appended from any thread.
class IntervalLog {
 public:
  void add(const Interval& iv) {
    std::lock_guard<std::mutex> lock(mu_);
    intervals_.push_back(iv);
  }
  std::vector<Interval> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(intervals_, {});
  }

 private:
  std::mutex mu_;
  std::vector<Interval> intervals_;
};

/// How well a closed batch kept its `participants` workers busy over
/// [begin_s, end_s]: the busy share of worker time, and the tail — the time
/// between the first worker running out of work and the batch's end. A
/// participant that ran nothing idled for the whole batch.
struct PoolUse {
  double busy_s = 0;
  double capacity_s = 0;
  double tail_s = 0;
};

inline PoolUse pool_use(const std::vector<Interval>& ops, double begin_s,
                        double end_s, int participants) {
  PoolUse use;
  use.capacity_s = static_cast<double>(participants) * (end_s - begin_s);
  std::map<int, double> last_end;
  for (const Interval& iv : ops) {
    use.busy_s += iv.end_s - iv.start_s;
    double& last = last_end[iv.thread];
    last = std::max(last, iv.end_s);
  }
  if (static_cast<int>(last_end.size()) < participants) {
    use.tail_s = end_s - begin_s;
  } else {
    double first_idle = end_s;
    for (const auto& [thread, last] : last_end) first_idle = std::min(first_idle, last);
    use.tail_s = end_s - first_idle;
  }
  return use;
}

}  // namespace perfbench
