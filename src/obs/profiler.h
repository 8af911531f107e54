// In-process hierarchical profiler: where does wall-clock time go inside a
// run?
//
// Usage: drop `PROF_SCOPE("name")` at the top of a function (or any block).
// While the profiler is disabled — the default — a span costs one relaxed
// atomic load and a predicted branch, nothing else: no clock read, no
// allocation, no thread-local access (same discipline as FlightRecorder's
// `if (!enabled_) return;` hot path; the alloc-counting test asserts zero
// allocations per disabled span). enable() turns every span into a timed
// node of a per-thread call tree:
//
//   - nodes are keyed by (parent, name) — the same PROF_SCOPE reached through
//     different callers shows up as distinct tree paths, like a flame graph;
//   - each node aggregates count, total/min/max ns and child time (self time
//     is total - child), MetricsRegistry-style;
//   - trees are thread-local, so recording a span never takes a lock; the
//     cross-thread merge happens once, at report time, by folding every
//     thread's tree path-by-path into one (Profiler::merged()).
//
// Reports: to_json() for machines (nested under "profile" in bench JSON
// documents), text_report() for humans — an indented flame-style listing with
// percent-of-parent, self time and call counts.
//
// Quiescence contract: merged()/to_json()/text_report()/reset() read or clear
// every thread's tree; call them only while no profiled spans are running
// (e.g. after run_many/parallel_for_chunked returned — future/pool completion
// gives the necessary happens-before). Span names must outlive the profiler;
// string literals are the intended currency.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

namespace libra {

/// One aggregated call-tree node of the merged, cross-thread profile.
struct ProfileStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;  // time inside child spans; self = total - child
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::vector<ProfileStats> children;  // name-sorted: merge order is deterministic

  std::uint64_t self_ns() const {
    return total_ns >= child_ns ? total_ns - child_ns : 0;
  }
};

/// Per-thread call tree. Internal to the profiler; spans touch it only
/// through ProfScope. Node 0 is the thread's root (never timed itself).
class ThreadProfile {
 public:
  ThreadProfile();
  ~ThreadProfile();

  ThreadProfile(const ThreadProfile&) = delete;
  ThreadProfile& operator=(const ThreadProfile&) = delete;

  std::uint32_t enter(const char* name) {
    const std::uint32_t parent = current_;
    // Linear scan over the parent's children: fanout is small (a handful of
    // distinct callees per site) and names are literals, so the pointer
    // compare almost always decides.
    for (std::uint32_t c : nodes_[parent].children) {
      const Node& child = nodes_[c];
      if (child.name == name || std::strcmp(child.name, name) == 0) {
        current_ = c;
        return c;
      }
    }
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    Node fresh;
    fresh.name = name;
    fresh.parent = parent;
    nodes_.push_back(std::move(fresh));
    nodes_[parent].children.push_back(idx);
    current_ = idx;
    return idx;
  }

  void exit(std::uint32_t node, std::uint64_t elapsed_ns) {
    if (node >= nodes_.size()) return;  // tree was reset() under a live span
    Node& n = nodes_[node];
    ++n.count;
    n.total_ns += elapsed_ns;
    if (n.count == 1 || elapsed_ns < n.min_ns) n.min_ns = elapsed_ns;
    if (elapsed_ns > n.max_ns) n.max_ns = elapsed_ns;
    nodes_[n.parent].child_ns += elapsed_ns;
    current_ = n.parent;
  }

  struct Node {
    const char* name = "";
    std::uint32_t parent = 0;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    std::vector<std::uint32_t> children;
  };

  /// Read-side access for the profiler's report-time merge.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  friend class Profiler;

  void clear() {
    nodes_.clear();
    nodes_.push_back(Node{});
    current_ = 0;
  }

  std::vector<Node> nodes_;
  std::uint32_t current_ = 0;
};

class Profiler {
 public:
  /// Process-wide instance (leaky singleton: safe to use from thread-local
  /// destructors at any shutdown order).
  static Profiler& instance();

  /// Global on/off switch read by every span. Relaxed: a span racing the flip
  /// is recorded on one side or the other, both fine.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Clears every registered thread tree. Quiescence contract applies.
  void reset();

  /// Folds all thread trees into one aggregated tree (path-by-path; children
  /// name-sorted). The root's totals are the sum of every top-level span.
  ProfileStats merged() const;

  /// Merged tree as one JSON object: {"threads":N,"tree":{...}} where each
  /// node is {"name","count","total_ns","self_ns","min_ns","max_ns",
  /// "children":[...]}.
  std::string to_json() const;

  /// Indented flame-style listing, widest subtree first:
  ///   total ms      %   self ms        count  span
  std::string text_report() const;

  /// Threads that have recorded at least one span since the last reset.
  std::size_t thread_count() const;

  /// The calling thread's tree (created and registered on first use).
  static ThreadProfile& thread_profile();

 private:
  friend class ThreadProfile;

  void register_thread(ThreadProfile* tp);
  void unregister_thread(ThreadProfile* tp);

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  std::vector<ThreadProfile*> threads_;
  /// Trees of exited threads (retained at thread death so a short-lived
  /// worker's spans survive until the next reset()).
  std::vector<std::vector<ThreadProfile::Node>> retired_;
};

/// RAII span. Constructed disabled it stores a null profile pointer and the
/// destructor is a single predicted branch.
class ProfScope {
 public:
  explicit ProfScope(const char* name) {
    if (!Profiler::enabled()) {
      tp_ = nullptr;
      return;
    }
    tp_ = &Profiler::thread_profile();
    node_ = tp_->enter(name);
    start_ = std::chrono::steady_clock::now();
  }

  ~ProfScope() {
    if (!tp_) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    tp_->exit(node_, static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             elapsed)
                             .count()));
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ThreadProfile* tp_;
  std::uint32_t node_ = 0;
  std::chrono::steady_clock::time_point start_;
};

#define LIBRA_PROF_CONCAT2(a, b) a##b
#define LIBRA_PROF_CONCAT(a, b) LIBRA_PROF_CONCAT2(a, b)
/// Times the enclosing block as a span named `name` (a string literal).
#define PROF_SCOPE(name) \
  ::libra::ProfScope LIBRA_PROF_CONCAT(prof_scope_, __COUNTER__) { name }

}  // namespace libra
