// Per-layer attribution from the profiler's merged span tree.
//
// A span's recorded time includes part of the cost of recording it, and its
// parent's self time includes the rest (the clock read and tree bookkeeping
// outside the child's own interval). calibrate_span_cost() measures both
// parts on the running host; SpanTable subtracts them, so a layer's corrected self
// time is its span time minus its child spans minus the tracing cost.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/profiler.h"

namespace perfbench {

struct SpanCost {
  double inside_ns = 0;   // recorded inside a span's own interval
  double outside_ns = 0;  // charged to the enclosing span's self time
};

/// Times empty spans on the calling thread. Resets the profiler before and
/// after; call only while no span is running anywhere.
SpanCost calibrate_span_cost();

/// Corrected times of every span name, summed over all tree paths.
class SpanTable {
 public:
  struct Entry {
    std::uint64_t count = 0;
    double self_ns = 0;   // corrected; below 0 when calls cost less than a span
    double total_ns = 0;  // corrected
  };

  SpanTable(const libra::ProfileStats& root, SpanCost cost);

  /// Summed over every node called `name` (zeros when absent).
  Entry get(const std::string& name) const;

  /// Corrected time of everything recorded: the sum over top-level spans.
  double recorded_ns() const { return recorded_ns_; }

 private:
  /// Records `node`'s subtree; returns its corrected total and sets
  /// `descendants` to the number of spans below it.
  double visit(const libra::ProfileStats& node, std::uint64_t& descendants);

  SpanCost cost_;
  std::map<std::string, Entry> entries_;
  double recorded_ns_ = 0;
};

}  // namespace perfbench
