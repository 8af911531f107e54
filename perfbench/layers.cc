#include "layers.h"

#include <algorithm>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

const libra::ProfileStats* child_named(const libra::ProfileStats& node,
                                       const std::string& name) {
  for (const libra::ProfileStats& c : node.children)
    if (c.name == name) return &c;
  return nullptr;
}

}  // namespace

SpanCost calibrate_span_cost() {
  constexpr int kSpans = 100000;
  constexpr int kRepeats = 5;
  libra::Profiler& prof = libra::Profiler::instance();
  std::vector<double> inside, outside;
  for (int r = 0; r < kRepeats; ++r) {
    prof.reset();
    prof.enable();
    {
      libra::ProfScope outer("calibrate.outer");
      for (int i = 0; i < kSpans; ++i) libra::ProfScope inner("calibrate.inner");
    }
    prof.disable();
    const libra::ProfileStats merged = prof.merged();
    const libra::ProfileStats* outer = child_named(merged, "calibrate.outer");
    const libra::ProfileStats* inner = outer ? child_named(*outer, "calibrate.inner") : nullptr;
    if (!inner || inner->count == 0) continue;
    const double in = static_cast<double>(inner->total_ns) / static_cast<double>(inner->count);
    const double per_span = static_cast<double>(outer->total_ns) / kSpans;
    inside.push_back(in);
    outside.push_back(std::max(0.0, per_span - in));
  }
  prof.reset();
  if (inside.empty()) return {};
  return {median(inside), median(outside)};
}

SpanTable::SpanTable(const libra::ProfileStats& root, SpanCost cost) : cost_(cost) {
  for (const libra::ProfileStats& c : root.children) {
    std::uint64_t descendants = 0;
    recorded_ns_ += visit(c, descendants);
  }
}

double SpanTable::visit(const libra::ProfileStats& node, std::uint64_t& descendants) {
  double children_total = 0;
  descendants = 0;
  for (const libra::ProfileStats& c : node.children) {
    std::uint64_t below = 0;
    children_total += visit(c, below);
    descendants += c.count + below;
  }
  // Each of this node's spans carries its own inside cost; every span below
  // it carries its whole cost.
  const double total = static_cast<double>(node.total_ns) -
                       static_cast<double>(node.count) * cost_.inside_ns -
                       static_cast<double>(descendants) * (cost_.inside_ns + cost_.outside_ns);
  Entry& e = entries_[node.name];
  e.count += node.count;
  e.total_ns += total;
  e.self_ns += total - children_total;
  return total;
}

SpanTable::Entry SpanTable::get(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? Entry{} : it->second;
}

}  // namespace perfbench
