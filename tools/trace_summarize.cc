// trace_summarize: reads flight-recorder JSONL traces (see EXPERIMENTS.md for
// the schema) and prints per-flow throughput/RTT/loss summaries with
// percentile tables — the offline counterpart of harness/runner.h's
// summarize(). Run a bench with --record=PREFIX (or tools/record_run), then:
//
//   trace_summarize [--warmup=SECS] [--horizon=SECS] [--flow=N]
//                   [--since=SECS] [--until=SECS] [--event=KIND]
//                   TRACE.jsonl...
//
// Summary mode (default): throughput and delay over [warmup, horizon)
// reproduce the bench's printed run summary, because both derive from the
// same per-ACK event stream. The horizon defaults to the trace's end-of-run
// "run" event; a trace without one was cut short, and is reported as
// truncated unless --horizon is given. Traces that carry enqueue/deliver
// pairs also get a per-flow queueing-delay breakdown (bottleneck sojourn
// percentiles, matched on (flow, seq)).
//
// Query mode (--event=KIND): prints the matching raw JSONL lines to stdout
// (a grep that understands the schema) and the match count to stderr.
//
// Filters compose in both modes: --flow restricts to one flow id and
// --since/--until clip to a sim-time window (seconds).
//
// Exits non-zero if any input yields no events (empty trace), contains
// unparseable lines (corrupt/truncated mid-write) or, in summary mode without
// --horizon, has no "run" event (truncated). Unknown flags and
// malformed or negative numeric values (flag_parse.h) exit 2 with the usage
// text.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "flag_parse.h"
#include "harness/report.h"

namespace {

constexpr const char* kUsage =
    "usage: trace_summarize [--warmup=SECS] [--horizon=SECS] [--flow=N]\n"
    "                       [--since=SECS] [--until=SECS] [--event=KIND]\n"
    "                       [--top=N] TRACE.jsonl...\n"
    "\n"
    "  --warmup/--horizon  summary window (stats over [warmup, horizon));\n"
    "                      the horizon defaults to the trace's \"run\" event\n"
    "  --flow=N            restrict to one flow id (both modes)\n"
    "  --since/--until     clip events to a sim-time window (both modes)\n"
    "  --top=N             fleet traces: individual rows for the N highest-\n"
    "                      throughput flows when the per-flow table collapses\n"
    "                      to percentile rows (default 8)\n"
    "  --event=KIND        query mode: print raw matching lines + count\n"
    "                      (KIND: send ack loss enq deliver drop rate stage\n"
    "                       cycle cca run)\n";

/// Per-flow tables wider than this collapse into cross-flow percentile rows
/// (plus --top individually listed flows) — a 1000-flow fleet trace otherwise
/// prints a thousand rows nobody reads.
constexpr std::size_t kAggregateThreshold = 32;

struct Options {
  double warmup_s = 0, horizon_s = 0;
  double since_s = -1, until_s = -1;  // <0 => unbounded
  int flow = -1;                      // <0 => all flows
  int top = 8;                        // individual rows in aggregated tables
  std::string event;                  // non-empty => query mode
};

// The recorder writes flat one-line objects with no whitespace, so a keyed
// scan is sufficient — no general JSON parser needed.
bool find_raw(std::string_view line, std::string_view key, std::string_view& out) {
  std::string needle = "\"" + std::string(key) + "\":";
  std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  pos += needle.size();
  std::size_t end = pos;
  if (end < line.size() && line[end] == '"') {  // string value
    ++pos;
    end = line.find('"', pos);
    if (end == std::string_view::npos) return false;
    out = line.substr(pos, end - pos);
    return true;
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  out = line.substr(pos, end - pos);
  return true;
}

bool find_number(std::string_view line, std::string_view key, double& out) {
  std::string_view raw;
  if (!find_raw(line, key, raw)) return false;
  try {
    out = std::stod(std::string(raw));
  } catch (...) {
    return false;
  }
  return true;
}

double percentile(const std::vector<double>& sorted_values, double p) {
  if (sorted_values.empty()) return 0;
  double idx = p / 100.0 * static_cast<double>(sorted_values.size() - 1);
  auto lo = static_cast<std::size_t>(idx);
  std::size_t hi = std::min(lo + 1, sorted_values.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo]);
}

struct FlowStats {
  std::int64_t acks = 0, losses = 0, sends = 0;
  double acked_bytes = 0;
  std::vector<double> rtts_ms;
  std::vector<double> sojourns_ms;  // enqueue -> deliver, matched on seq
};

/// True when the event passes the --flow / --since / --until filters.
bool passes(const Options& opt, double t, int flow) {
  if (opt.flow >= 0 && flow != opt.flow) return false;
  if (opt.since_s >= 0 && t < opt.since_s) return false;
  if (opt.until_s >= 0 && t >= opt.until_s) return false;
  return true;
}

int query_file(const std::string& path, const Options& opt) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << "\n";
    return 1;
  }
  std::int64_t matched = 0, total = 0, parse_errors = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    double t = 0;
    std::string_view ev;
    if (!find_number(line, "t", t) || !find_raw(line, "ev", ev)) {
      ++parse_errors;
      continue;
    }
    ++total;
    if (ev != opt.event) continue;
    double flow_d = -1;
    find_number(line, "flow", flow_d);
    if (!passes(opt, t, static_cast<int>(flow_d))) continue;
    std::cout << line << "\n";
    ++matched;
  }
  if (total == 0) {
    std::cerr << "error: " << path << ": no trace events parsed\n";
    return 1;
  }
  std::cerr << path << ": " << matched << " " << opt.event << " events matched\n";
  if (parse_errors > 0) {
    std::cerr << "error: " << parse_errors
              << " unparseable lines (corrupt or truncated trace)\n";
    return 1;
  }
  return 0;
}

int summarize_file(const std::string& path, const Options& opt) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << "\n";
    return 1;
  }

  std::map<std::string, std::int64_t> kind_counts;
  std::map<std::string, std::int64_t> drop_reasons;
  std::map<int, FlowStats> flows;
  // Outstanding enqueue times by (flow, seq): bottleneck sojourn is the gap
  // to the matching deliver event. Drops erase the entry (never delivered).
  std::map<std::pair<int, std::int64_t>, double> enqueued;
  std::int64_t total_events = 0, parse_errors = 0;
  double run_end_s = -1;  // from the end-of-run "run" event; <0: none seen

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    double t = 0;
    std::string_view ev;
    if (!find_number(line, "t", t) || !find_raw(line, "ev", ev)) {
      ++parse_errors;
      continue;
    }
    ++total_events;

    double flow_d = -1;
    find_number(line, "flow", flow_d);
    int flow = static_cast<int>(flow_d);

    if (ev == "run") {  // the run's end, not a flow event
      ++kind_counts[std::string(ev)];
      run_end_s = t;
      continue;
    }
    if (!passes(opt, t, flow)) continue;
    ++kind_counts[std::string(ev)];

    if (ev == "drop") {
      std::string_view reason;
      if (find_raw(line, "reason", reason)) ++drop_reasons[std::string(reason)];
      double seq = -1;
      if (find_number(line, "seq", seq))
        enqueued.erase({flow, static_cast<std::int64_t>(seq)});
      continue;
    }
    if (ev == "enq") {
      double seq = -1;
      if (find_number(line, "seq", seq))
        enqueued[{flow, static_cast<std::int64_t>(seq)}] = t;
      continue;
    }
    if (ev == "deliver") {
      double seq = -1;
      if (find_number(line, "seq", seq)) {
        auto it = enqueued.find({flow, static_cast<std::int64_t>(seq)});
        if (it != enqueued.end()) {
          flows[flow].sojourns_ms.push_back((t - it->second) * 1e3);
          enqueued.erase(it);
        }
      }
      continue;
    }
    if (t < opt.warmup_s || (opt.horizon_s > 0 && t >= opt.horizon_s)) continue;
    if (ev == "ack") {
      FlowStats& f = flows[flow];
      ++f.acks;
      double v = 0;
      if (find_number(line, "bytes", v)) f.acked_bytes += v;
      if (find_number(line, "rtt_ms", v)) f.rtts_ms.push_back(v);
    } else if (ev == "loss") {
      ++flows[flow].losses;
    } else if (ev == "send") {
      ++flows[flow].sends;
    }
  }

  if (total_events == 0) {
    std::cerr << "error: " << path << ": no trace events parsed\n";
    return 1;
  }

  if (opt.horizon_s <= 0 && run_end_s < 0) {
    std::cerr << "error: " << path
              << ": no \"run\" event, so the run's end is unknown (truncated "
                 "trace); pass --horizon to summarize it anyway\n";
    return 1;
  }
  double horizon = opt.horizon_s > 0 ? opt.horizon_s : run_end_s;
  double window = horizon - opt.warmup_s;

  libra::section(path + "  (" + std::to_string(total_events) + " events, window [" +
                 libra::fmt(opt.warmup_s, 1) + "s, " + libra::fmt(horizon, 1) + "s))");

  libra::Table kinds({"event", "count"});
  for (const auto& [kind, count] : kind_counts)
    kinds.add_row({kind, std::to_string(count)});
  kinds.print();

  if (!drop_reasons.empty()) {
    libra::Table drops({"drop reason", "count"});
    for (const auto& [reason, count] : drop_reasons)
      drops.add_row({reason, std::to_string(count)});
    std::cout << "\n";
    drops.print();
  }

  struct FlowRow {
    int flow = 0;
    double sends = 0, acks = 0, losses = 0, thr = 0;
    double rtt_p50 = 0, rtt_p90 = 0, rtt_p99 = 0, rtt_mean = 0, loss_rate = 0;
  };
  std::vector<FlowRow> rows;
  double total_thr = 0, rtt_weighted = 0;
  std::int64_t rtt_samples = 0;
  bool any_sojourn = false;
  for (auto& [flow, f] : flows) {
    std::sort(f.rtts_ms.begin(), f.rtts_ms.end());
    FlowRow r;
    r.flow = flow;
    r.sends = static_cast<double>(f.sends);
    r.acks = static_cast<double>(f.acks);
    r.losses = static_cast<double>(f.losses);
    r.thr = window > 0 ? f.acked_bytes * 8.0 / window / 1e6 : 0;
    total_thr += r.thr;
    for (double v : f.rtts_ms) r.rtt_mean += v;
    if (!f.rtts_ms.empty()) r.rtt_mean /= static_cast<double>(f.rtts_ms.size());
    r.rtt_p50 = percentile(f.rtts_ms, 50);
    r.rtt_p90 = percentile(f.rtts_ms, 90);
    r.rtt_p99 = percentile(f.rtts_ms, 99);
    double denom = static_cast<double>(f.acks + f.losses);
    r.loss_rate = denom > 0 ? static_cast<double>(f.losses) / denom : 0;
    rtt_weighted += r.rtt_mean * static_cast<double>(f.acks);
    rtt_samples += f.acks;
    any_sojourn |= !f.sojourns_ms.empty();
    rows.push_back(r);
  }

  libra::Table per_flow({"flow", "sends", "acks", "losses", "throughput (Mbps)",
                         "rtt p50 (ms)", "rtt p90 (ms)", "rtt p99 (ms)",
                         "rtt mean (ms)", "loss rate"});
  auto add_flow_row = [&per_flow](const std::string& label, const FlowRow& r) {
    per_flow.add_row({label, libra::fmt(r.sends, 0), libra::fmt(r.acks, 0),
                      libra::fmt(r.losses, 0), libra::fmt(r.thr, 2),
                      libra::fmt(r.rtt_p50, 1), libra::fmt(r.rtt_p90, 1),
                      libra::fmt(r.rtt_p99, 1), libra::fmt(r.rtt_mean, 1),
                      libra::fmt_pct(r.loss_rate, 2)});
  };
  if (rows.size() <= kAggregateThreshold) {
    for (const FlowRow& r : rows) add_flow_row(std::to_string(r.flow), r);
  } else {
    // Fleet-scale trace: list the --top flows by throughput, then collapse
    // the full population into cross-flow percentile rows. "worst" is the
    // unfavorable tail per column: min for throughput-like columns, max for
    // delay/loss — one glance shows whether the tail is healthy.
    std::vector<FlowRow> by_thr = rows;
    std::sort(by_thr.begin(), by_thr.end(),
              [](const FlowRow& a, const FlowRow& b) { return a.thr > b.thr; });
    const std::size_t top = std::min<std::size_t>(
        opt.top > 0 ? static_cast<std::size_t>(opt.top) : 0, by_thr.size());
    for (std::size_t i = 0; i < top; ++i)
      add_flow_row("#" + std::to_string(by_thr[i].flow), by_thr[i]);

    auto column = [&rows](double FlowRow::*member) {
      std::vector<double> v;
      v.reserve(rows.size());
      for (const FlowRow& r : rows) v.push_back(r.*member);
      std::sort(v.begin(), v.end());
      return v;
    };
    auto aggregate = [&](const std::string& label, auto pick_lo, auto pick_hi) {
      FlowRow r;
      // Favorable direction is "high" for volume columns...
      r.sends = pick_hi(column(&FlowRow::sends));
      r.acks = pick_hi(column(&FlowRow::acks));
      r.thr = pick_hi(column(&FlowRow::thr));
      // ...and "low" for damage columns, so one row reads coherently.
      r.losses = pick_lo(column(&FlowRow::losses));
      r.rtt_p50 = pick_lo(column(&FlowRow::rtt_p50));
      r.rtt_p90 = pick_lo(column(&FlowRow::rtt_p90));
      r.rtt_p99 = pick_lo(column(&FlowRow::rtt_p99));
      r.rtt_mean = pick_lo(column(&FlowRow::rtt_mean));
      r.loss_rate = pick_lo(column(&FlowRow::loss_rate));
      add_flow_row(label, r);
    };
    const std::string n = std::to_string(rows.size());
    aggregate("p50 of " + n,
              [](std::vector<double> v) { return percentile(v, 50); },
              [](std::vector<double> v) { return percentile(v, 50); });
    aggregate("p95 of " + n,
              [](std::vector<double> v) { return percentile(v, 95); },
              [](std::vector<double> v) { return percentile(v, 5); });
    aggregate("worst of " + n,
              [](std::vector<double> v) { return v.back(); },
              [](std::vector<double> v) { return v.front(); });
  }
  std::cout << "\n";
  per_flow.print();
  if (rows.size() > kAggregateThreshold) {
    std::cout << "(" << rows.size() << " flows: top "
              << std::min<std::size_t>(
                     opt.top > 0 ? static_cast<std::size_t>(opt.top) : 0,
                     rows.size())
              << " by throughput, then cross-flow percentiles; worst = "
                 "unfavorable tail per column)\n";
  }

  if (any_sojourn) {
    // Queueing-delay breakdown: time each packet spent in the bottleneck
    // queue, from its enq event to the matching deliver (dropped packets
    // excluded). This separates standing-queue delay from propagation delay,
    // which the RTT columns above mix together. Fleet traces aggregate the
    // same way as the per-flow table.
    std::vector<std::pair<int, const FlowStats*>> with_sojourn;
    for (auto& [flow, f] : flows) {
      if (f.sojourns_ms.empty()) continue;
      std::sort(f.sojourns_ms.begin(), f.sojourns_ms.end());
      with_sojourn.emplace_back(flow, &f);
    }
    libra::Table qd({"flow", "delivered", "queue p50 (ms)", "queue p90 (ms)",
                     "queue p99 (ms)", "queue max (ms)"});
    if (with_sojourn.size() <= kAggregateThreshold) {
      for (auto& [flow, f] : with_sojourn) {
        qd.add_row({std::to_string(flow), std::to_string(f->sojourns_ms.size()),
                    libra::fmt(percentile(f->sojourns_ms, 50), 2),
                    libra::fmt(percentile(f->sojourns_ms, 90), 2),
                    libra::fmt(percentile(f->sojourns_ms, 99), 2),
                    libra::fmt(f->sojourns_ms.back(), 2)});
      }
    } else {
      std::vector<double> p50s, p90s, p99s, maxes;
      std::size_t delivered = 0;
      for (auto& [flow, f] : with_sojourn) {
        p50s.push_back(percentile(f->sojourns_ms, 50));
        p90s.push_back(percentile(f->sojourns_ms, 90));
        p99s.push_back(percentile(f->sojourns_ms, 99));
        maxes.push_back(f->sojourns_ms.back());
        delivered += f->sojourns_ms.size();
      }
      std::sort(p50s.begin(), p50s.end());
      std::sort(p90s.begin(), p90s.end());
      std::sort(p99s.begin(), p99s.end());
      std::sort(maxes.begin(), maxes.end());
      const std::string n = std::to_string(with_sojourn.size());
      qd.add_row({"p50 of " + n, std::to_string(delivered),
                  libra::fmt(percentile(p50s, 50), 2),
                  libra::fmt(percentile(p90s, 50), 2),
                  libra::fmt(percentile(p99s, 50), 2),
                  libra::fmt(percentile(maxes, 50), 2)});
      qd.add_row({"p95 of " + n, "",
                  libra::fmt(percentile(p50s, 95), 2),
                  libra::fmt(percentile(p90s, 95), 2),
                  libra::fmt(percentile(p99s, 95), 2),
                  libra::fmt(percentile(maxes, 95), 2)});
      qd.add_row({"worst of " + n, "", libra::fmt(p50s.back(), 2),
                  libra::fmt(p90s.back(), 2), libra::fmt(p99s.back(), 2),
                  libra::fmt(maxes.back(), 2)});
    }
    std::cout << "\n";
    qd.print();
  }

  double avg_delay =
      rtt_samples > 0 ? rtt_weighted / static_cast<double>(rtt_samples) : 0;
  std::cout << "\ntotal: throughput " << libra::fmt(total_thr, 2) << " Mbps, avg delay "
            << libra::fmt(avg_delay, 1) << " ms\n";
  if (parse_errors > 0) {
    std::cerr << "error: " << parse_errors
              << " unparseable lines (corrupt or truncated trace)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> paths;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr int kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    bool ok = true;
    if (a.rfind("--warmup=", 0) == 0) {
      ok = libra::parse_real(argv[i] + 9, 0, kInf, opt.warmup_s);
    } else if (a.rfind("--horizon=", 0) == 0) {
      ok = libra::parse_real(argv[i] + 10, 0, kInf, opt.horizon_s);
    } else if (a.rfind("--flow=", 0) == 0) {
      ok = libra::parse_int(argv[i] + 7, 0, kIntMax, opt.flow);
    } else if (a.rfind("--since=", 0) == 0) {
      ok = libra::parse_real(argv[i] + 8, 0, kInf, opt.since_s);
    } else if (a.rfind("--until=", 0) == 0) {
      ok = libra::parse_real(argv[i] + 8, 0, kInf, opt.until_s);
    } else if (a.rfind("--event=", 0) == 0) {
      opt.event = std::string(a.substr(8));
    } else if (a.rfind("--top=", 0) == 0) {
      ok = libra::parse_int(argv[i] + 6, 0, kIntMax, opt.top);
    } else if (a.rfind("--", 0) == 0) {
      std::cerr << kUsage;
      return 2;
    } else {
      paths.emplace_back(a);
    }
    if (!ok) {
      std::cerr << "bad value: " << a << "\n" << kUsage;
      return 2;
    }
  }
  if (paths.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  int rc = 0;
  for (const std::string& path : paths) {
    rc |= opt.event.empty() ? summarize_file(path, opt) : query_file(path, opt);
  }
  return rc;
}
