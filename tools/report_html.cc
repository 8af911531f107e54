// report_html: renders telemetry JSONL dumps (obs/telemetry.h write_jsonl)
// as one self-contained HTML file — inline SVG, inline CSS, no external
// assets, so the file works from a mail attachment or CI artifact store.
//
//   report_html [--out=report.html] [--title=TEXT] [--top=N] RUN.jsonl [RUN2.jsonl...]
//
// --top takes a non-negative integer (flag_parse.h); anything else prints
// usage and exits 2.
//
// Each input file is one run (e.g. one request of a run_many batch) and gets
// four lanes: per-flow throughput (from the acked_bytes counter's per-bucket
// deltas), smoothed RTT, cwnd, and bottleneck queue depth. Lines show each
// bucket's closing value; the shaded band is the M4 min/max envelope, so
// spikes survive decimation. Libra stage transitions (exact-time telemetry
// events) appear as dashed markers on the throughput lane.
//
// Inputs that carry a "health" object (the `fleet_run --health` summary)
// render as a fleet-health page instead: per-window fleet goodput, Jain
// index, and RTT lanes from the health timeline, followed by the
// severity-ranked incident table (obs/health.h detectors).
//
// Design rules (kept deliberately boring): one y-axis per lane, a fixed
// categorical palette assigned by flow id (never re-assigned when flows come
// and go), at most 8 plotted flows (the rest fold into a note), values
// readable without color via the per-flow table under the lanes.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "flag_parse.h"
#include "obs/json_parse.h"

namespace {

using libra::JsonValue;
using libra::json_parse;

constexpr const char* kUsage =
    "usage: report_html [--out=report.html] [--title=TEXT] [--top=N] "
    "RUN.jsonl...\n"
    "\n"
    "  --top=N  fleet runs: individual table rows for the N highest-\n"
    "           throughput flows when the per-flow table collapses to\n"
    "           percentile rows (default 8)\n";

/// Per-flow tables wider than this collapse to p50/p95/worst rows plus the
/// --top highest-throughput flows (fleet runs would otherwise render a
/// thousand-row table).
constexpr std::size_t kAggregateThreshold = 32;

// Fixed categorical palette (light / dark picks of the same hues). Flow id n
// always wears color n % 8: identity is stable across filters and runs.
constexpr int kPaletteSize = 8;
constexpr const char* kLight[kPaletteSize] = {
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948"};
constexpr const char* kDark[kPaletteSize] = {
    "#71a7f1", "#ff9a6b", "#4ed0a0", "#ffc04d",
    "#ff9fc2", "#39b839", "#8f7fe8", "#ff7a76"};
constexpr int kMaxPlottedFlows = 8;

// cwnd values at or above this are the "effectively unlimited" sentinel some
// CCAs report before their first measurement; they would flatten the y-scale.
constexpr double kCwndClamp = 1e12;

const char* stage_name(int stage) {
  switch (stage) {
    case 0: return "exploration";
    case 1: return "eval_first";
    case 2: return "eval_second";
    case 3: return "exploitation";
    default: return "stage?";
  }
}

struct Column {
  double bucket_us = 0;
  std::vector<double> first, last, min, max;
  std::vector<std::int64_t> count;
};

struct StageEvent {
  double t_us = 0;
  int flow = 0;
  int stage = 0;
};

struct RunData {
  std::string path;
  double interval_us = 0;
  std::map<int, std::map<std::string, Column>> flows;   // id -> col name -> data
  std::map<int, std::map<std::string, Column>> queues;
  std::vector<StageEvent> stages;
};

/// Parsed `fleet_run --health` document (one JSON object with a "health"
/// key; the surrounding summary fields are picked up when present).
struct HealthDoc {
  std::string path, scenario, cca;
  double window_s = 0, duration_s = 0, floor_ms = 0;
  int flows = 0;
  struct Win {
    double t_s = 0, goodput_bps = 0, jain = 0, avg_rtt_ms = 0, p95_rtt_ms = 0;
    double sent = 0, lost = 0, active = 0, progressing = 0;
  };
  std::vector<Win> wins;
  struct Inc {
    std::string kind, detail;
    int flow = -1, window = 0, span = 1;
    double severity = 0, value = 0, threshold = 0;
  };
  std::vector<Inc> incidents;
};

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(double v, int precision = 2) {
  std::ostringstream os;
  if (std::abs(v) >= 1000 || (std::abs(v) < 0.01 && v != 0)) {
    os.precision(3);
    os << v;
  } else {
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << v;
  }
  return os.str();
}

bool load_run(const std::string& path, RunData& run) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << "\n";
    return false;
  }
  run.path = path;
  std::string line;
  std::int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = json_parse(line);
    } catch (const std::exception& e) {
      std::cerr << "error: " << path << ":" << lineno << ": " << e.what() << "\n";
      return false;
    }
    if (const JsonValue* hdr = v.find("telemetry")) {
      (void)hdr;
      if (const JsonValue* iv = v.find("interval_us"))
        run.interval_us = iv->number_or(0);
      continue;
    }
    if (const JsonValue* ev = v.find("ev")) {
      if (ev->string_or("") == "stage") {
        StageEvent se;
        if (const JsonValue* t = v.find("t_us")) se.t_us = t->number_or(0);
        if (const JsonValue* f = v.find("flow"))
          se.flow = static_cast<int>(f->number_or(0));
        if (const JsonValue* s = v.find("stage"))
          se.stage = static_cast<int>(s->number_or(0));
        run.stages.push_back(se);
      }
      continue;
    }
    const JsonValue* kind = v.find("series");
    const JsonValue* id = v.find("id");
    const JsonValue* col_name = v.find("col");
    if (!kind || !id || !col_name) continue;
    Column col;
    if (const JsonValue* b = v.find("bucket_us")) col.bucket_us = b->number_or(0);
    auto fill = [&v](const char* key, std::vector<double>& out) {
      if (const JsonValue* arr = v.find(key); arr && arr->is_array())
        for (const JsonValue& x : arr->array) out.push_back(x.number_or(0));
    };
    fill("first", col.first);
    fill("last", col.last);
    fill("min", col.min);
    fill("max", col.max);
    if (const JsonValue* arr = v.find("count"); arr && arr->is_array())
      for (const JsonValue& x : arr->array)
        col.count.push_back(static_cast<std::int64_t>(x.number_or(0)));
    auto& group = kind->string_or("") == "queue" ? run.queues : run.flows;
    group[static_cast<int>(id->number_or(0))][col_name->string_or("")] =
        std::move(col);
  }
  if (run.flows.empty() && run.queues.empty()) {
    std::cerr << "error: " << path << ": no telemetry series found\n";
    return false;
  }
  return true;
}

/// True when the file's first non-empty line is a JSON object carrying a
/// "health" key (the fleet_run --health summary format).
bool sniff_health(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      JsonValue v = json_parse(line);
      return v.find("health") != nullptr;
    } catch (const std::exception&) {
      return false;
    }
  }
  return false;
}

bool load_health(const std::string& path, HealthDoc& hd) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open " << path << "\n";
    return false;
  }
  hd.path = path;
  std::string line;
  while (std::getline(in, line) && line.empty()) {
  }
  JsonValue doc;
  try {
    doc = json_parse(line);
  } catch (const std::exception& e) {
    std::cerr << "error: " << path << ": " << e.what() << "\n";
    return false;
  }
  if (const JsonValue* s = doc.find("scenario")) hd.scenario = s->string_or("");
  if (const JsonValue* s = doc.find("cca")) hd.cca = s->string_or("");
  const JsonValue* h = doc.find("health");
  if (!h) {
    std::cerr << "error: " << path << ": no \"health\" object\n";
    return false;
  }
  if (const JsonValue* v = h->find("window_us"))
    hd.window_s = v->number_or(0) / 1e6;
  if (const JsonValue* v = h->find("duration_s")) hd.duration_s = v->number_or(0);
  if (const JsonValue* v = h->find("path_floor_rtt_ms"))
    hd.floor_ms = v->number_or(0);
  if (const JsonValue* v = h->find("flows"))
    hd.flows = static_cast<int>(v->number_or(0));
  auto num = [](const JsonValue& obj, const char* key) {
    const JsonValue* v = obj.find(key);
    return v ? v->number_or(0) : 0.0;
  };
  if (const JsonValue* arr = h->find("fleet"); arr && arr->is_array()) {
    for (const JsonValue& w : arr->array) {
      HealthDoc::Win win;
      win.t_s = num(w, "t_s");
      win.goodput_bps = num(w, "goodput_bps");
      win.jain = num(w, "jain");
      win.avg_rtt_ms = num(w, "avg_rtt_ms");
      win.p95_rtt_ms = num(w, "max_p95_rtt_ms");
      win.sent = num(w, "sent");
      win.lost = num(w, "lost");
      win.active = num(w, "active");
      win.progressing = num(w, "progressing");
      hd.wins.push_back(win);
    }
  }
  if (const JsonValue* arr = h->find("incidents"); arr && arr->is_array()) {
    for (const JsonValue& i : arr->array) {
      HealthDoc::Inc inc;
      if (const JsonValue* v = i.find("kind")) inc.kind = v->string_or("");
      if (const JsonValue* v = i.find("detail")) inc.detail = v->string_or("");
      inc.flow = static_cast<int>(num(i, "flow"));
      inc.window = static_cast<int>(num(i, "window"));
      inc.span = static_cast<int>(num(i, "span"));
      inc.severity = num(i, "severity");
      inc.value = num(i, "value");
      inc.threshold = num(i, "threshold");
      hd.incidents.push_back(inc);
    }
  }
  return true;
}

/// One plottable series: per-bucket (center time s, line value, band lo/hi).
struct Series {
  std::string label;
  int color = 0;  // palette index
  std::vector<double> t_s, line, lo, hi;
};

Series envelope_series(const Column& col, const std::string& label, int color,
                       double scale) {
  Series s;
  s.label = label;
  s.color = color;
  double bucket_s = col.bucket_us / 1e6;
  for (std::size_t i = 0; i < col.last.size(); ++i) {
    s.t_s.push_back((static_cast<double>(i) + 0.5) * bucket_s);
    s.line.push_back(col.last[i] * scale);
    s.lo.push_back(col.min[i] * scale);
    s.hi.push_back(col.max[i] * scale);
  }
  return s;
}

/// Per-bucket rate from a cumulative byte counter: delta(last) * 8 / width.
Series throughput_series(const Column& col, const std::string& label, int color) {
  Series s;
  s.label = label;
  s.color = color;
  double bucket_s = col.bucket_us / 1e6;
  if (bucket_s <= 0) return s;
  double prev = 0;
  for (std::size_t i = 0; i < col.last.size(); ++i) {
    double mbps = (col.last[i] - prev) * 8.0 / bucket_s / 1e6;
    prev = col.last[i];
    s.t_s.push_back((static_cast<double>(i) + 0.5) * bucket_s);
    s.line.push_back(std::max(0.0, mbps));
    s.lo.push_back(std::max(0.0, mbps));
    s.hi.push_back(std::max(0.0, mbps));
  }
  return s;
}

struct Lane {
  std::string title, unit;
  std::vector<Series> series;
  std::vector<StageEvent> annotations;
  bool band = true;
};

void render_lane(std::ostream& out, const Lane& lane) {
  constexpr double kW = 920, kH = 190;
  constexpr double kL = 64, kR = 12, kT = 26, kB = 24;  // margins
  const double plot_w = kW - kL - kR, plot_h = kH - kT - kB;

  double t_max = 0, v_max = 0;
  bool any = false;
  for (const Series& s : lane.series) {
    for (std::size_t i = 0; i < s.t_s.size(); ++i) {
      t_max = std::max(t_max, s.t_s[i]);
      double v = lane.band ? s.hi[i] : s.line[i];
      if (v < kCwndClamp) {  // ignore the unlimited-cwnd sentinel for scaling
        v_max = std::max(v_max, v);
        any = true;
      }
    }
  }
  if (!any || t_max <= 0) {
    out << "<p class=\"note\">(" << html_escape(lane.title)
        << ": no samples)</p>\n";
    return;
  }
  if (v_max <= 0) v_max = 1;
  v_max *= 1.05;

  auto X = [&](double t) { return kL + t / t_max * plot_w; };
  auto Y = [&](double v) {
    double c = std::min(v, v_max);
    return kT + plot_h - c / v_max * plot_h;
  };

  out << "<figure><figcaption>" << html_escape(lane.title)
      << " <span class=\"unit\">(" << html_escape(lane.unit)
      << ")</span></figcaption>\n";
  out << "<svg viewBox=\"0 0 " << kW << " " << kH
      << "\" role=\"img\" aria-label=\"" << html_escape(lane.title) << "\">\n";

  // Recessive grid: three horizontal rules + labeled y ticks, x ticks in s.
  for (int g = 0; g <= 2; ++g) {
    double v = v_max * g / 2.0;
    double y = Y(v);
    out << "<line class=\"grid\" x1=\"" << kL << "\" y1=\"" << y << "\" x2=\""
        << kW - kR << "\" y2=\"" << y << "\"/>";
    out << "<text class=\"tick\" x=\"" << kL - 6 << "\" y=\"" << y + 4
        << "\" text-anchor=\"end\">" << fmt(v, v_max < 10 ? 2 : 0)
        << "</text>\n";
  }
  for (int g = 0; g <= 4; ++g) {
    double t = t_max * g / 4.0;
    out << "<text class=\"tick\" x=\"" << X(t) << "\" y=\"" << kH - 8
        << "\" text-anchor=\"middle\">" << fmt(t, 1) << "s</text>\n";
  }

  // Stage annotations: dashed verticals, colored by flow, under the data.
  for (const StageEvent& ev : lane.annotations) {
    double x = X(ev.t_us / 1e6);
    out << "<line class=\"stage\" x1=\"" << x << "\" y1=\"" << kT << "\" x2=\""
        << x << "\" y2=\"" << kT + plot_h << "\" stroke=\"var(--s"
        << ev.flow % kPaletteSize << ")\"><title>" << stage_name(ev.stage)
        << " flow " << ev.flow << " @ " << fmt(ev.t_us / 1e6, 3)
        << "s</title></line>\n";
  }

  for (const Series& s : lane.series) {
    if (s.t_s.empty()) continue;
    if (lane.band) {
      std::ostringstream pts;
      for (std::size_t i = 0; i < s.t_s.size(); ++i)
        pts << X(s.t_s[i]) << "," << Y(s.hi[i]) << " ";
      for (std::size_t i = s.t_s.size(); i-- > 0;)
        pts << X(s.t_s[i]) << "," << Y(s.lo[i]) << " ";
      out << "<polygon class=\"band\" fill=\"var(--s" << s.color
          << ")\" points=\"" << pts.str() << "\"><title>" << html_escape(s.label)
          << " min-max envelope</title></polygon>\n";
    }
    std::ostringstream pts;
    for (std::size_t i = 0; i < s.t_s.size(); ++i)
      pts << X(s.t_s[i]) << "," << Y(s.line[i]) << " ";
    out << "<polyline class=\"line\" stroke=\"var(--s" << s.color
        << ")\" points=\"" << pts.str() << "\"><title>" << html_escape(s.label)
        << "</title></polyline>\n";
  }
  out << "</svg></figure>\n";
}

void render_legend(std::ostream& out, const std::vector<Series>& series) {
  if (series.size() < 2) return;  // a single series is named by the title
  out << "<div class=\"legend\">";
  for (const Series& s : series) {
    out << "<span><i style=\"background:var(--s" << s.color << ")\"></i>"
        << html_escape(s.label) << "</span>";
  }
  out << "</div>\n";
}

void render_run(std::ostream& out, const RunData& run, std::size_t top_flows) {
  out << "<section>\n<h2>" << html_escape(run.path) << "</h2>\n";
  out << "<p class=\"note\">sample interval " << fmt(run.interval_us / 1e3, 2)
      << " ms, " << run.flows.size() << " flow(s), " << run.queues.size()
      << " queue(s)";
  if (!run.stages.empty()) out << ", " << run.stages.size() << " stage events";
  out << "</p>\n";

  int plotted = 0, folded = 0;
  std::vector<int> flow_ids;
  for (const auto& [id, cols] : run.flows) {
    if (plotted < kMaxPlottedFlows) {
      flow_ids.push_back(id);
      ++plotted;
    } else {
      ++folded;
    }
  }
  if (folded > 0) {
    out << "<p class=\"note\">plotting the first " << kMaxPlottedFlows
        << " flows; " << folded
        << " more appear in the table only</p>\n";
  }

  auto flow_lane = [&](const char* col, const char* title, const char* unit,
                       double scale) {
    Lane lane;
    lane.title = title;
    lane.unit = unit;
    for (int id : flow_ids) {
      auto it = run.flows.at(id).find(col);
      if (it == run.flows.at(id).end()) continue;
      lane.series.push_back(envelope_series(
          it->second, "flow " + std::to_string(id), id % kPaletteSize, scale));
    }
    return lane;
  };

  // Lane 1: throughput, with the Libra stage transitions overlaid (they
  // explain the rate plateaus — exploration/evaluation/exploitation).
  {
    Lane lane;
    lane.title = "Throughput";
    lane.unit = "Mbps";
    lane.band = false;
    for (int id : flow_ids) {
      auto it = run.flows.at(id).find("acked_bytes");
      if (it == run.flows.at(id).end()) continue;
      lane.series.push_back(throughput_series(
          it->second, "flow " + std::to_string(id), id % kPaletteSize));
    }
    // Cap annotation clutter: fold to at most ~120 markers, evenly thinned.
    std::size_t stride = run.stages.size() / 120 + 1;
    for (std::size_t i = 0; i < run.stages.size(); i += stride)
      lane.annotations.push_back(run.stages[i]);
    if (stride > 1) {
      out << "<p class=\"note\">stage markers thinned 1:" << stride << " ("
          << run.stages.size() << " total)</p>\n";
    }
    render_legend(out, lane.series);
    render_lane(out, lane);
  }

  {
    Lane lane = flow_lane("srtt_ms", "Smoothed RTT", "ms", 1.0);
    render_lane(out, lane);
  }
  {
    Lane lane = flow_lane("cwnd_bytes", "Congestion window", "KiB", 1.0 / 1024);
    render_lane(out, lane);
  }
  {
    Lane lane;
    lane.title = "Bottleneck queue depth";
    lane.unit = "KiB";
    for (const auto& [id, cols] : run.queues) {
      auto it = cols.find("depth_bytes");
      if (it == cols.end()) continue;
      lane.series.push_back(envelope_series(it->second,
                                            "queue " + std::to_string(id),
                                            id % kPaletteSize, 1.0 / 1024));
    }
    render_lane(out, lane);
  }

  // Table view: every flow (including folded ones), no color required. Fleet
  // runs (> kAggregateThreshold flows) collapse to the top flows by
  // throughput plus cross-flow percentile rows — p50, p95 and the worst tail
  // per column (min throughput, max delay/loss).
  struct TableRow {
    int id = 0;
    double thr = 0, srtt_last = 0, srtt_max = 0, cwnd_max = 0, losses = 0;
  };
  std::vector<TableRow> rows;
  for (const auto& [id, cols] : run.flows) {
    TableRow r;
    r.id = id;
    if (auto it = cols.find("acked_bytes"); it != cols.end() &&
                                            !it->second.last.empty()) {
      double dur_s = it->second.bucket_us / 1e6 *
                     static_cast<double>(it->second.last.size());
      if (dur_s > 0) r.thr = it->second.last.back() * 8.0 / dur_s / 1e6;
    }
    if (auto it = cols.find("srtt_ms"); it != cols.end() &&
                                        !it->second.last.empty()) {
      r.srtt_last = it->second.last.back();
      for (double v : it->second.max) r.srtt_max = std::max(r.srtt_max, v);
    }
    if (auto it = cols.find("cwnd_bytes"); it != cols.end()) {
      for (double v : it->second.max)
        if (v < kCwndClamp) r.cwnd_max = std::max(r.cwnd_max, v);
    }
    if (auto it = cols.find("lost_packets"); it != cols.end() &&
                                             !it->second.last.empty()) {
      r.losses = it->second.last.back();
    }
    rows.push_back(r);
  }

  out << "<table><thead><tr><th>flow</th><th>mean throughput (Mbps)</th>"
         "<th>srtt last (ms)</th><th>srtt max (ms)</th>"
         "<th>cwnd max (KiB)</th><th>losses</th></tr></thead><tbody>\n";
  auto emit = [&out](const std::string& label, const TableRow& r, bool chip) {
    out << "<tr><td>";
    if (chip) {
      out << "<i class=\"chip\" style=\"background:var(--s"
          << r.id % kPaletteSize << ")\"></i>";
    }
    out << html_escape(label) << "</td><td>" << fmt(r.thr) << "</td><td>"
        << fmt(r.srtt_last, 1) << "</td><td>" << fmt(r.srtt_max, 1)
        << "</td><td>" << fmt(r.cwnd_max / 1024, 1) << "</td><td>"
        << fmt(r.losses, 0) << "</td></tr>\n";
  };
  if (rows.size() <= kAggregateThreshold) {
    for (const TableRow& r : rows) emit(std::to_string(r.id), r, true);
  } else {
    std::vector<TableRow> by_thr = rows;
    std::sort(by_thr.begin(), by_thr.end(),
              [](const TableRow& a, const TableRow& b) { return a.thr > b.thr; });
    const std::size_t top = std::min<std::size_t>(top_flows, by_thr.size());
    for (std::size_t i = 0; i < top; ++i)
      emit("#" + std::to_string(by_thr[i].id), by_thr[i], true);
    auto column = [&rows](double TableRow::*member) {
      std::vector<double> v;
      v.reserve(rows.size());
      for (const TableRow& r : rows) v.push_back(r.*member);
      std::sort(v.begin(), v.end());
      return v;
    };
    auto pct = [](const std::vector<double>& v, double p) {
      if (v.empty()) return 0.0;
      double idx = p / 100.0 * static_cast<double>(v.size() - 1);
      auto lo = static_cast<std::size_t>(idx);
      std::size_t hi = std::min(lo + 1, v.size() - 1);
      return v[lo] + (idx - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    auto aggregate = [&](const std::string& label, double lo_p, double hi_p) {
      TableRow r;
      r.thr = pct(column(&TableRow::thr), lo_p);          // favorable: high
      r.srtt_last = pct(column(&TableRow::srtt_last), hi_p);  // damage: low
      r.srtt_max = pct(column(&TableRow::srtt_max), hi_p);
      r.cwnd_max = pct(column(&TableRow::cwnd_max), lo_p);
      r.losses = pct(column(&TableRow::losses), hi_p);
      emit(label, r, false);
    };
    const std::string n = std::to_string(rows.size());
    aggregate("p50 of " + n, 50, 50);
    aggregate("p95 of " + n, 5, 95);
    aggregate("worst of " + n, 0, 100);
    out << "</tbody></table>\n"
        << "<p class=\"note\">" << n << " flows: top " << top
        << " by throughput, then cross-flow percentiles (worst = "
           "unfavorable tail per column)</p>\n</section>\n";
    return;
  }
  out << "</tbody></table>\n</section>\n";
}

void render_health(std::ostream& out, const HealthDoc& hd) {
  out << "<section>\n<h2>" << html_escape(hd.path) << "</h2>\n";
  out << "<p class=\"note\">fleet health";
  if (!hd.scenario.empty()) out << " — " << html_escape(hd.scenario);
  if (!hd.cca.empty()) out << " / " << html_escape(hd.cca);
  out << ": " << hd.flows << " flows, " << fmt(hd.window_s * 1e3, 0)
      << " ms windows over " << fmt(hd.duration_s, 1)
      << " s, path floor RTT " << fmt(hd.floor_ms, 2) << " ms, "
      << hd.incidents.size() << " incident(s)</p>\n";

  auto lane_of = [&](const char* title, const char* unit, int color,
                     double (*line)(const HealthDoc::Win&),
                     double (*hi)(const HealthDoc::Win&)) {
    Lane lane;
    lane.title = title;
    lane.unit = unit;
    lane.band = hi != nullptr;
    Series s;
    s.label = title;
    s.color = color;
    for (const HealthDoc::Win& w : hd.wins) {
      const double v = line(w);
      s.t_s.push_back(w.t_s + hd.window_s / 2);
      s.line.push_back(v);
      s.lo.push_back(v);
      s.hi.push_back(hi ? hi(w) : v);
    }
    lane.series.push_back(std::move(s));
    return lane;
  };

  render_lane(out, lane_of(
                       "Fleet goodput", "Mbps", 0,
                       [](const HealthDoc::Win& w) { return w.goodput_bps / 1e6; },
                       nullptr));
  render_lane(out, lane_of(
                       "Jain fairness (active flows)", "index", 2,
                       [](const HealthDoc::Win& w) { return w.jain; }, nullptr));
  // RTT lane: line = fleet mean, band up to the worst per-flow p95.
  render_lane(out, lane_of(
                       "RTT (mean, band to worst flow p95)", "ms", 1,
                       [](const HealthDoc::Win& w) { return w.avg_rtt_ms; },
                       [](const HealthDoc::Win& w) { return w.p95_rtt_ms; }));
  render_lane(out, lane_of(
                       "Losses per window", "packets", 7,
                       [](const HealthDoc::Win& w) { return w.lost; }, nullptr));

  if (hd.incidents.empty()) {
    out << "<p class=\"note\">no incidents detected</p>\n</section>\n";
    return;
  }
  constexpr std::size_t kMaxIncidentRows = 40;
  out << "<table><thead><tr><th>kind</th><th>flow</th><th>from (s)</th>"
         "<th>span (s)</th><th>severity</th><th>value</th><th>threshold</th>"
         "<th>detail</th></tr></thead><tbody>\n";
  const std::size_t n = std::min(kMaxIncidentRows, hd.incidents.size());
  for (std::size_t i = 0; i < n; ++i) {
    const HealthDoc::Inc& inc = hd.incidents[i];
    out << "<tr><td>" << html_escape(inc.kind) << "</td><td>"
        << (inc.flow < 0 ? std::string("fleet") : std::to_string(inc.flow))
        << "</td><td>" << fmt(static_cast<double>(inc.window) * hd.window_s, 1)
        << "</td><td>" << fmt(static_cast<double>(inc.span) * hd.window_s, 1)
        << "</td><td>" << fmt(inc.severity) << "</td><td>" << fmt(inc.value)
        << "</td><td>" << fmt(inc.threshold) << "</td><td class=\"detail\">"
        << html_escape(inc.detail) << "</td></tr>\n";
  }
  out << "</tbody></table>\n";
  if (hd.incidents.size() > kMaxIncidentRows) {
    out << "<p class=\"note\">showing the " << kMaxIncidentRows
        << " most severe of " << hd.incidents.size() << " incidents</p>\n";
  }
  out << "</section>\n";
}

void render_document(std::ostream& out, const std::string& title,
                     const std::vector<RunData>& runs,
                     const std::vector<HealthDoc>& healths,
                     std::size_t top_flows) {
  out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
         "<meta charset=\"utf-8\">\n"
         "<meta name=\"viewport\" content=\"width=device-width\">\n"
         "<title>"
      << html_escape(title) << "</title>\n<style>\n";
  out << ":root{--bg:#fcfcfb;--ink:#1a1a19;--muted:#6b6b68;--grid:#e4e4e0;";
  for (int i = 0; i < kPaletteSize; ++i)
    out << "--s" << i << ":" << kLight[i] << ";";
  out << "}\n@media (prefers-color-scheme: dark){:root{--bg:#1a1a19;"
         "--ink:#fcfcfb;--muted:#9b9b96;--grid:#3a3a37;";
  for (int i = 0; i < kPaletteSize; ++i)
    out << "--s" << i << ":" << kDark[i] << ";";
  out << "}}\n";
  out << "body{background:var(--bg);color:var(--ink);font:15px/1.5 "
         "system-ui,sans-serif;max-width:980px;margin:2rem auto;padding:0 "
         "1rem}\n"
         "h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2.2rem}\n"
         ".note{color:var(--muted);font-size:.85rem}\n"
         ".unit{color:var(--muted);font-weight:normal}\n"
         "figure{margin:0 0 1.2rem}figcaption{font-weight:600;font-size:.95rem;"
         "margin-bottom:.2rem}\n"
         "svg{width:100%;height:auto;display:block}\n"
         ".grid{stroke:var(--grid);stroke-width:1}\n"
         ".tick{fill:var(--muted);font-size:11px}\n"
         ".line{fill:none;stroke-width:2;stroke-linejoin:round}\n"
         ".band{opacity:.16;stroke:none}\n"
         ".stage{stroke-width:1;stroke-dasharray:3 3;opacity:.55}\n"
         ".legend{display:flex;flex-wrap:wrap;gap:.4rem 1rem;font-size:.85rem;"
         "margin:.3rem 0}\n"
         ".legend i,.chip{display:inline-block;width:10px;height:10px;"
         "border-radius:2px;margin-right:.35rem}\n"
         "table{border-collapse:collapse;font-size:.85rem;margin:.6rem 0}\n"
         "td,th{border:1px solid var(--grid);padding:.25rem .6rem;"
         "text-align:right}th:first-child,td:first-child{text-align:left}\n"
         "td.detail{text-align:left;color:var(--muted)}\n";
  out << "</style>\n</head>\n<body>\n<h1>" << html_escape(title) << "</h1>\n";
  for (const RunData& run : runs) render_run(out, run, top_flows);
  for (const HealthDoc& hd : healths) render_health(out, hd);
  out << "</body>\n</html>\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "report.html";
  std::string title = "Telemetry report";
  std::size_t top_flows = 8;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a.rfind("--out=", 0) == 0) {
      out_path = std::string(a.substr(6));
    } else if (a.rfind("--title=", 0) == 0) {
      title = std::string(a.substr(8));
    } else if (a.rfind("--top=", 0) == 0) {
      if (!libra::parse_int<std::size_t>(argv[i] + 6, 0,
                                         std::numeric_limits<int>::max(),
                                         top_flows)) {
        std::cerr << "bad value: " << a << "\n" << kUsage;
        return 2;
      }
    } else if (a.rfind("--", 0) == 0) {
      std::cerr << kUsage;
      return 2;
    } else {
      paths.emplace_back(a);
    }
  }
  if (paths.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  std::vector<RunData> runs;
  std::vector<HealthDoc> healths;
  for (const std::string& path : paths) {
    if (sniff_health(path)) {
      HealthDoc hd;
      if (!load_health(path, hd)) return 1;
      healths.push_back(std::move(hd));
      continue;
    }
    RunData run;
    if (!load_run(path, run)) return 1;
    runs.push_back(std::move(run));
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << "\n";
    return 1;
  }
  render_document(out, title, runs, healths, top_flows);
  out.close();
  std::cerr << "wrote " << out_path << " (" << runs.size() << " run(s), "
            << healths.size() << " health doc(s))\n";
  return 0;
}
