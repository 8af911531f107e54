#include "harness/runner.h"

#include <fstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/sink.h"

namespace libra {

std::unique_ptr<Network> run_scenario(const Scenario& scenario,
                                      const std::vector<FlowSpec>& flows,
                                      std::uint64_t seed) {
  return run_scenario(scenario, flows, seed, ObsOptions{});
}

std::unique_ptr<Network> run_scenario(const Scenario& scenario,
                                      const std::vector<FlowSpec>& flows,
                                      std::uint64_t seed, const ObsOptions& obs) {
  if (flows.empty()) throw std::invalid_argument("run_scenario: no flows");
  if (scenario.duration % kWindowGrid != 0)
    throw std::invalid_argument("run_scenario: duration off the 10 ms measurement grid");
  auto net = std::make_unique<Network>(scenario.link_config(seed));
  if (obs.record) {
    net->recorder().enable(obs.ring_capacity);
    if (!obs.trace_path.empty()) {
      net->recorder().set_sink(StreamLineSink::open_file(obs.trace_path));
    }
  }
  if (obs.telemetry.enabled) net->telemetry().enable(obs.telemetry.config);
  for (const FlowSpec& spec : flows) {
    net->add_flow(spec.make_cca(), spec.start, spec.stop, spec.extra_ack_delay);
  }
  net->run_until(scenario.duration);
  net->finalize_metrics();
  net->recorder().run_end(scenario.duration);
  net->recorder().flush();  // drain the ring tail to the sink (no-op without one)
  if (obs.telemetry.enabled) {
    if (!obs.telemetry.jsonl_path.empty()) {
      std::ofstream out(obs.telemetry.jsonl_path);
      if (!out) throw std::runtime_error("run_scenario: cannot open " +
                                         obs.telemetry.jsonl_path);
      net->telemetry().write_jsonl(out);
    }
  }
  return net;
}

std::string to_json(const RunSummary& summary) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("link_utilization").value(summary.link_utilization);
  w.key("avg_delay_ms").value(summary.avg_delay_ms);
  w.key("total_throughput_bps").value(summary.total_throughput_bps);
  w.key("wall_time_s").value(summary.wall_time_s);
  w.key("sim_time_s").value(summary.sim_time_s);
  w.key("speed_ratio").value(summary.speed_ratio());
  w.key("flows").begin_array();
  for (const FlowSummary& f : summary.flows) {
    w.begin_object();
    w.key("throughput_bps").value(f.throughput_bps);
    w.key("avg_rtt_ms").value(f.avg_rtt_ms);
    w.key("loss_rate").value(f.loss_rate);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out;
}

RunSummary summarize(const Network& net, SimTime warmup, SimTime horizon) {
  RunSummary sum;
  sum.link_utilization = net.link_utilization(warmup, horizon);
  sum.wall_time_s = net.wall_time_s();
  sum.sim_time_s = to_seconds(net.events().now());
  std::int64_t rtt_sum_us = 0;
  std::int64_t acks = 0;
  for (int i = 0; i < net.flow_count(); ++i) {
    const Flow& f = net.flow(i);
    FlowSummary fs;
    fs.throughput_bps = f.throughput_in(warmup, horizon);
    fs.avg_rtt_ms = f.mean_rtt_in(warmup, horizon);
    fs.loss_rate = f.loss_rate_in(warmup, horizon);
    sum.total_throughput_bps += fs.throughput_bps;
    const FlowCounts c = f.counts_in(warmup, horizon);
    rtt_sum_us += c.rtt_sum_us;
    acks += c.acks;
    sum.flows.push_back(fs);
  }
  sum.avg_delay_ms =
      acks > 0 ? static_cast<double>(rtt_sum_us) / (1e3 * static_cast<double>(acks)) : 0;
  return sum;
}

RunSummary run_single(const Scenario& scenario, const CcaFactory& make_cca,
                      std::uint64_t seed, SimDuration warmup) {
  auto net = run_scenario(scenario, {{make_cca}}, seed);
  return summarize(*net, warmup, scenario.duration);
}

}  // namespace libra
