// perfbench: the repository benchmark binary (see README.md).
//
//   perfbench --workload paper|train|fleet --seed N --seconds S [--trace 0|1]
//
// Prints a provenance line and the exact work counters of the first batch,
// then, as the last line, {"correct","attempted","failed","metrics"}.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "harness/parallel.h"
#include "obs/json.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (const std::string error = perfbench::parse_options(argc, argv, opts); !error.empty()) {
    std::cerr << "perfbench: " << error << "\n" << perfbench::usage(argv[0]);
    return 2;
  }
  // Every pool the program creates by default (run_many, zoo training)
  // reads LIBRA_THREADS; pin it before the first one exists.
  setenv("LIBRA_THREADS", std::to_string(perfbench::pool_size()).c_str(), 1);

  try {
    std::unique_ptr<perfbench::Workload> workload;
    if (opts.workload == "paper") {
      workload = perfbench::make_paper(opts.seed, libra::default_pool());
    } else if (opts.workload == "train") {
      workload = perfbench::make_train(libra::default_pool());
    } else {
      workload = perfbench::make_fleet(opts.seed);
    }
    const perfbench::Report report = perfbench::run_benchmark(*workload, opts);

    std::string result;
    libra::JsonWriter w(result);
    w.begin_object();
    w.key("correct").value(report.correct);
    w.key("attempted").value(report.attempted);
    w.key("failed").value(report.failed);
    w.key("metrics").begin_object();
    for (const perfbench::Metric& m : report.metrics) {
      w.key(m.name).begin_object();
      w.key("value").value(m.value);
      w.key("unit").value(m.unit);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    std::printf("{\"provenance\":%s}\n{\"work\":%s}\n%s\n", report.provenance_json.c_str(),
                report.work_json.c_str(), result.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
