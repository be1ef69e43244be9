// perfbench: the repository benchmark program (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--commit SHA] [--source DIGEST]
//
// Runs one workload, checks its oracles, and prints as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"} holding every
// metric the run measured. With --trace 1 the run also records spans
// around its calls into the library, runs the per-layer probes, reports
// each layer's self time, and writes the spans to DIR/trace-NAME-N.jsonl.
// An oracle mismatch exits with code 1 and prints no result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload oneshot_ball|engine_churn|"
               "service_mix --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--commit SHA] [--source DIGEST]\n";
  return 2;
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void print_result(const Report& rep) {
  std::cout << "samples " << '{';
  for (std::size_t i = 0; i < rep.samples.size(); ++i) {
    std::cout << (i ? "," : "") << '"' << rep.samples[i].first
              << "\":" << rep.samples[i].second;
  }
  std::cout << "}\n";
  std::cout << "{\"correct\": true, \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Report::Metric& m = rep.metrics[i];
    std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else if (key == "--commit") {
      opt.commit = val;
    } else if (key == "--source") {
      opt.source = val;
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0) return usage();
  int (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "oneshot_ball") run = run_oneshot;
  if (opt.workload == "engine_churn") run = run_churn;
  if (opt.workload == "service_mix") run = run_service;
  if (run == nullptr) return usage();

  trace::enable(opt.trace);
  std::cout << "fingerprint " << fingerprint_json(opt) << std::endl;
  Report rep;
  try {
    if (run(opt, rep) != 0) return 1;
  } catch (const BenchFailure& e) {
    std::cerr << "perfbench: FAILED: " << e.what() << std::endl;
    return 1;
  }
  if (opt.trace) {
    const double cost = trace::span_cost_ns();
    const std::vector<SpanRecord> spans = trace::collect();
    for (const auto& [layer, s] : trace::self_seconds_by_layer(spans)) {
      rep.add("self_s." + layer, s, "s");
    }
    rep.add("trace.spans", static_cast<double>(spans.size()), "count");
    rep.add("trace.span_cost_ns", cost, "ns");
    const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!trace::write_jsonl(path, spans)) {
      std::cerr << "perfbench: cannot write " << path << std::endl;
      return 1;
    }
    std::cout << "trace " << spans.size() << " spans -> " << path << "\n";
  }
  for (const std::string& line : rep.lines) std::cout << line << "\n";
  print_result(rep);
  return 0;
}
