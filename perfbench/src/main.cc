// dita_perfbench: the repository benchmark. One process runs one workload
// against the public API and prints, as its last stdout line, the result
// object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
// untraced (--trace 0), per-layer metrics traced (--trace 1). The full
// report (provenance, config, details) goes to --report. run.py checks the
// metric names and units against BENCHMARK.json.

#include <cstdio>
#include <exception>
#include <fstream>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  Report rep;
  SpanLog spans;
  int code = 0;
  try {
    if (args.workload == "serve-search") {
      code = RunServeSearch(args, &rep, &spans);
    } else if (args.workload == "serve-ingest") {
      code = RunServeIngest(args, &rep, &spans);
    } else if (args.workload == "batch-join") {
      code = RunBatchJoin(args, &rep, &spans);
    } else {
      std::fprintf(stderr, "dita_perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dita_perfbench: %s\n", e.what());
    return 1;
  }
  if (code != 0) return code;
  rep.CheckFinite();

  if (!args.report_path.empty()) {
    std::ofstream f(args.report_path);
    f << rep.FullJson(args) << "\n";
    if (!f) {
      std::fprintf(stderr, "dita_perfbench: cannot write %s\n",
                   args.report_path.c_str());
      return 1;
    }
  }
  if (args.trace && !args.spans_path.empty() &&
      !spans.WriteChromeTrace(args.spans_path)) {
    std::fprintf(stderr, "dita_perfbench: cannot write %s\n", args.spans_path.c_str());
    return 1;
  }
  for (const std::string& p : rep.problems) {
    std::fprintf(stderr, "dita_perfbench: problem: %s\n", p.c_str());
  }
  std::printf("%s\n", rep.ResultLine(args.trace).c_str());
  return 0;
}
