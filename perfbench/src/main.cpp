// perfbench — end-to-end benchmark of the QuantMCU search, single-request
// inference and serving. See ../README.md for workloads and metrics.
//
//   perfbench --workload search|infer|serve --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// The last line of stdout is the result JSON; everything else goes to
// stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  opts.out_dir = ".bench_build/perfbench-out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(val);
    } else if (key == "--trace") {
      opts.trace = std::atoi(val) != 0;
    } else if (key == "--out-dir") {
      opts.out_dir = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opts.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::filesystem::create_directories(opts.out_dir);

  // Operations and the reference loop run on one pinned CPU, so both see
  // the same vCPU's speed.
  opts.cpus = usable_cpus();
  pin_to_cpu(opts.cpus.front());
  {
    RefLoop before;
    opts.setup_ref_unit_s = before.run(kSetupRefUnits) / kSetupRefUnits;
  }
  opts.setup_start = Clock::now();

  Report report;
  Checks checks;
  Tracer tracer(opts.setup_start);
  Tracer* t = opts.trace ? &tracer : nullptr;
  Outcome outcome;
  try {
    if (opts.workload == "search") {
      outcome = run_search(opts, report, checks, t);
    } else if (opts.workload == "infer") {
      outcome = run_infer(opts, report, checks, t);
    } else if (opts.workload == "serve") {
      outcome = run_serve(opts, report, checks, t);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (t) {
    tracer.print_table(stderr);
    const std::string path = opts.out_dir + "/trace-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".json";
    if (tracer.write_chrome_json(path)) {
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
  }
  report.print(checks.ok(), outcome.attempted, outcome.failed);
  std::fprintf(stderr, "%lld checks passed\n",
               static_cast<long long>(checks.passed()));
  return checks.ok() ? 0 : 1;
}
