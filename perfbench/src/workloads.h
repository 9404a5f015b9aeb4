// workloads.h — the three benchmark workloads (see README.md).
#pragma once

#include <cstdint>

#include "harness.h"

namespace perfbench {

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

// Each workload builds its inputs from opts.seed, measures for
// opts.seconds, checks every output, and adds its end-to-end metrics (or,
// with a tracer, its per-layer metrics) to `report`.
Outcome run_search(const Options& opts, Report& report, Checks& checks,
                   Tracer* tracer);
Outcome run_infer(const Options& opts, Report& report, Checks& checks,
                  Tracer* tracer);
Outcome run_serve(const Options& opts, Report& report, Checks& checks,
                  Tracer* tracer);

}  // namespace perfbench
