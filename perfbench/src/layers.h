// layers.h — the per-layer probes of a traced run.
//
// Every traced run, whatever its workload, calls each layer's public
// function from outside with the workload's own deployment and inputs,
// times it against the reference loop, records a span around it, and adds
// one per-layer metric per probe to the report (README.md lists each probe
// with the end-to-end metric it should move).
#pragma once

#include "deployment.h"
#include "harness.h"

namespace perfbench {

void measure_layers(const Fixture& fixture, const Options& opts,
                    Yardstick& ys, Tracer& tracer, Checks& checks,
                    Report& report);

}  // namespace perfbench
