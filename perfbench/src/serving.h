// serving.h — a closed-loop client of nn::serving::ServingFrontend over a
// mixed-precision deployment, shared by the serve workload and the
// per-layer probes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "deployment.h"
#include "harness.h"

namespace perfbench {

struct ServeResult {
  double window_s = 0.0;
  std::int64_t requests = 0;  // completed inside the window
  std::int64_t frames = 0;
  std::vector<double> latency_ms;  // admitted -> completed, per request
  std::vector<double> scaled_latency_ms;
  std::vector<double> exec_ms;     // lane execution, per request
  std::vector<double> scaled_exec_ms;
  double lane_branches_per_frame = 0.0;
  std::int64_t slab_bytes = 0;  // arena memory the lanes and streams hold
  int lanes = 0;
  int workers_per_lane = 0;
  int pinned_lanes = 0;
};

// A ServingFrontend over `deployment` with the library's default
// partition of `cpus` (unbounded queue, no deadlines). Construction is the
// serving set-up; the calling thread ends pinned to cpus[0].
class ClosedLoopServer {
 public:
  ClosedLoopServer(const Deployment& deployment, const std::vector<int>& cpus,
                   Tracer* tracer);
  ~ClosedLoopServer();
  ClosedLoopServer(const ClosedLoopServer&) = delete;
  ClosedLoopServer& operator=(const ClosedLoopServer&) = delete;

  // Keeps two requests per lane in flight from the calling thread,
  // alongside one frame of each of the fixture's camera streams, for
  // `seconds`, and checks every output against the fixture's Reference
  // outputs. The window is cut into segments; between two segments the
  // loop drains and the reference loop runs on every CPU, and each
  // request's latency is scaled by the measurements around its segment.
  ServeResult run(const Fixture& fixture, double seconds, Yardstick& ys,
                  Checks& checks);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
