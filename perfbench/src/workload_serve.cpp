// serve — a ServingFrontend over the searched w0.35 @144 mixed deployment
// with the library's default partition, in a closed loop alongside two
// camera streams (see serving.h).
#include <cstdio>

#include "layers.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

using namespace qmcu;

Outcome run_serve(const Options& opts, Report& report, Checks& checks,
                  Tracer* tracer) {
  // ---- set-up: deployment and front-end ----------------------------------
  const TableConfig cfg = arduino_configs()[0];
  std::vector<nn::Tensor> calib = dataset(cfg, kDeploySeed).batch(0, 2);
  std::unique_ptr<Deployment> dep = build_deployment(cfg, calib);
  ClosedLoopServer server(*dep, opts.cpus, tracer);
  const auto ready = Clock::now();
  RefTeam team(opts.cpus);
  Yardstick ys(team);
  const SetupTime setup = setup_time(opts, ys, ready);

  // ---- inputs and their Reference outputs (not timed) -------------------
  const Fixture fx =
      make_fixture(cfg, std::move(dep), std::move(calib), opts.seed, 2);

  const ServeResult r = server.run(fx, opts.seconds, ys, checks);
  std::fprintf(stderr,
               "serve: %d lanes x %d workers (%d pinned), seed %llu\n"
               "  %lld requests (%.2f/s) + %lld frames (%.2f/s) in %.3f s\n"
               "  exec median raw %.4f ms, scaled %.4f ms; response latency"
               " median raw %.4f ms, scaled %.4f ms\n",
               r.lanes, r.workers_per_lane, r.pinned_lanes,
               static_cast<unsigned long long>(opts.seed),
               static_cast<long long>(r.requests), r.requests / r.window_s,
               static_cast<long long>(r.frames), r.frames / r.window_s,
               r.window_s, median(r.exec_ms), median(r.scaled_exec_ms),
               median(r.latency_ms),
               median(r.scaled_latency_ms));
  std::fprintf(stderr,
               "setup raw %.4f s, scaled %.4f s (reference %.4f / %.4f ms "
               "per unit before / after; process CPU %.4f s)\n",
               setup.raw_s, setup.scaled_s, setup.ref_before_s * 1e3,
               setup.ref_after_s * 1e3, setup.cpu_s);

  Outcome outcome;
  outcome.attempted = r.requests + r.frames;
  if (tracer) {
    measure_layers(fx, opts, ys, *tracer, checks, report);
    return outcome;
  }
  report.add("setup_s", setup.scaled_s, "s");
  report.add("latency_ms", median(r.scaled_latency_ms), "ms");
  report.add("arena_kib", static_cast<double>(r.slab_bytes) / 1024.0, "KiB");
  return outcome;
}

}  // namespace perfbench
