// infer — single requests and one camera stream through the searched
// mbv2 w0.35 @144 mixed-precision deployment. One operation is a
// sequential request (1 worker), a pipelined request over a pool of nproc
// workers, and the next frame of the stream (exact mode, 1 worker).
#include <cstdio>
#include <string>

#include "checks.h"
#include "deployment.h"
#include "layers.h"
#include "nn/runtime/worker_pool.h"
#include "nn/streaming/streaming_session.h"
#include "patch/patch_artifact.h"
#include "workloads.h"

namespace perfbench {

using namespace qmcu;

namespace {

constexpr int kRefUnits = 8;
constexpr int kOpsPerRound = 8;

}  // namespace

Outcome run_infer(const Options& opts, Report& report, Checks& checks,
                  Tracer* tracer) {
  // ---- set-up: what a deployment pays before its first request ----------
  const TableConfig cfg = arduino_configs()[0];
  std::vector<nn::Tensor> calib = dataset(cfg, kDeploySeed).batch(0, 2);
  std::unique_ptr<Deployment> dep = build_deployment(cfg, calib);
  const auto mixed = dep->compile(nn::ops::KernelTier::Simd);
  const int workers = static_cast<int>(opts.cpus.size());
  nn::WorkerPool pool(workers);
  const auto ready = Clock::now();
  RefTeam team(opts.cpus);
  Yardstick ys(team);
  const SetupTime setup = setup_time(opts, ys, ready);

  // ---- inputs and their Reference outputs (not timed) -------------------
  const Fixture fx =
      make_fixture(cfg, std::move(dep), std::move(calib), opts.seed, 1);
  const Deployment& d = *fx.deployment;
  const patch::PatchPlan& pp = d.plan.patch_plan;
  const int n = static_cast<int>(fx.images.size());
  const CameraStream& stream = fx.streams.front();
  const int period = static_cast<int>(stream.frames.size());
  {
    // The artifact-loaded deployment must match the Reference tier too.
    const std::string path =
        opts.out_dir + "/infer-seed" + std::to_string(opts.seed) + ".qmcp";
    patch::compile_to_artifact(d.graph, pp.spec, d.deploy_cfg, d.branch_cfgs,
                               path);
    const patch::LoadedPatchModel loaded = patch::load_compiled_patch(path);
    for (int i = 0; i < n; ++i) {
      checks.require(
          same_bytes(loaded.model->run(fx.images[static_cast<std::size_t>(i)]),
                     fx.expected[static_cast<std::size_t>(i)]),
          "infer.artifact_vs_reference", "image " + std::to_string(i));
    }
    std::remove(path.c_str());

    // Patching must not change results: the uniform int8 patch model
    // equals the layer-based Reference model under one 8-bit config.
    const nn::ActivationQuantConfig cfg8 = quant::make_quant_config(
        d.graph, d.ranges, nn::uniform_bits(d.graph, 8));
    const patch::CompiledPatchQuantModel uniform(d.graph, pp, cfg8);
    const nn::CompiledQuantModel layer_ref(d.graph, cfg8,
                                           nn::ops::KernelTier::Reference);
    for (int i = 0; i < 2; ++i) {
      const nn::Tensor& img = fx.images[static_cast<std::size_t>(i)];
      checks.require(same_bytes(uniform.run(img), layer_ref.run(img)),
                     "infer.uniform_patch_vs_layer_reference",
                     "image " + std::to_string(i));
    }
  }

  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session;
  checks.require(same_bytes(session.next(*mixed, stream.frames[0]),
                            fx.expected_frames[0][0]),
                 "infer.stream_vs_reference", "priming frame");
  for (int i = 0; i < 2; ++i) {
    (void)mixed->run(fx.images[static_cast<std::size_t>(i)]);
    (void)mixed->run(fx.images[static_cast<std::size_t>(i)], &pool);
  }

  // ---- measurement ------------------------------------------------------
  Series seq, par, frame;
  std::vector<double> op_ms;
  std::int64_t request = 0;
  int next_image = 0;
  int next_frame = 1;
  Outcome outcome;
  std::vector<nn::QTensor> outs(kOpsPerRound);
  std::vector<int> used(kOpsPerRound);
  std::vector<std::vector<std::uint8_t>> dirty(kOpsPerRound);
  std::vector<std::int64_t> ran(kOpsPerRound);
  const auto timed_leg = [&](Series& s, bool team_leg, const char* span,
                             const std::function<void(int)>& fn) {
    const auto body = [&](int i) {
      Span sp(tracer, span, request++);
      fn(i);
    };
    if (team_leg) {
      ys.team_round(s, kOpsPerRound, kRefUnits, body);
    } else {
      ys.single_round(s, kOpsPerRound, kRefUnits, body);
    }
  };
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  while (Clock::now() < deadline) {
    const std::size_t first = seq.scaled.size();
    timed_leg(seq, false, "infer.run_seq", [&](int i) {
      used[i] = next_image;
      next_image = (next_image + 1) % n;
      outs[i] = mixed->run(fx.images[static_cast<std::size_t>(used[i])]);
    });
    for (int i = 0; i < kOpsPerRound; ++i) {
      checks.require(same_bytes(outs[i], fx.expected[static_cast<std::size_t>(
                                             used[i])]),
                     "infer.seq_vs_reference");
    }
    timed_leg(par, true, "infer.run_par", [&](int i) {
      used[i] = next_image;
      next_image = (next_image + 1) % n;
      outs[i] =
          mixed->run(fx.images[static_cast<std::size_t>(used[i])], &pool);
    });
    for (int i = 0; i < kOpsPerRound; ++i) {
      checks.require(same_bytes(outs[i], fx.expected[static_cast<std::size_t>(
                                             used[i])]),
                     "infer.par_vs_reference");
    }
    timed_leg(frame, false, "infer.stream_next", [&](int i) {
      used[i] = next_frame;
      next_frame = (next_frame + 1) % period;
      outs[i] = session.next(*mixed,
                             stream.frames[static_cast<std::size_t>(used[i])]);
      dirty[i] = session.state().branch_dirty;
      ran[i] = session.state().frame_branches_run();
    });
    for (int i = 0; i < kOpsPerRound; ++i) {
      checks.require(
          same_bytes(outs[i],
                     fx.expected_frames[0][static_cast<std::size_t>(used[i])]),
          "infer.stream_vs_reference", "frame " + std::to_string(used[i]));
      check_dirty(checks, pp, stream.changed[static_cast<std::size_t>(used[i])],
                  dirty[i], ran[i]);
    }
    for (int i = 0; i < kOpsPerRound; ++i) {
      const std::size_t k = first + static_cast<std::size_t>(i);
      op_ms.push_back(seq.scaled[k] + par.scaled[k] + frame.scaled[k]);
    }
    outcome.attempted += kOpsPerRound;
  }

  std::fprintf(stderr, "infer: %d workers, %zu branches, seed %llu\n",
               workers, pp.branches.size(),
               static_cast<unsigned long long>(opts.seed));
  print_series("sequential request", seq);
  print_series("pipelined request", par);
  print_series("stream frame", frame);
  std::fprintf(stderr, "operation scaled median %.4f ms (n=%zu)\n",
               median(op_ms), op_ms.size());
  std::fprintf(stderr,
               "setup raw %.4f s, scaled %.4f s (reference %.4f / %.4f ms "
               "per unit before / after; process CPU %.4f s)\n",
               setup.raw_s, setup.scaled_s, setup.ref_before_s * 1e3,
               setup.ref_after_s * 1e3, setup.cpu_s);
  if (tracer) {
    checks.require(tracer->count("infer.run_seq") == outcome.attempted &&
                       tracer->count("infer.run_par") == outcome.attempted &&
                       tracer->count("infer.stream_next") == outcome.attempted,
                   "trace.one_span_per_call");
    measure_layers(fx, opts, ys, *tracer, checks, report);
    return outcome;
  }
  report.add("setup_s", setup.scaled_s, "s");
  report.add("latency_ms", median(op_ms), "ms");
  report.add("arena_kib", static_cast<double>(mixed->arena_bytes()) / 1024.0,
             "KiB");
  return outcome;
}

}  // namespace perfbench
