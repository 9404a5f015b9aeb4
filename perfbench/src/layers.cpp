#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>

#include "checks.h"
#include "core/vdqs.h"
#include "mcu/cost_model.h"
#include "nn/executor.h"
#include "nn/rng.h"
#include "nn/runtime/worker_pool.h"
#include "nn/streaming/streaming_session.h"
#include "patch/patch_artifact.h"
#include "patch/patch_cost.h"
#include "patch/patch_executor.h"
#include "patch/streaming_diff.h"
#include "quant/bitpack.h"
#include "quant/entropy.h"
#include "serving.h"

namespace perfbench {

using namespace qmcu;

namespace {

constexpr int kRefUnits = 4;
constexpr double kServeSeconds = 2.0;

// Runs `count` calls of fn, each in a span and between two reference
// measurements (all usable CPUs when `team`), and returns the median
// reference-scaled milliseconds per call.
class Prober {
 public:
  Prober(Yardstick& ys, Tracer& tracer) : ys_(ys), tracer_(tracer) {}

  double ms(const char* span, int count, bool team,
            const std::function<void(int)>& fn) {
    Series s;
    const auto body = [&](int i) {
      Span sp(&tracer_, span, request_++);
      fn(i);
    };
    if (team) {
      ys_.team_round(s, count, kRefUnits, body);
    } else {
      ys_.single_round(s, count, kRefUnits, body);
    }
    return median(s.scaled);
  }

 private:
  Yardstick& ys_;
  Tracer& tracer_;
  std::int64_t request_ = 1'000'000'000;  // apart from the workload's ids
};

int largest_layer(const nn::Graph& g, nn::OpKind kind) {
  int best = -1;
  for (int id = 0; id < g.size(); ++id) {
    if (g.layer(id).kind != kind) continue;
    if (best < 0 || g.macs(id) > g.macs(best)) best = id;
  }
  return best;
}

nn::QTensor random_qtensor(const nn::TensorShape& s, int bits,
                           std::uint64_t seed) {
  const nn::QuantParams p = nn::choose_quant_params(-3.0f, 3.0f, bits);
  nn::QTensor t(s, p);
  nn::Rng rng(seed);
  for (std::int8_t& v : t.data()) {
    v = static_cast<std::int8_t>(
        p.qmin() +
        static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(
                                              p.qmax() - p.qmin() + 1)));
  }
  return t;
}

// VDQS inputs for one branch from a run_stage result, profiled the way the
// search profiles a branch.
std::vector<core::FeatureMapProfile> branch_profile(
    const nn::Graph& g, const patch::PatchBranch& branch,
    const std::vector<nn::Tensor>& fms, int bins) {
  std::vector<core::FeatureMapProfile> out(branch.steps.size());
  for (std::size_t s = 0; s < branch.steps.size(); ++s) {
    core::FeatureMapProfile& p = out[s];
    p.elements = branch.steps[s].out_elements;
    p.entropy_float = quant::activation_entropy(fms[s], bins);
    for (std::size_t j = 0; j < core::kVdqsCandidateBits.size(); ++j) {
      p.entropy_at_bits[j] = quant::quantized_activation_entropy(
          fms[s], core::kVdqsCandidateBits[j], bins);
    }
    for (const patch::BranchStep& t : branch.steps) {
      const nn::Layer& l = g.layer(t.layer_id);
      if (l.kind == nn::OpKind::Input || t.macs == 0) continue;
      if (l.inputs[0] == branch.steps[s].layer_id) p.consumer_macs += t.macs;
    }
  }
  return out;
}

void search_layers(const Fixture& fx, const Options& opts, Prober& probe,
                   Checks& checks, Report& report) {
  const Deployment& dep = *fx.deployment;
  const nn::Graph& g = dep.graph;
  const patch::PatchPlan& pp = dep.plan.patch_plan;
  const core::QuantMcuConfig qcfg = search_config();
  const mcu::Device dev = search_device();
  const int n_calib = static_cast<int>(fx.calib.size());

  report.add("core.search_ms", probe.ms("core.build_quantmcu_plan", 3, false,
                                        [&](int) {
                                          (void)core::build_quantmcu_plan(
                                              g, dev, fx.calib, qcfg);
                                        }),
             "ms");
  report.add("patch.compile_ms",
             probe.ms("patch.compile", 3, false,
                      [&](int) {
                        const auto ranges =
                            quant::calibrate_ranges(g, fx.calib);
                        const auto deploy = core::make_deployment_quant_config(
                            g, dep.plan, ranges);
                        const auto branches =
                            core::make_branch_quant_configs(g, dep.plan,
                                                            ranges);
                        const patch::CompiledPatchQuantModel m(
                            g, pp, deploy, branches);
                      }),
             "ms");
  report.add("quant.calibrate_ms",
             probe.ms("quant.calibrate_ranges", 3, false,
                      [&](int) { (void)quant::calibrate_ranges(g, fx.calib); }),
             "ms");
  report.add("core.vdpc_us",
             1e3 * probe.ms("core.classify_patches", 4 * n_calib, false,
                            [&](int i) {
                              const nn::Tensor& img =
                                  fx.calib[static_cast<std::size_t>(i % n_calib)];
                              const auto cls =
                                  core::classify_patches(img, pp, qcfg.vdpc);
                              check_vdpc(checks, img, pp, qcfg.vdpc.phi, cls);
                            }),
             "us");
  const nn::Executor exec(g);
  report.add("nn.run_all_ms",
             probe.ms("nn.executor.run_all", 2 * n_calib, false,
                      [&](int i) {
                        (void)exec.run_all(
                            fx.calib[static_cast<std::size_t>(i % n_calib)]);
                      }),
             "ms");
  const patch::PatchExecutor pexec(g, pp);
  std::vector<std::vector<nn::Tensor>> stage;
  report.add("patch.run_stage_ms",
             probe.ms("patch.run_stage", 2 * n_calib, false,
                      [&](int i) {
                        stage = pexec.run_stage(
                            fx.calib[static_cast<std::size_t>(i % n_calib)]);
                      }),
             "ms");
  std::vector<const nn::Tensor*> fms;
  for (const auto& branch : stage) {
    for (const nn::Tensor& fm : branch) fms.push_back(&fm);
  }
  report.add("quant.entropy_us",
             1e3 * probe.ms("quant.entropy", static_cast<int>(fms.size()),
                            false,
                            [&](int i) {
                              (void)quant::quantized_activation_entropy(
                                  *fms[static_cast<std::size_t>(i)], 4,
                                  qcfg.histogram_bins);
                            }),
             "us");
  std::vector<std::vector<core::FeatureMapProfile>> profiles;
  std::vector<core::VdqsConfig> vcfgs;
  for (std::size_t b = 0; b < pp.branches.size(); ++b) {
    profiles.push_back(
        branch_profile(g, pp.branches[b], stage[b], qcfg.histogram_bins));
    core::VdqsConfig v;
    v.lambda = qcfg.lambda;
    v.weight_bits = qcfg.weight_bits;
    v.memory_budget = static_cast<std::int64_t>(
        qcfg.memory_fraction * static_cast<double>(dev.sram_bytes));
    v.reference_bitops = std::max<std::int64_t>(
        1, pp.branches[b].total_macs * qcfg.weight_bits * 8);
    v.last_output_entropy =
        std::max(1e-6, profiles.back().back().entropy_at_bits[0]);
    vcfgs.push_back(v);
  }
  report.add("core.vdqs_us",
             1e3 * probe.ms("core.vdqs_search",
                            static_cast<int>(profiles.size()), false,
                            [&](int b) {
                              (void)core::vdqs_search(
                                  profiles[static_cast<std::size_t>(b)],
                                  vcfgs[static_cast<std::size_t>(b)]);
                            }),
             "us");

  const std::string path = opts.out_dir + "/layers-seed" +
                           std::to_string(opts.seed) + ".qmcp";
  report.add("nn.artifact_bake_ms",
             probe.ms("patch.compile_to_artifact", 3, false,
                      [&](int) {
                        patch::compile_to_artifact(g, pp.spec, dep.deploy_cfg,
                                                   dep.branch_cfgs, path);
                      }),
             "ms");
  report.add("nn.artifact_kib",
             static_cast<double>(std::filesystem::file_size(path)) / 1024.0,
             "KiB");
  report.add("nn.artifact_map_ms",
             probe.ms("patch.load_compiled_patch", 3, false,
                      [&](int) { (void)patch::load_compiled_patch(path); }),
             "ms");
  std::filesystem::remove(path);

  const mcu::CostModel cm(dev);
  const patch::PatchCost cost = patch::evaluate_patch_cost(
      g, pp, dep.plan.mixed_bits, dep.plan.tail_bits, cm, qcfg.weight_bits);
  check_bitops(checks, g, dep.plan, cost.bitops, qcfg.weight_bits);
  report.add("mcu.mixed_bitops_m", static_cast<double>(cost.bitops) / 1e6,
             "MBitOPs");
  report.add("mcu.predicted_ms", cost.latency_ms, "ms");
}

void infer_layers(const Fixture& fx, const Options& opts, Prober& probe,
                  Checks& checks, Report& report) {
  const Deployment& dep = *fx.deployment;
  const nn::Graph& g = dep.graph;
  const patch::PatchPlan& pp = dep.plan.patch_plan;
  const int workers = static_cast<int>(opts.cpus.size());
  const int n = static_cast<int>(fx.images.size());
  const auto image = [&](int i) -> const nn::Tensor& {
    return fx.images[static_cast<std::size_t>(i % n)];
  };
  const auto mixed = dep.compile(nn::ops::KernelTier::Simd);
  nn::WorkerPool pool(workers);
  (void)mixed->run(image(0));
  (void)mixed->run(image(0), &pool);

  report.add("patch.seq_ms",
             probe.ms("patch.run_seq", 2 * n, false,
                      [&](int i) {
                        checks.require(same_bytes(mixed->run(image(i)),
                                                  fx.expected[static_cast<
                                                      std::size_t>(i % n)]),
                                       "layers.seq_vs_reference");
                      }),
             "ms");
  report.add("patch.pipelined_ms",
             probe.ms("patch.run_pipelined", 2 * n, true,
                      [&](int i) {
                        checks.require(
                            same_bytes(mixed->run(image(i), &pool),
                                       fx.expected[static_cast<std::size_t>(
                                           i % n)]),
                            "layers.pipelined_vs_reference");
                      }),
             "ms");
  report.add("patch.barrier_par_ms",
             probe.ms("patch.run_barrier", 2 * n, true,
                      [&](int i) {
                        checks.require(
                            same_bytes(mixed->run_barrier(image(i), &pool),
                                       fx.expected[static_cast<std::size_t>(
                                           i % n)]),
                            "layers.barrier_vs_reference");
                      }),
             "ms");
  report.add("nn.runtime.dispatch_us",
             1e3 * probe.ms("nn.runtime.parallel_for", 64, true,
                            [&](int) {
                              pool.parallel_for(
                                  workers, 1,
                                  [](std::int64_t, std::int64_t, int) {});
                            }),
             "us");

  const nn::ActivationQuantConfig cfg8 =
      quant::make_quant_config(g, dep.ranges, nn::uniform_bits(g, 8));
  const auto params8 = nn::QuantizedParameters::build_shared(g, cfg8);
  const nn::CompiledQuantModel layer_based(g, cfg8, nn::ops::KernelTier::Simd,
                                           params8);
  const patch::CompiledPatchQuantModel uniform_patch(
      g, pp, cfg8, {}, nn::ops::KernelTier::Simd, params8);
  report.add("nn.layer_based_ms",
             probe.ms("nn.compiled_quant.run", n, false,
                      [&](int i) { (void)layer_based.run(image(i)); }),
             "ms");
  report.add("patch.uniform_seq_ms",
             probe.ms("patch.run_uniform_int8", n, false,
                      [&](int i) { (void)uniform_patch.run(image(i)); }),
             "ms");
  report.add("patch.halo_macs_m",
             static_cast<double>(pp.redundant_macs()) / 1e6, "MMAC");

  // Kernels at the model's largest conv and depthwise shapes.
  nn::ops::KernelBackend backend;
  const int conv_id = largest_layer(g, nn::OpKind::Conv2D);
  const int dw_id = largest_layer(g, nn::OpKind::DepthwiseConv2D);
  const nn::Layer& conv_l = g.layer(conv_id);
  const nn::Layer& dw_l = g.layer(dw_id);
  const nn::QTensor conv_in = random_qtensor(g.shape(conv_l.inputs[0]), 8, 1);
  const nn::QTensor dw_in = random_qtensor(g.shape(dw_l.inputs[0]), 8, 2);
  const nn::QTensor conv_in4 = random_qtensor(g.shape(conv_l.inputs[0]), 4, 3);
  const std::vector<std::uint8_t> packed4 = quant::pack(conv_in4.data(), 4);
  const nn::QuantParams out_p = nn::choose_quant_params(-8.0f, 8.0f, 8);
  const auto& wc = dep.params->weights[static_cast<std::size_t>(conv_id)];
  const auto& wd = dep.params->weights[static_cast<std::size_t>(dw_id)];
  const auto bc = dep.params->bias[static_cast<std::size_t>(conv_id)];
  const auto bd = dep.params->bias[static_cast<std::size_t>(dw_id)];
  const auto gmacs = [](std::int64_t macs, double ms) {
    return static_cast<double>(macs) / (ms * 1e-3) / 1e9;
  };
  report.add("nn.ops.gemm_gmacs",
             gmacs(g.macs(conv_id),
                   probe.ms("nn.ops.conv2d", 16, false,
                            [&](int) {
                              (void)backend.conv2d(conv_in, conv_l, wc.data,
                                                   wc.params, bc, out_p);
                            })),
             "GMAC/s");
  report.add("nn.ops.dw_gmacs",
             gmacs(g.macs(dw_id),
                   probe.ms("nn.ops.depthwise_conv2d", 16, false,
                            [&](int) {
                              (void)backend.depthwise_conv2d(
                                  dw_in, dw_l, wd.data, wd.params, bd, out_p);
                            })),
             "GMAC/s");
  report.add("nn.ops.packed4_gmacs",
             gmacs(g.macs(conv_id),
                   probe.ms("nn.ops.conv2d_packed", 16, false,
                            [&](int) {
                              (void)backend.conv2d_packed(
                                  packed4, conv_in4.shape(), conv_in4.params(),
                                  conv_l, wc.data, wc.params, bc, out_p);
                            })),
             "GMAC/s");

  // Streaming over one loop of the first camera stream.
  const CameraStream& stream = fx.streams.front();
  const int period = static_cast<int>(stream.frames.size());
  const auto frame = [&](int f) -> const nn::Tensor& {
    return stream.frames[static_cast<std::size_t>(f % period)];
  };
  nn::streaming::StreamingSession<patch::CompiledPatchQuantModel> session;
  (void)session.next(*mixed, frame(0));
  std::int64_t branches = 0;
  std::int64_t bands = 0;
  report.add("nn.streaming.frame_ms",
             probe.ms("nn.streaming.next", period, false,
                      [&](int i) {
                        const int f = (i + 1) % period;
                        const nn::QTensor out = session.next(*mixed, frame(f));
                        checks.require(
                            same_bytes(out, fx.expected_frames.front()
                                                [static_cast<std::size_t>(f)]),
                            "layers.stream_vs_reference");
                        check_dirty(checks, pp,
                                    stream.changed[static_cast<std::size_t>(f)],
                                    session.state().branch_dirty,
                                    session.state().frame_branches_run());
                        branches += session.state().frame_branches_run();
                        bands += session.state().frame_bands_run();
                      }),
             "ms");
  report.add("nn.streaming.branches_per_frame",
             static_cast<double>(branches) / period, "count");
  report.add("nn.streaming.bands_per_frame",
             static_cast<double>(bands) / period, "count");
  report.add("nn.streaming.diff_us",
             1e3 * probe.ms("nn.streaming.diff", period, false,
                            [&](int f) {
                              const nn::Tensor& prev = frame(f + period - 1);
                              const nn::Tensor& cur = frame(f);
                              (void)patch::diff_frames(prev, cur);
                              (void)patch::dirty_branches(prev, cur, pp);
                            }),
             "us");
  report.add("patch.full_frame_ms",
             probe.ms("patch.run_full_frame", period / 2, false,
                      [&](int f) { (void)mixed->run(frame(f)); }),
             "ms");

  const nn::CompiledQuantModel layer_mixed(g, dep.deploy_cfg,
                                           nn::ops::KernelTier::Simd,
                                           dep.params);
  report.add("nn.arena_kib",
             static_cast<double>(mixed->arena_bytes()) / 1024.0, "KiB");
  report.add("nn.arena_layer_kib",
             static_cast<double>(layer_mixed.arena_bytes()) / 1024.0, "KiB");
}

void serve_layers(const Fixture& fx, const Options& opts, Yardstick& ys,
                  Tracer& tracer, Checks& checks, Report& report) {
  ClosedLoopServer server(*fx.deployment, opts.cpus, &tracer);
  const ServeResult r = server.run(fx, kServeSeconds, ys, checks);
  const double exec = median(r.scaled_exec_ms);
  const double latency = median(r.scaled_latency_ms);
  report.add("nn.serving.exec_ms", exec, "ms");
  report.add("nn.serving.wait_ms", latency - exec, "ms");
  report.add("nn.serving.latency_p50_ms", latency, "ms");
  report.add("nn.serving.rps", static_cast<double>(r.requests) / r.window_s,
             "1/s");
  report.add("nn.serving.fps", static_cast<double>(r.frames) / r.window_s,
             "1/s");
  report.add("nn.serving.slab_kib",
             static_cast<double>(r.slab_bytes) / 1024.0, "KiB");
  report.add("nn.streaming.lane_branches_per_frame", r.lane_branches_per_frame,
             "count");
}

}  // namespace

void measure_layers(const Fixture& fixture, const Options& opts,
                    Yardstick& ys, Tracer& tracer, Checks& checks,
                    Report& report) {
  Prober probe(ys, tracer);
  search_layers(fixture, opts, probe, checks, report);
  infer_layers(fixture, opts, probe, checks, report);
  serve_layers(fixture, opts, ys, tracer, checks, report);
}

}  // namespace perfbench
