// search — the offline deployment path on both Arduino Table I
// configurations: value-driven search, deployment compile, artifact bake,
// and artifact load.
#include <cstdio>
#include <filesystem>
#include <string>

#include "checks.h"
#include "deployment.h"
#include "layers.h"
#include "mcu/cost_model.h"
#include "patch/patch_artifact.h"
#include "patch/patch_cost.h"
#include "workloads.h"

namespace perfbench {

using namespace qmcu;

namespace {

constexpr int kRefUnits = 10;
constexpr int kSteps = 4;  // plan, compile, bake, load; per configuration

// Calibration batches are drawn from dataset seed kCalibBase + --seed.
constexpr std::uint64_t kCalibBase = 0x5ea4c000ull;
// The known-fault deployment: w0.35 @144 searched on the calibration batch
// of --seed 3. Its artifact-loaded model differs from the Reference tier.
constexpr std::uint64_t kFaultCalibSeed = kCalibBase + 3;

struct Config {
  TableConfig table;
  nn::Graph graph;
  std::vector<nn::Tensor> calib;
  nn::Tensor probe;  // input of the compiled model's checked inference
};

}  // namespace

Outcome run_search(const Options& opts, Report& report, Checks& checks,
                   Tracer* tracer) {
  // ---- set-up: models and seeded calibration batches --------------------
  std::vector<std::unique_ptr<Config>> configs;
  for (const TableConfig& t : arduino_configs()) {
    auto c = std::make_unique<Config>(
        Config{t, models::make_mobilenet_v2(t.scale), {}, {}});
    const data::SyntheticDataset ds = dataset(t, kCalibBase + opts.seed);
    c->calib = ds.batch(0, 2);
    c->probe = ds.image(2);
    configs.push_back(std::move(c));
  }
  const core::QuantMcuConfig qcfg = search_config();
  const mcu::Device dev = search_device();
  const mcu::CostModel cm(dev);
  const std::int64_t memory_budget = static_cast<std::int64_t>(
      qcfg.memory_fraction * static_cast<double>(dev.sram_bytes));
  const auto ready = Clock::now();
  RefTeam team(opts.cpus);
  Yardstick ys(team);
  const SetupTime setup = setup_time(opts, ys, ready);

  // ---- the known-fault deployment (not timed) ----------------------------
  // Its artifact and the Reference output of its probe image. It is fixed,
  // so it fails on every seed alike.
  struct {
    std::string path;
    nn::Tensor probe;
    nn::QTensor expected;
  } fault;
  {
    const TableConfig& t = configs.front()->table;
    const data::SyntheticDataset ds = dataset(t, kFaultCalibSeed);
    const std::unique_ptr<Deployment> dep =
        build_deployment(t, ds.batch(0, 2));
    fault.path = opts.out_dir + "/search-known-fault-seed" +
                 std::to_string(opts.seed) + ".qmcp";
    patch::compile_to_artifact(dep->graph, dep->plan.patch_plan.spec,
                               dep->deploy_cfg, dep->branch_cfgs, fault.path);
    fault.probe = ds.image(2);
    fault.expected =
        dep->compile(nn::ops::KernelTier::Reference)->run(fault.probe);
  }

  Series search_ms, compile_ms, bake_ms, load_ms, first_run_ms;
  std::vector<double> op_ms;
  std::vector<double> arena_kib;
  Outcome outcome;

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  int round = 0;
  do {
    // One operation: both configurations through the whole offline path,
    // as eight steps (4 per configuration), each between two reference
    // measurements.
    struct Built {
      core::QuantMcuPlan plan;
      nn::ActivationQuantConfig deploy;
      std::vector<patch::BranchQuantConfig> branches;
      std::unique_ptr<patch::CompiledPatchQuantModel> model;
      std::int64_t loaded_arena = 0;
      std::size_t loaded_branches = 0;
    };
    std::vector<Built> built(configs.size());
    const auto path = [&](const Config& c) {
      return opts.out_dir + "/search-" + c.table.slug + "-seed" +
             std::to_string(opts.seed) + ".qmcp";
    };
    Series steps;
    ys.single_round(
        steps, static_cast<int>(kSteps * configs.size()), kRefUnits,
        [&](int i) {
          const std::size_t ci = static_cast<std::size_t>(i / kSteps);
          const Config& c = *configs[ci];
          Built& b = built[ci];
          const std::int64_t id = static_cast<std::int64_t>(round) * 2 +
                                  static_cast<std::int64_t>(ci);
          switch (i % kSteps) {
            case 0: {
              Span span(tracer, "core.build_quantmcu_plan", id);
              b.plan = core::build_quantmcu_plan(c.graph, dev, c.calib, qcfg);
              break;
            }
            case 1: {
              Span span(tracer, "search.compile", id);
              const auto ranges = quant::calibrate_ranges(c.graph, c.calib);
              b.deploy =
                  core::make_deployment_quant_config(c.graph, b.plan, ranges);
              b.branches =
                  core::make_branch_quant_configs(c.graph, b.plan, ranges);
              b.model = std::make_unique<patch::CompiledPatchQuantModel>(
                  c.graph, b.plan.patch_plan, b.deploy, b.branches);
              break;
            }
            case 2: {
              Span span(tracer, "patch.compile_to_artifact", id);
              patch::compile_to_artifact(c.graph, b.plan.patch_plan.spec,
                                         b.deploy, b.branches, path(c));
              break;
            }
            default: {
              // Disk to a ready model. Its first inference is left out
              // here: on some searched deployments it differs from the
              // Reference tier, so whether it fails would depend on the
              // seed. The fixed operation below runs it on every round.
              Span span(tracer, "patch.load_compiled_patch", id);
              const patch::LoadedPatchModel loaded =
                  patch::load_compiled_patch(path(c));
              b.loaded_arena = loaded.model->arena_bytes();
              b.loaded_branches = loaded.model->plan().branches.size();
              break;
            }
          }
        });
    for (const auto& c : configs) std::filesystem::remove(path(*c));
    Series* series[kSteps] = {&search_ms, &compile_ms, &bake_ms, &load_ms};
    double op = 0.0;
    for (int k = 0; k < kSteps; ++k) {
      double raw = 0.0;
      double scaled = 0.0;
      for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        raw += steps.raw[ci * kSteps + static_cast<std::size_t>(k)];
        scaled += steps.scaled[ci * kSteps + static_cast<std::size_t>(k)];
      }
      series[k]->raw.push_back(raw);
      series[k]->scaled.push_back(scaled);
      op += scaled;
    }
    op_ms.push_back(op);
    double kib = 0.0;
    for (const Built& b : built) {
      kib += static_cast<double>(b.model->arena_bytes()) / 1024.0;
    }
    arena_kib.push_back(kib / static_cast<double>(built.size()));
    ++outcome.attempted;

    // The known-fault operation: disk to first inference of the fixed
    // deployment's artifact, checked against its Reference output. It
    // counts as failed, not as a failed check, while the loaded model's
    // output differs (see README.md, "Known faults").
    bool fault_ok = false;
    ys.single_round(first_run_ms, 1, kRefUnits, [&](int) {
      Span span(tracer, "search.known_fault_first_run", -1);
      const patch::LoadedPatchModel loaded =
          patch::load_compiled_patch(fault.path);
      fault_ok = same_bytes(loaded.model->run(fault.probe), fault.expected);
    });
    ++outcome.attempted;
    outcome.failed += fault_ok ? 0 : 1;

    // ---- checks (not timed) ---------------------------------------------
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const Config& c = *configs[ci];
      const Built& b = built[ci];
      check_widths(checks, c.graph, b.plan, memory_budget);
      for (const nn::Tensor& img : c.calib) {
        check_vdpc(checks, img, b.plan.patch_plan, qcfg.vdpc.phi,
                   core::classify_patches(img, b.plan.patch_plan, qcfg.vdpc));
      }
      const patch::PatchCost cost = patch::evaluate_patch_cost(
          c.graph, b.plan.patch_plan, b.plan.mixed_bits, b.plan.tail_bits, cm,
          qcfg.weight_bits);
      check_bitops(checks, c.graph, b.plan, cost.bitops, qcfg.weight_bits);
      const patch::CompiledPatchQuantModel reference(
          c.graph, b.plan.patch_plan, b.deploy, b.branches,
          nn::ops::KernelTier::Reference);
      checks.require(same_bytes(b.model->run(c.probe), reference.run(c.probe)),
                     "search.compiled_vs_reference", c.table.slug);
      checks.require(b.loaded_arena == b.model->arena_bytes() &&
                         b.loaded_branches == b.plan.patch_plan.branches.size(),
                     "search.loaded_plan_matches", c.table.slug);
    }

    ++round;
  } while (Clock::now() < deadline);

  std::filesystem::remove(fault.path);
  std::fprintf(stderr, "search: %d rounds, seed %llu\n", round,
               static_cast<unsigned long long>(opts.seed));
  print_series("search", search_ms);
  print_series("compile", compile_ms);
  print_series("bake", bake_ms);
  print_series("load", load_ms);
  print_series("known-fault first run", first_run_ms);
  std::fprintf(stderr, "known-fault operation failed in %lld of %d rounds\n",
               static_cast<long long>(outcome.failed), round);
  std::fprintf(stderr,
               "setup raw %.4f s, scaled %.4f s (reference %.4f / %.4f ms "
               "per unit before / after; process CPU %.4f s)\n",
               setup.raw_s, setup.scaled_s, setup.ref_before_s * 1e3,
               setup.ref_after_s * 1e3, setup.cpu_s);

  std::fprintf(stderr, "operation scaled median %.4f ms (n=%zu)\n",
               median(op_ms), op_ms.size());
  if (tracer) {
    // Per-layer probes on the w0.35 @144 deployment searched on this
    // run's calibration batch.
    const TableConfig& cfg = configs.front()->table;
    std::vector<nn::Tensor> calib = configs.front()->calib;
    auto dep = build_deployment(cfg, calib);
    const Fixture fx =
        make_fixture(cfg, std::move(dep), std::move(calib), opts.seed, 1);
    measure_layers(fx, opts, ys, *tracer, checks, report);
    return outcome;
  }
  report.add("setup_s", setup.scaled_s, "s");
  report.add("latency_ms", median(op_ms), "ms");
  report.add("arena_kib", median(arena_kib), "KiB");
  return outcome;
}

}  // namespace perfbench
