#include "patch/compiled_patch_model.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "nn/executor.h"
#include "nn/ops/float_kernels.h"
#include "nn/ops/lut/lut_kernels.h"
#include "nn/ops/requantize.h"
#include "patch/patch_cost.h"
#include "patch/patch_executor.h"
#include "patch/patch_quant_executor.h"
#include "patch/region_pool.h"

namespace qmcu::patch {

namespace {

using nn::ArenaRequest;

// Branch step liveness is identical across branches (same layer structure),
// so the unified timeline is: step indices [0, S) for the branch phase
// (slots reused branch after branch), then one step per tail layer.
struct PatchTimeline {
  std::vector<ArenaRequest> requests;
  int num_steps = 0;        // S
  int assembled_index = 0;  // request index of the reassembled cut layer
};

PatchTimeline build_timeline(const nn::Graph& g, const PatchPlan& plan,
                             std::int64_t elem_bytes) {
  PatchTimeline t;
  const PatchBranch& proto = plan.branches.front();
  t.num_steps = static_cast<int>(proto.steps.size());
  const int split = plan.spec.split_layer;
  const int tail_count = g.size() - split - 1;

  // Branch slots: the largest region any branch computes at each step.
  for (int s = 0; s < t.num_steps; ++s) {
    std::int64_t size = 0;
    for (const PatchBranch& b : plan.branches) {
      const BranchStep& step = b.steps[static_cast<std::size_t>(s)];
      const std::int64_t c = g.shape(step.layer_id).c;
      size = std::max(size, step.out_region.area() * c * elem_bytes);
    }
    t.requests.push_back({size, s, branch_last_use(g, proto, s)});
  }
  // Tail slots over layer-based lifetimes, shifted onto the timeline.
  for (int id = split + 1; id < g.size(); ++id) {
    t.requests.push_back({g.shape(id).elements() * elem_bytes,
                          t.num_steps + (id - split - 1),
                          t.num_steps + (nn::last_use_step(g, id) - split - 1)});
  }
  // The reassembled cut-layer map: written branch by branch, read by the
  // tail — live from the first branch step through its last tail consumer.
  const int last_use = nn::last_use_step(g, split);
  const int assembled_last = last_use > split
                                 ? t.num_steps + (last_use - split - 1)
                                 : std::max(t.num_steps - 1, 0);
  t.assembled_index = t.num_steps + tail_count;
  t.requests.push_back(
      {g.shape(split).elements() * elem_bytes, 0, assembled_last});
  return t;
}

nn::TensorShape region_shape(const BranchStep& step, int channels) {
  return {step.out_region.y.size(), step.out_region.x.size(), channels};
}

// --- domain glue -----------------------------------------------------------
// What differs between the float and int8 domains, as overloads on the
// domain or its tensor type that the runtime template resolves at compile
// time. Float views carry no parameters; NoParams stands in for QuantParams.

struct NoParams {};

NoParams params_of(const nn::Tensor&) { return {}; }
const nn::QuantParams& params_of(const nn::QTensor& t) { return t.params(); }

nn::Tensor make_view(const nn::TensorShape& s, NoParams, float* data) {
  return nn::Tensor(
      s, std::span<float>(data, static_cast<std::size_t>(s.elements())));
}

nn::QTensor make_view(const nn::TensorShape& s, const nn::QuantParams& p,
                      std::int8_t* data) {
  return nn::QTensor(
      s, p,
      std::span<std::int8_t>(data, static_cast<std::size_t>(s.elements())));
}

nn::Tensor borrow(nn::ops::ScratchArena& a, const nn::TensorShape& s,
                  NoParams) {
  return make_view(s, {}, a.f32(static_cast<std::size_t>(s.elements())).data());
}

nn::QTensor borrow(nn::ops::ScratchArena& a, const nn::TensorShape& s,
                   const nn::QuantParams& p) {
  return make_view(s, p, a.i8(static_cast<std::size_t>(s.elements())).data());
}

// Binds a view onto its planned slot at `base`. `measured` tracks the
// furthest byte actually written through bound views (base-relative), not
// the planned slot size: the high-water is a measurement, and it reaches
// the planned peak because the largest branch fully exercises its slot.
template <class Domain, class Params>
typename Domain::Tensor bind_slot(std::uint8_t* base,
                                  const nn::ArenaSlot& slot,
                                  const nn::TensorShape& shape,
                                  const Params& p, std::int64_t& measured) {
  using Elem = typename Domain::Elem;
  const std::int64_t bytes =
      shape.elements() * static_cast<std::int64_t>(sizeof(Elem));
  QMCU_ENSURE(bytes <= slot.size, "bound view exceeds its arena slot");
  measured = std::max(measured, slot.offset + bytes);
  return make_view(shape, p, reinterpret_cast<Elem*>(base + slot.offset));
}

// A zero-copy view of rows [rows.begin, rows.end) of a full feature map —
// rows are contiguous in HWC layout, so a tail band writes (and element-wise
// bands read) straight through the bound arena view.
template <class T>
T row_view(T& t, const Interval& rows) {
  const nn::TensorShape& s = t.shape();
  const std::int64_t stride = static_cast<std::int64_t>(s.w) * s.c;
  return make_view(nn::TensorShape{rows.size(), s.w, s.c}, params_of(t),
                   t.data()
                       .subspan(static_cast<std::size_t>(rows.begin * stride),
                                static_cast<std::size_t>(rows.size() * stride))
                       .data());
}

// Params of tail layer `id`'s bound view.
NoParams layer_params(const FloatPatchDomain&, int) { return {}; }
const nn::QuantParams& layer_params(const QuantPatchDomain& d, int id) {
  return d.effective[static_cast<std::size_t>(id)];
}

// Params of branch `branch`'s step `step` (see step_params()).
NoParams branch_step_params(const FloatPatchDomain&, const PatchPlan&, int,
                            int) {
  return {};
}
const nn::QuantParams& branch_step_params(const QuantPatchDomain& d,
                                          const PatchPlan& plan, int branch,
                                          int step) {
  if (!d.branch_cfgs.empty()) {
    return d.branch_cfgs[static_cast<std::size_t>(branch)]
        .per_step[static_cast<std::size_t>(step)];
  }
  const int layer_id = plan.branches[static_cast<std::size_t>(branch)]
                           .steps[static_cast<std::size_t>(step)]
                           .layer_id;
  return d.effective[static_cast<std::size_t>(layer_id)];
}

void crop_into(const nn::Tensor& have, const Region& avail,
               const Region& want, const nn::TensorShape& full,
               nn::Tensor& out) {
  crop_from_region_into(have, avail, want, full, out);
}
// Out-of-bounds crop positions carry the producer's zero point — the
// quantized encoding of real 0, i.e. genuine zero padding.
void crop_into(const nn::QTensor& have, const Region& avail,
               const Region& want, const nn::TensorShape& full,
               nn::QTensor& out) {
  crop_from_region_q_into(have, avail, want, full, out);
}

// A branch's Input step: its tile of the frame.
void input_tile(nn::ops::KernelBackend&, nn::ops::ScratchArena&,
                const nn::Tensor& frame, const Region& want, nn::Tensor& out) {
  crop_into(frame, full_region(frame.shape()), want, frame.shape(), out);
}
// The quantized frame's tile is requantized straight into the branch's
// params (mixed mode stores it sub-byte, uniform mode at int8).
void input_tile(nn::ops::KernelBackend& backend, nn::ops::ScratchArena& crops,
                const nn::QTensor& frame, const Region& want,
                nn::QTensor& out) {
  nn::QTensor crop = borrow(crops, out.shape(), frame.params());
  crop_into(frame, full_region(frame.shape()), want, frame.shape(), crop);
  backend.requantize_into(crop, out);
}

// Conv / depthwise layer `id` (pad-free `l`) on a materialised crop.
// `branch` < 0 marks a tail band.
void mac_into(const FloatPatchDomain&, const nn::Graph& g,
              nn::ops::KernelBackend& backend, const nn::Tensor& in,
              const nn::Layer& l, int id, int, int, nn::Tensor& out) {
  if (l.kind == nn::OpKind::Conv2D) {
    backend.conv2d_f32_into(in, l, g.weights(id), g.bias(id), out);
  } else {
    backend.depthwise_conv2d_f32_into(in, l, g.weights(id), g.bias(id), out);
  }
}
// Mixed-mode branch steps take their per-branch rescaled biases; tail
// bands and uniform mode take the deployment's.
void mac_into(const QuantPatchDomain& d, const nn::Graph&,
              nn::ops::KernelBackend& backend, const nn::QTensor& in,
              const nn::Layer& l, int id, int branch, int step,
              nn::QTensor& out) {
  const auto i = static_cast<std::size_t>(id);
  const std::span<const std::int32_t> bias =
      branch >= 0 && !d.branch_cfgs.empty()
          ? std::span<const std::int32_t>(
                d.branch_bias[static_cast<std::size_t>(branch)]
                             [static_cast<std::size_t>(step)])
          : d.params->bias[i];
  const auto& w = d.params->weights[i];
  if (l.kind == nn::OpKind::Conv2D) {
    backend.conv2d_into(in, l, w.data, w.params, bias, out);
  } else {
    backend.depthwise_conv2d_into(in, l, w.data, w.params, bias, out);
  }
}

void pool_into(const FloatPatchDomain&, const nn::Tensor& have,
               const Region& avail, const nn::Layer& l, const Region& want,
               const nn::TensorShape& full, nn::Tensor& out) {
  pool_region_f32_into(have, avail, l, want, full, out);
}
void pool_into(const QuantPatchDomain& d, const nn::QTensor& have,
               const Region& avail, const nn::Layer& l, const Region& want,
               const nn::TensorShape& full, nn::QTensor& out) {
  const nn::ops::AvgPoolMultipliers* table = nullptr;
  if (l.kind == nn::OpKind::AvgPool) {
    const auto it = d.pool_tables.find(l.kernel_h * l.kernel_w);
    QMCU_ENSURE(it != d.pool_tables.end(),
                "AvgPool window missing from the precomputed tables");
    table = &it->second;
  }
  pool_region_q_into(have, avail, l, want, full, table, out);
}

void add_into(nn::ops::KernelBackend&, const nn::Tensor& a,
              const nn::Tensor& b, nn::Activation act, nn::Tensor& out) {
  nn::ops::add_f32_into(a, b, act, out);
}
void add_into(nn::ops::KernelBackend& backend, const nn::QTensor& a,
              const nn::QTensor& b, nn::Activation act, nn::QTensor& out) {
  backend.add_into(a, b, act, out);
}

void concat_into(nn::ops::KernelBackend&,
                 std::span<const nn::Tensor* const> inputs, nn::Tensor& out) {
  nn::ops::concat_f32_into(inputs, out);
}
void concat_into(nn::ops::KernelBackend& backend,
                 std::span<const nn::QTensor* const> inputs,
                 nn::QTensor& out) {
  backend.concat_into(inputs, out);
}

// Merges a branch's final tile into the assembled map; with `changed` set,
// compares before writing (streaming). Tiles are disjoint, so concurrent
// merges from several workers commute.
void merge_tile(const nn::Tensor& tile, const Region& r, nn::Tensor& assembled,
                bool* changed) {
  if (changed == nullptr) {
    merge_region_f32(tile, r, assembled);
  } else {
    *changed = merge_region_f32_changed(tile, r, assembled);
  }
}
// The int8 merge requantizes the tile into the assembled map's params
// (identity copy in uniform mode).
void merge_tile(const nn::QTensor& tile, const Region& r,
                nn::QTensor& assembled, bool* changed) {
  if (changed == nullptr) {
    merge_region_q(tile, r, assembled);
  } else {
    *changed = merge_region_q_changed(tile, r, assembled);
  }
}

void run_layer_into(const FloatPatchDomain&, const nn::Graph& g, int id,
                    std::span<const nn::Tensor> memo,
                    nn::ops::KernelBackend& backend, nn::Tensor& out) {
  nn::run_layer_f32_into(g, id, memo, backend, out);
}
void run_layer_into(const QuantPatchDomain& d, const nn::Graph& g, int id,
                    std::span<const nn::QTensor> memo,
                    nn::ops::KernelBackend& backend, nn::QTensor& out) {
  nn::run_layer_q_into(g, id, memo, *d.params, backend, out);
}

// Readies a new worker lane's backend. Float has nothing to prepack: the
// float conv path packs its k-major panel into arena scratch per call (no
// f32 panel cache exists), so a fresh context is ready immediately.
void prepare_lane(const FloatPatchDomain&, const nn::Graph&, const PatchPlan&,
                  nn::ops::KernelBackend&) {}
void prepare_lane(const QuantPatchDomain& d, const nn::Graph& g,
                  const PatchPlan& plan, nn::ops::KernelBackend& backend) {
  // Artifact path: adopt the precomputed panels first, so the prepack
  // pass below is a no-op for everything the artifact baked.
  if (d.bundle != nullptr) d.bundle->apply(backend);
  // Pre-pack the conv panels any task on this lane may need — stage
  // convs for branch tasks, tail convs for row bands and the join — so a
  // lane's first run pays no packing cost (construction-time work,
  // exempt from the affinity guard). Gated on the quantized params, not
  // the graph: the artifact path loads a topology-only graph.
  const auto prepack = [&](int layer_id) {
    const nn::Layer& l = g.layer(layer_id);
    const auto& w = d.params->weights[static_cast<std::size_t>(layer_id)];
    if (w.data.empty()) return;
    const int in_bits = d.effective[static_cast<std::size_t>(l.inputs[0])].bits;
    if (l.kind == nn::OpKind::Conv2D) {
      const int n = l.out_channels;
      const int k = static_cast<int>(w.data.size()) / n;
      backend.prepack(w.data, n, k);
      // Sub-byte stages may take the LUT path: bake the recode up front
      // so a lane's first patch pays no table construction. Only tables
      // the current force mode can actually run are baked — 4-bit
      // tables cost 32*n*k bytes and only run under QMCU_FORCE_LUT.
      if (nn::ops::lut::lut_planned(in_bits)) {
        backend.prepack_lut(w.data, n, k, in_bits);
      }
    } else if (l.kind == nn::OpKind::FullyConnected) {
      const int k = static_cast<int>(g.shape(l.inputs[0]).elements());
      // fc shares the conv panel GEMM since the microkernel rewrite.
      backend.prepack(w.data, l.out_channels, k);
      if (nn::ops::lut::lut_planned(in_bits)) {
        backend.prepack_lut(w.data, l.out_channels, k, in_bits);
      }
    }
  };
  for (const BranchStep& step : plan.branches.front().steps) {
    prepack(step.layer_id);
  }
  for (int id = plan.spec.split_layer + 1; id < g.size(); ++id) prepack(id);
}

// Feeds the opt-in stats hook (int8 only) the cut layer and every tail
// layer once a run completes.
void report_stats(const FloatPatchDomain&, int, std::span<const nn::Tensor>) {}
void report_stats(const QuantPatchDomain& d, int split,
                  std::span<const nn::QTensor> memo) {
  if (!d.stats_hook) return;
  for (std::size_t id = static_cast<std::size_t>(split); id < memo.size();
       ++id) {
    d.stats_hook(static_cast<int>(id), memo[id]);
  }
}

constexpr bool rows_overlap(const Interval& a, const Interval& b) {
  return a.begin < b.end && b.begin < a.end;
}

// The streaming layout widens every shared slot's lifetime to the whole
// timeline: retained bytes (assembled tiles, tail maps) must survive from
// frame to frame, so no shared slot may ever be overlaid on another.
std::vector<ArenaRequest> widen_shared(std::vector<ArenaRequest> requests) {
  int last = 0;
  for (const ArenaRequest& r : requests) last = std::max(last, r.last_step);
  for (ArenaRequest& r : requests) {
    r.first_step = 0;
    r.last_step = last;
  }
  return requests;
}

// How many branch tasks each grid row contributes for `workers` lanes:
// roughly two tasks per lane across the whole grid keeps the scheduler fed
// without shredding the cost-weighted coalescing.
int chunks_per_grid_row(const PatchPlan& plan, int workers) {
  return std::max(1, (2 * workers + plan.spec.grid_rows - 1) /
                         plan.spec.grid_rows);
}

// Builds the pipelined dataflow graph: cost-weighted branch-chunk tasks per
// grid row -> tail row-band tasks wired through the precomputed readiness
// structure -> one join task for the non-banded rest of the tail. The body
// callbacks capture only the model (`this`), so the returned graph is
// cacheable per worker count — per-run state travels through the model's
// run_* members instead of the closures. Signatures: branch(b, lane),
// band(pi, j, lane), rest(lane).
template <class BranchBody, class BandBody, class RestBody>
nn::TaskGraph build_pipeline_graph(const PatchPlan& plan,
                                   std::span<const PipelinedTailLayer> bands,
                                   std::span<const std::int64_t> costs,
                                   int workers, BranchBody branch_body,
                                   BandBody band_body, RestBody rest_body) {
  nn::TaskGraph graph;
  const int grid_rows = plan.spec.grid_rows;
  const int grid_cols = plan.spec.grid_cols;
  const int per_row = chunks_per_grid_row(plan, workers);
  std::vector<std::vector<int>> row_tasks(
      static_cast<std::size_t>(grid_rows));
  for (int r = 0; r < grid_rows; ++r) {
    const auto ranges = weighted_chunks(
        costs.subspan(static_cast<std::size_t>(r * grid_cols),
                      static_cast<std::size_t>(grid_cols)),
        per_row);
    for (const nn::IndexRange& range : ranges) {
      const std::int64_t b0 = r * grid_cols + range.begin;
      const std::int64_t b1 = r * grid_cols + range.end;
      row_tasks[static_cast<std::size_t>(r)].push_back(
          graph.add([branch_body, b0, b1](int lane) {
            for (std::int64_t b = b0; b < b1; ++b) branch_body(b, lane);
          }));
    }
  }
  std::vector<std::vector<int>> band_tasks(bands.size());
  for (std::size_t pi = 0; pi < bands.size(); ++pi) {
    const PipelinedTailLayer& pl = bands[pi];
    band_tasks[pi].resize(pl.bands.size());
    for (std::size_t j = 0; j < pl.bands.size(); ++j) {
      const int task = graph.add(
          [band_body, pi, j](int lane) { band_body(pi, j, lane); });
      band_tasks[pi][j] = task;
      for (const int r : pl.grid_row_deps[j]) {
        for (const int t : row_tasks[static_cast<std::size_t>(r)]) {
          graph.depend(task, t);
        }
      }
      for (const auto& [qi, k] : pl.band_deps[j]) {
        graph.depend(task, band_tasks[static_cast<std::size_t>(qi)]
                               [static_cast<std::size_t>(k)]);
      }
    }
  }
  // The join: everything the row bands could not cover (global pools, the
  // classifier head) runs once, after every branch and band retired.
  const int join_preds = graph.size();
  const int join = graph.add([rest_body](int lane) { rest_body(lane); });
  for (int t = 0; t < join_preds; ++t) graph.depend(join, t);
  return graph;
}

// Clears one frame's change-propagation flags and counters. On the priming
// frame (`force_all_dirty`) every grid row starts dirty instead: the
// arena's initial bytes are not a valid previous frame, so a first-frame
// merge that happens to match them (all-zero quant tiles over a fresh
// zeroed buffer) must not suppress the bands downstream of it.
void reset_stream_frame(StreamState& state, int grid_rows, int total_bands,
                        bool force_all_dirty) {
  const char row_init = force_all_dirty ? 1 : 0;
  for (int r = 0; r < grid_rows; ++r) {
    state.row_changed[static_cast<std::size_t>(r)].store(
        row_init, std::memory_order_relaxed);
  }
  for (int i = 0; i < total_bands; ++i) {
    state.band_changed[static_cast<std::size_t>(i)].store(
        0, std::memory_order_relaxed);
  }
  state.any_changed.store(row_init, std::memory_order_relaxed);
  state.branches_run.store(0, std::memory_order_relaxed);
  state.bands_run.store(0, std::memory_order_relaxed);
}

int total_band_count(std::span<const PipelinedTailLayer> pipeline) {
  int total = 0;
  for (const PipelinedTailLayer& pl : pipeline) {
    total += static_cast<int>(pl.bands.size());
  }
  return total;
}

}  // namespace

std::vector<PipelinedTailLayer> build_pipelined_tail(
    const nn::Graph& g, const PatchPlan& plan, int bands_per_layer) {
  QMCU_REQUIRE(bands_per_layer >= 1, "need at least one band per layer");
  const int split = plan.spec.split_layer;
  const int grid_rows = plan.spec.grid_rows;
  const int grid_cols = plan.spec.grid_cols;

  // The assembled-map row interval each grid row's branches merge; every
  // branch in a grid row shares its y tile (row-major branch order).
  std::vector<Interval> merged_rows(static_cast<std::size_t>(grid_rows));
  for (int r = 0; r < grid_rows; ++r) {
    merged_rows[static_cast<std::size_t>(r)] =
        plan.branches[static_cast<std::size_t>(r * grid_cols)]
            .steps.back()
            .out_region.y;
  }

  std::vector<PipelinedTailLayer> prefix;
  std::vector<int> prefix_index(static_cast<std::size_t>(g.size()), -1);
  for (int id = split + 1; id < g.size(); ++id) {
    const nn::Layer& l = g.layer(id);
    const bool bandable = l.kind == nn::OpKind::Conv2D ||
                          l.kind == nn::OpKind::DepthwiseConv2D ||
                          l.kind == nn::OpKind::MaxPool ||
                          l.kind == nn::OpKind::AvgPool ||
                          l.kind == nn::OpKind::Add ||
                          l.kind == nn::OpKind::Concat;
    if (!bandable) break;
    bool inputs_banded = true;
    for (const int in : l.inputs) {
      if (in != split && prefix_index[static_cast<std::size_t>(in)] < 0) {
        inputs_banded = false;
        break;
      }
    }
    if (!inputs_banded) break;

    PipelinedTailLayer pl;
    pl.layer_id = id;
    const nn::TensorShape& os = g.shape(id);
    // A band of fewer rows than this costs more in scheduling than its
    // kernel work returns, so small maps get fewer bands (down to one —
    // still a task, so the layer overlaps whatever it does not depend on).
    constexpr int kMinRowsPerBand = 4;
    const int bands = std::clamp(
        std::min(bands_per_layer, os.h / kMinRowsPerBand), 1, os.h);
    pl.bands.reserve(static_cast<std::size_t>(bands));
    for (int j = 0; j < bands; ++j) {
      pl.bands.push_back({j * os.h / bands, (j + 1) * os.h / bands});
    }
    pl.grid_row_deps.resize(static_cast<std::size_t>(bands));
    pl.band_deps.resize(static_cast<std::size_t>(bands));
    for (int j = 0; j < bands; ++j) {
      const Region out_region{pl.bands[static_cast<std::size_t>(j)],
                              {0, os.w}};
      for (const int in : l.inputs) {
        const nn::TensorShape& is = g.shape(in);
        const Interval need =
            clamp(required_input_region(l, is, out_region).y, 0, is.h);
        if (need.empty()) continue;
        if (in == split) {
          for (int r = 0; r < grid_rows; ++r) {
            if (rows_overlap(merged_rows[static_cast<std::size_t>(r)],
                             need)) {
              pl.grid_row_deps[static_cast<std::size_t>(j)].push_back(r);
            }
          }
        } else {
          const int pi = prefix_index[static_cast<std::size_t>(in)];
          const PipelinedTailLayer& producer =
              prefix[static_cast<std::size_t>(pi)];
          for (int k = 0; k < static_cast<int>(producer.bands.size()); ++k) {
            if (rows_overlap(producer.bands[static_cast<std::size_t>(k)],
                             need)) {
              pl.band_deps[static_cast<std::size_t>(j)].push_back({pi, k});
            }
          }
        }
      }
    }
    prefix_index[static_cast<std::size_t>(id)] =
        static_cast<int>(prefix.size());
    prefix.push_back(std::move(pl));
  }
  return prefix;
}

std::vector<std::vector<std::vector<std::int32_t>>> build_branch_bias(
    const nn::Graph& g, const PatchPlan& plan,
    std::span<const BranchQuantConfig> branch_cfgs,
    const nn::QuantizedParameters& params) {
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias;
  branch_bias.resize(branch_cfgs.size());
  for (std::size_t b = 0; b < branch_cfgs.size(); ++b) {
    const PatchBranch& branch = plan.branches[b];
    branch_bias[b].resize(branch.steps.size());
    for (std::size_t s = 0; s < branch.steps.size(); ++s) {
      const int id = branch.steps[s].layer_id;
      const nn::Layer& l = g.layer(id);
      if (!nn::is_mac_op(l.kind) || g.bias(id).empty()) continue;
      const int p = branch.step_of(l.inputs[0]);
      QMCU_ENSURE(p >= 0, "MAC step without in-branch producer");
      branch_bias[b][s] = nn::ops::quantize_bias(
          g.bias(id),
          branch_cfgs[b].per_step[static_cast<std::size_t>(p)].scale,
          params.weights[static_cast<std::size_t>(id)].params.scale);
    }
  }
  return branch_bias;
}

// --- QuantPatchDomain ------------------------------------------------------

QuantPatchDomain::QuantPatchDomain(
    const nn::Graph& g, const PatchPlan& plan, nn::ActivationQuantConfig cfg_in,
    std::vector<BranchQuantConfig> branch_cfgs_in,
    std::shared_ptr<const nn::QuantizedParameters> params_in,
    PrecompiledPatchParts& parts)
    : cfg(std::move(cfg_in)),
      effective(nn::effective_output_params(g, cfg)),
      branch_cfgs(std::move(branch_cfgs_in)),
      params(params_in ? std::move(params_in)
                       : nn::QuantizedParameters::build_shared(g, cfg)),
      bundle(std::move(parts.kernels)) {
  if (!branch_cfgs.empty()) {
    QMCU_REQUIRE(branch_cfgs.size() == plan.branches.size(),
                 "branch configs must cover every branch");
    for (std::size_t b = 0; b < branch_cfgs.size(); ++b) {
      QMCU_REQUIRE(branch_cfgs[b].per_step.size() ==
                       plan.branches[b].steps.size(),
                   "branch config must cover every step");
    }
    if (parts.branch_bias.empty()) {
      branch_bias = build_branch_bias(g, plan, branch_cfgs, *params);
    } else {
      // Artifact-supplied biases (the graph may be topology-only, so the
      // float-bias rescale that build_branch_bias runs is not available).
      QMCU_REQUIRE(parts.branch_bias.size() == plan.branches.size(),
                   "precomputed branch bias must cover every branch");
      branch_bias = std::move(parts.branch_bias);
    }
  }
  // AvgPool reciprocal tables for every window size the graph uses —
  // built now so the run path (possibly many workers at once) only reads.
  for (int id = 0; id < g.size(); ++id) {
    const nn::Layer& l = g.layer(id);
    if (l.kind != nn::OpKind::AvgPool) continue;
    const int count = l.kernel_h * l.kernel_w;
    pool_tables.emplace(count, nn::ops::AvgPoolMultipliers(count));
  }
}

// --- BasicCompiledPatchModel: construction and planning --------------------

template <class D>
BasicCompiledPatchModel<D>::BasicCompiledPatchModel(const nn::Graph& g,
                                                    PatchPlan plan,
                                                    nn::ops::KernelTier tier)
  requires(!D::kQuantized)
    : graph_(&g), plan_(std::move(plan)), backend_(tier) {
  plan_layout({});
}

template <class D>
BasicCompiledPatchModel<D>::BasicCompiledPatchModel(
    const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
    std::vector<BranchQuantConfig> branch_cfgs, nn::ops::KernelTier tier,
    std::shared_ptr<const nn::QuantizedParameters> params)
  requires(D::kQuantized)
    : BasicCompiledPatchModel(g, std::move(plan), std::move(cfg),
                              std::move(branch_cfgs), std::move(params),
                              PrecompiledPatchParts{}, tier) {}

template <class D>
BasicCompiledPatchModel<D>::BasicCompiledPatchModel(
    const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
    std::vector<BranchQuantConfig> branch_cfgs,
    std::shared_ptr<const nn::QuantizedParameters> params,
    PrecompiledPatchParts parts, nn::ops::KernelTier tier)
  requires(D::kQuantized)
    : graph_(&g),
      plan_(std::move(plan)),
      dom_(g, plan_, std::move(cfg), std::move(branch_cfgs),
           std::move(params), parts),
      backend_(tier) {
  if (dom_.bundle != nullptr) dom_.bundle->apply(backend_);
  plan_layout(std::move(parts.pipeline));
}

template <class D>
void BasicCompiledPatchModel<D>::plan_layout(
    std::vector<PipelinedTailLayer> pipeline) {
  QMCU_REQUIRE(!plan_.branches.empty(), "plan has no branches");
  const nn::Graph& g = *graph_;
  constexpr auto elem_bytes = static_cast<std::int64_t>(sizeof(Elem));
  PatchTimeline t = build_timeline(g, plan_, elem_bytes);
  num_steps_ = t.num_steps;
  assembled_slot_ = t.assembled_index;
  if constexpr (D::kQuantized) {
    // Quantized full input, cropped by every branch: live across the whole
    // branch phase.
    input_slot_ = static_cast<int>(t.requests.size());
    t.requests.push_back({g.shape(g.inputs().front()).elements() * elem_bytes,
                          0, std::max(num_steps_ - 1, 0)});
  }
  aplan_ = nn::ArenaPlanner().plan(t.requests);
  // Parallel layout inputs: branch-step slots become the per-worker slice,
  // everything after them the shared region.
  slice_requests_.assign(t.requests.begin(),
                         t.requests.begin() + num_steps_);
  shared_requests_.assign(t.requests.begin() + num_steps_, t.requests.end());
  // Pipelined dataflow structure: row-banded tail prefix (band count tied
  // to the patch grid's row granularity), branch pricing for cost-weighted
  // task chunking, and the widening horizon for plan_pipelined.
  pipeline_ =
      pipeline.empty()
          ? build_pipelined_tail(g, plan_, std::max(2, plan_.spec.grid_rows))
          : std::move(pipeline);
  branch_costs_ = branch_costs(plan_);
  pipeline_horizon_ = num_steps_ + static_cast<int>(pipeline_.size()) - 1;
}

template <class D>
const nn::ParallelArenaPlan& BasicCompiledPatchModel<D>::parallel_plan(
    int num_workers) const {
  auto it = pplans_.find(num_workers);
  if (it == pplans_.end()) {
    it = pplans_
             .emplace(num_workers,
                      nn::ArenaPlanner().plan_parallel(
                          slice_requests_, shared_requests_, num_workers))
             .first;
  }
  return it->second;
}

template <class D>
const nn::ParallelArenaPlan& BasicCompiledPatchModel<D>::pipelined_plan(
    int num_workers) const {
  auto it = pipelined_pplans_.find(num_workers);
  if (it == pipelined_pplans_.end()) {
    it = pipelined_pplans_
             .emplace(num_workers, nn::ArenaPlanner().plan_pipelined(
                                       slice_requests_, shared_requests_,
                                       num_workers, pipeline_horizon_))
             .first;
  }
  return it->second;
}

template <class D>
const nn::ParallelArenaPlan& BasicCompiledPatchModel<D>::streaming_plan(
    int num_workers) const {
  auto it = streaming_pplans_.find(num_workers);
  if (it == streaming_pplans_.end()) {
    it = streaming_pplans_
             .emplace(num_workers,
                      nn::ArenaPlanner().plan_parallel(
                          slice_requests_, widen_shared(shared_requests_),
                          num_workers))
             .first;
  }
  return it->second;
}

template <class D>
const nn::QuantParams& BasicCompiledPatchModel<D>::step_params(int branch,
                                                               int step) const
  requires(D::kQuantized)
{
  return branch_step_params(dom_, plan_, branch, step);
}

// --- arenas, lanes and bound views -----------------------------------------

template <class D>
std::span<std::uint8_t> BasicCompiledPatchModel<D>::bind_run_arena(
    std::int64_t need, nn::ArenaSlab::Lease& lease) const {
  if (arena_source_ != nullptr) {
    lease = arena_source_->acquire(need);
    return lease.bytes();
  }
  if (static_cast<std::int64_t>(arena_.size()) < need) {
    arena_.resize(static_cast<std::size_t>(need));
  }
  return {arena_.data(), arena_.size()};
}

template <class D>
typename BasicCompiledPatchModel<D>::WorkerCtx&
BasicCompiledPatchModel<D>::worker_ctx(int lane) const {
  while (static_cast<int>(workers_.size()) <= lane) {
    auto ctx = std::make_unique<WorkerCtx>(backend_.tier());
    prepare_lane(dom_, *graph_, plan_, ctx->backend);
    workers_.push_back(std::move(ctx));
  }
  return *workers_[static_cast<std::size_t>(lane)];
}

template <class D>
void BasicCompiledPatchModel<D>::prepare_lanes(int w) const {
  for (int lane = 0; lane < w; ++lane) {
    WorkerCtx& ctx = worker_ctx(lane);
    ctx.backend.rebind_thread();
    ctx.crops.rebind_thread();
    ctx.step_views.resize(static_cast<std::size_t>(num_steps_));
    ctx.measured = 0;
  }
}

template <class D>
void BasicCompiledPatchModel<D>::record_high_water(
    const nn::ParallelArenaPlan& pplan, std::int64_t shared_measured) const {
  measured_ = pplan.shared_offset() + shared_measured;
  for (int lane = 0; lane < pplan.num_workers; ++lane) {
    measured_ = std::max(
        measured_, pplan.slice_offset(lane) +
                       workers_[static_cast<std::size_t>(lane)]->measured);
  }
}

template <class D>
std::int64_t BasicCompiledPatchModel<D>::scratch_bytes() const {
  std::int64_t total = static_cast<std::int64_t>(
      crops_.footprint_bytes() + backend_.arena().footprint_bytes());
  for (const auto& w : workers_) {
    total += static_cast<std::int64_t>(w->crops.footprint_bytes() +
                                       w->backend.arena().footprint_bytes());
  }
  return total;
}

template <class D>
const typename D::Tensor& BasicCompiledPatchModel<D>::stage_input(
    const nn::Tensor& input, std::uint8_t* base,
    std::span<const nn::ArenaSlot> slots, int input_slot,
    std::int64_t& measured) const {
  if constexpr (D::kQuantized) {
    const int id = graph_->inputs().front();
    run_staged_ = bind_slot<D>(
        base, slots[static_cast<std::size_t>(input_slot)], graph_->shape(id),
        dom_.cfg.params[static_cast<std::size_t>(id)], measured);
    nn::quantize_into(input, run_staged_);
    return run_staged_;
  } else {
    return input;
  }
}

template <class D>
void BasicCompiledPatchModel<D>::bind_tail(
    std::uint8_t* base, std::span<const nn::ArenaSlot> slots,
    int first_tail_slot, int assembled_slot, std::int64_t& measured) const {
  const nn::Graph& g = *graph_;
  const int split = plan_.spec.split_layer;
  tail_memo_.resize(static_cast<std::size_t>(g.size()));
  tail_memo_[static_cast<std::size_t>(split)] = bind_slot<D>(
      base, slots[static_cast<std::size_t>(assembled_slot)], g.shape(split),
      layer_params(dom_, split), measured);
  for (int id = split + 1; id < g.size(); ++id) {
    tail_memo_[static_cast<std::size_t>(id)] = bind_slot<D>(
        base,
        slots[static_cast<std::size_t>(first_tail_slot + (id - split - 1))],
        g.shape(id), layer_params(dom_, id), measured);
  }
}

template <class D>
std::int64_t BasicCompiledPatchModel<D>::bind_shared(
    const nn::Tensor& input, std::span<std::uint8_t> arena,
    const nn::ParallelArenaPlan& pplan) const {
  // Shared-region slots are indexed by timeline request index less the
  // slice's num_steps_ branch-step slots.
  std::int64_t measured = 0;
  run_data_ = arena.data();
  run_pplan_ = &pplan;
  std::uint8_t* const shared_base = run_data_ + pplan.shared_offset();
  run_input_ = &stage_input(input, shared_base, pplan.shared.slots,
                            input_slot_ - num_steps_, measured);
  bind_tail(shared_base, pplan.shared.slots, 0, assembled_slot_ - num_steps_,
            measured);
  return measured;
}

// --- kernels ---------------------------------------------------------------

template <class D>
void BasicCompiledPatchModel<D>::exec_branch(
    int branch_index, const Tensor& input, std::uint8_t* base,
    std::span<const nn::ArenaSlot> slots, nn::ops::KernelBackend& backend,
    nn::ops::ScratchArena& crops, std::span<Tensor> step_views,
    std::int64_t& measured, Tensor& assembled, bool* merge_changed) const {
  const nn::Graph& g = *graph_;
  const PatchBranch& branch =
      plan_.branches[static_cast<std::size_t>(branch_index)];
  const auto producer_step = [&](int input_id, int s) {
    const int p = branch.step_of(input_id);
    QMCU_ENSURE(p >= 0 && p < s, "producer step missing from branch");
    return static_cast<std::size_t>(p);
  };
  for (int s = 0; s < num_steps_; ++s) {
    const BranchStep& step = branch.steps[static_cast<std::size_t>(s)];
    const nn::Layer& layer = g.layer(step.layer_id);
    const bool pool = layer.kind == nn::OpKind::MaxPool ||
                      layer.kind == nn::OpKind::AvgPool;
    // Pools never requantize: their slot carries the producer's actual
    // params, exactly as the legacy executor's region tensors do.
    auto out_p = branch_step_params(dom_, plan_, branch_index, s);
    if (pool) out_p = params_of(step_views[producer_step(layer.inputs[0], s)]);
    Tensor out = bind_slot<D>(base, slots[static_cast<std::size_t>(s)],
                              region_shape(step, g.shape(step.layer_id).c),
                              out_p, measured);
    crops.reset();

    const auto producer_crop = [&](int input_id, const Region& want) {
      const std::size_t p = producer_step(input_id, s);
      const Tensor& have = step_views[p];
      Tensor crop = borrow(
          crops,
          nn::TensorShape{want.y.size(), want.x.size(), g.shape(input_id).c},
          params_of(have));
      crop_into(have, branch.steps[p].out_region, want, g.shape(input_id),
                crop);
      return crop;
    };

    switch (layer.kind) {
      case nn::OpKind::Input:
        input_tile(backend, crops, input, step.out_region, out);
        break;
      case nn::OpKind::Conv2D:
      case nn::OpKind::DepthwiseConv2D: {
        // Zero padding is exactly what the unclamped crop materialises,
        // so run the kernel pad-free on the region tensor.
        const Tensor padded = producer_crop(layer.inputs[0], step.in_region);
        nn::Layer local = layer;
        local.pad_h = local.pad_w = 0;
        mac_into(dom_, g, backend, padded, local, step.layer_id, branch_index,
                 s, out);
        break;
      }
      case nn::OpKind::MaxPool:
      case nn::OpKind::AvgPool: {
        const std::size_t p = producer_step(layer.inputs[0], s);
        pool_into(dom_, step_views[p], branch.steps[p].out_region, layer,
                  step.out_region, g.shape(layer.inputs[0]), out);
        break;
      }
      case nn::OpKind::Add: {
        const Tensor a = producer_crop(layer.inputs[0], step.out_region);
        const Tensor b = producer_crop(layer.inputs[1], step.out_region);
        add_into(backend, a, b, layer.act, out);
        break;
      }
      case nn::OpKind::Concat: {
        std::vector<Tensor> cropped;
        cropped.reserve(layer.inputs.size());
        for (int in : layer.inputs) {
          cropped.push_back(producer_crop(in, step.out_region));
        }
        std::vector<const Tensor*> ptrs;
        ptrs.reserve(cropped.size());
        for (const Tensor& t : cropped) ptrs.push_back(&t);
        concat_into(backend, ptrs, out);
        break;
      }
      default:
        QMCU_REQUIRE(false, "op kind not supported inside a patch stage: " +
                                std::string(nn::to_string(layer.kind)));
    }
    step_views[static_cast<std::size_t>(s)] = std::move(out);
  }
  const BranchStep& last = branch.steps.back();
  QMCU_ENSURE(last.layer_id == plan_.spec.split_layer,
              "branch must end at the cut layer");
  merge_tile(step_views[static_cast<std::size_t>(num_steps_ - 1)],
             last.out_region, assembled, merge_changed);
}

template <class D>
void BasicCompiledPatchModel<D>::run_layers(
    int first, int last, nn::ops::KernelBackend& backend) const {
  for (int id = first; id < last; ++id) {
    run_layer_into(dom_, *graph_, id, tail_memo_, backend,
                   tail_memo_[static_cast<std::size_t>(id)]);
  }
}

template <class D>
void BasicCompiledPatchModel<D>::exec_tail_band(
    int layer_id, const Interval& rows, nn::ops::KernelBackend& backend,
    nn::ops::ScratchArena& crops) const {
  const nn::Graph& g = *graph_;
  const nn::Layer& l = g.layer(layer_id);
  const nn::TensorShape& os = g.shape(layer_id);
  const Region out_region{rows, {0, os.w}};
  const auto full = [&](int id) -> Tensor& {
    return tail_memo_[static_cast<std::size_t>(id)];
  };
  Tensor out = row_view(full(layer_id), rows);
  crops.reset();
  switch (l.kind) {
    case nn::OpKind::Conv2D:
    case nn::OpKind::DepthwiseConv2D: {
      // Same construction as the branch steps: materialise the (unclamped)
      // input region with zero fill and run the kernel pad-free —
      // bit-identical to the padded full-map call, proven by the
      // patch/layer parity tests.
      const nn::TensorShape& is = g.shape(l.inputs[0]);
      const Tensor& in_full = full(l.inputs[0]);
      const Region want = required_input_region(l, is, out_region);
      Tensor crop =
          borrow(crops, nn::TensorShape{want.y.size(), want.x.size(), is.c},
                 params_of(in_full));
      crop_into(in_full, full_region(is), want, is, crop);
      nn::Layer local = l;
      local.pad_h = local.pad_w = 0;
      mac_into(dom_, g, backend, crop, local, layer_id, -1, 0, out);
      break;
    }
    case nn::OpKind::MaxPool:
    case nn::OpKind::AvgPool: {
      const nn::TensorShape& is = g.shape(l.inputs[0]);
      pool_into(dom_, full(l.inputs[0]), full_region(is), l, out_region, is,
                out);
      break;
    }
    case nn::OpKind::Add: {
      // Element-wise: the band reads exactly its own rows of both inputs —
      // pure views, no copy.
      const Tensor a = row_view(full(l.inputs[0]), rows);
      const Tensor b = row_view(full(l.inputs[1]), rows);
      add_into(backend, a, b, l.act, out);
      break;
    }
    case nn::OpKind::Concat: {
      std::vector<Tensor> views;
      views.reserve(l.inputs.size());
      for (const int in : l.inputs) views.push_back(row_view(full(in), rows));
      std::vector<const Tensor*> ptrs;
      ptrs.reserve(views.size());
      for (const Tensor& t : views) ptrs.push_back(&t);
      concat_into(backend, ptrs, out);
      break;
    }
    default:
      QMCU_ENSURE(false, "op kind is not row-bandable: " +
                             std::string(nn::to_string(l.kind)));
  }
}

// --- runs ------------------------------------------------------------------

template <class D>
typename D::Tensor BasicCompiledPatchModel<D>::run(
    const nn::Tensor& input) const {
  const nn::Graph& g = *graph_;
  const int split = plan_.spec.split_layer;
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");
  nn::ArenaSlab::Lease lease;
  const std::span<std::uint8_t> arena =
      bind_run_arena(aplan_.peak_bytes, lease);
  nn::check_arena(arena, aplan_.peak_bytes, alignof(Elem));
  // Compiled runs are per-run thread-affine: hand this run's contexts to
  // the calling thread.
  backend_.rebind_thread();
  crops_.rebind_thread();
  measured_ = 0;

  const Tensor& frame =
      stage_input(input, arena.data(), aplan_.slots, input_slot_, measured_);
  bind_tail(arena.data(), aplan_.slots, num_steps_, assembled_slot_,
            measured_);
  step_views_.resize(static_cast<std::size_t>(num_steps_));
  for (int bi = 0; bi < static_cast<int>(plan_.branches.size()); ++bi) {
    exec_branch(bi, frame, arena.data(),
                std::span<const nn::ArenaSlot>(aplan_.slots)
                    .subspan(0, static_cast<std::size_t>(num_steps_)),
                backend_, crops_, step_views_, measured_,
                tail_memo_[static_cast<std::size_t>(split)]);
  }
  run_layers(split + 1, g.size(), backend_);
  report_stats(dom_, split, tail_memo_);
  return tail_memo_[static_cast<std::size_t>(g.output())];
}

template <class D>
nn::TaskGraph& BasicCompiledPatchModel<D>::pipeline_graph(
    int num_workers) const {
  auto it = pipeline_graphs_.find(num_workers);
  if (it != pipeline_graphs_.end()) return it->second;
  const int first_rest =
      plan_.spec.split_layer + 1 + static_cast<int>(pipeline_.size());
  return pipeline_graphs_
      .emplace(
          num_workers,
          build_pipeline_graph(
              plan_, pipeline_, branch_costs_, num_workers,
              [this](std::int64_t b, int lane) {
                // Streaming frames route through the same cached graph:
                // clean branches return immediately, dirty ones report
                // whether their merge changed any retained byte.
                StreamState* stream = run_stream_;
                if (stream != nullptr &&
                    !stream->branch_dirty[static_cast<std::size_t>(b)]) {
                  return;
                }
                WorkerCtx& ctx = *workers_[static_cast<std::size_t>(lane)];
                bool changed = false;
                exec_branch(
                    static_cast<int>(b), *run_input_,
                    run_data_ + run_pplan_->slice_offset(lane),
                    run_pplan_->slice.slots, ctx.backend, ctx.crops,
                    ctx.step_views, ctx.measured,
                    tail_memo_[static_cast<std::size_t>(
                        plan_.spec.split_layer)],
                    stream != nullptr ? &changed : nullptr);
                if (stream != nullptr) stream_mark_branch(*stream, b, changed);
                if (branch_hook_) branch_hook_(static_cast<int>(b));
              },
              [this](std::size_t pi, std::size_t j, int lane) {
                StreamState* stream = run_stream_;
                if (stream != nullptr && !stream_band_needed(*stream, pi, j)) {
                  return;
                }
                WorkerCtx& ctx = *workers_[static_cast<std::size_t>(lane)];
                exec_tail_band(pipeline_[pi].layer_id, pipeline_[pi].bands[j],
                               ctx.backend, ctx.crops);
                if (stream != nullptr) stream_mark_band(*stream, pi, j);
              },
              [this, first_rest](int lane) {
                if (run_stream_ != nullptr &&
                    !run_stream_->frame_changed_output()) {
                  return;
                }
                run_layers(first_rest, graph_->size(),
                           workers_[static_cast<std::size_t>(lane)]->backend);
              }))
      .first->second;
}

template <class D>
typename D::Tensor BasicCompiledPatchModel<D>::run(
    const nn::Tensor& input, nn::WorkerPool* pool) const {
  if (pool == nullptr || pool->num_workers() == 1) return run(input);
  const nn::Graph& g = *graph_;
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");
  const int w = pool->num_workers();
  const nn::ParallelArenaPlan& pplan = pipelined_plan(w);
  nn::ArenaSlab::Lease lease;
  const std::span<std::uint8_t> arena =
      bind_run_arena(pplan.total_bytes(), lease);
  nn::check_arena(arena, pplan.total_bytes(), alignof(Elem));
  const std::int64_t shared_measured = bind_shared(input, arena, pplan);
  prepare_lanes(w);
  pool->run_graph(pipeline_graph(w));
  record_high_water(pplan, shared_measured);
  report_stats(dom_, plan_.spec.split_layer, tail_memo_);
  return tail_memo_[static_cast<std::size_t>(g.output())];
}

template <class D>
typename D::Tensor BasicCompiledPatchModel<D>::run_barrier(
    const nn::Tensor& input, nn::WorkerPool* pool) const {
  if (pool == nullptr || pool->num_workers() == 1) return run(input);
  const nn::Graph& g = *graph_;
  const int split = plan_.spec.split_layer;
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");
  const int w = pool->num_workers();
  const nn::ParallelArenaPlan& pplan = parallel_plan(w);
  nn::ArenaSlab::Lease lease;
  const std::span<std::uint8_t> arena =
      bind_run_arena(pplan.total_bytes(), lease);
  nn::check_arena(arena, pplan.total_bytes(), alignof(Elem));
  backend_.rebind_thread();  // tail runs on the calling thread
  crops_.rebind_thread();
  const std::int64_t shared_measured = bind_shared(input, arena, pplan);
  prepare_lanes(w);

  const auto chunks = weighted_chunks(
      branch_costs_, plan_.spec.grid_rows * chunks_per_grid_row(plan_, w));
  pool->parallel_ranges(
      chunks, [&](std::int64_t b0, std::int64_t b1, int lane) {
        WorkerCtx& ctx = *workers_[static_cast<std::size_t>(lane)];
        std::uint8_t* base = arena.data() + pplan.slice_offset(lane);
        for (std::int64_t b = b0; b < b1; ++b) {
          exec_branch(static_cast<int>(b), *run_input_, base,
                      pplan.slice.slots, ctx.backend, ctx.crops,
                      ctx.step_views, ctx.measured,
                      tail_memo_[static_cast<std::size_t>(split)]);
          if (branch_hook_) branch_hook_(static_cast<int>(b));
        }
      });

  record_high_water(pplan, shared_measured);
  run_layers(split + 1, g.size(), backend_);
  report_stats(dom_, split, tail_memo_);
  return tail_memo_[static_cast<std::size_t>(g.output())];
}

// --- streaming -------------------------------------------------------------

template <class D>
void BasicCompiledPatchModel<D>::prime_stream_state(StreamState& state,
                                                    int workers) const {
  QMCU_REQUIRE(workers >= 1, "streaming needs at least one lane");
  if (state.workers != 0) {
    QMCU_REQUIRE(state.workers == workers,
                 "stream state is pinned to its first frame's worker count");
  }
  state.workers = workers;
  state.branch_dirty.resize(plan_.branches.size(), 1);
  if (state.row_changed == nullptr) {
    state.row_changed = std::make_unique<std::atomic<char>[]>(
        static_cast<std::size_t>(plan_.spec.grid_rows));
    state.band_offset.resize(pipeline_.size());
    int total = 0;
    for (std::size_t pi = 0; pi < pipeline_.size(); ++pi) {
      state.band_offset[pi] = total;
      total += static_cast<int>(pipeline_[pi].bands.size());
    }
    state.band_changed = std::make_unique<std::atomic<char>[]>(
        static_cast<std::size_t>(std::max(total, 1)));
  }
}

template <class D>
std::span<std::uint8_t> BasicCompiledPatchModel<D>::bind_stream_arena(
    std::int64_t need, StreamState& state) const {
  if (arena_source_ != nullptr) {
    if (state.lease.empty() ||
        static_cast<std::int64_t>(state.lease.bytes().size()) < need) {
      QMCU_ENSURE(!state.primed,
                  "streaming arena cannot be re-acquired once primed");
      state.lease = arena_source_->acquire(need);
    }
    return state.lease.bytes();
  }
  if (static_cast<std::int64_t>(state.owned.size()) < need) {
    QMCU_ENSURE(!state.primed, "streaming arena cannot grow once primed");
    state.owned.resize(static_cast<std::size_t>(need));
  }
  return {state.owned.data(), state.owned.size()};
}

template <class D>
bool BasicCompiledPatchModel<D>::stream_band_needed(const StreamState& state,
                                                    std::size_t pi,
                                                    std::size_t j) const {
  const PipelinedTailLayer& pl = pipeline_[pi];
  for (const int r : pl.grid_row_deps[j]) {
    if (state.row_changed[static_cast<std::size_t>(r)].load(
            std::memory_order_relaxed) != 0) {
      return true;
    }
  }
  for (const auto& [qi, k] : pl.band_deps[j]) {
    if (state
            .band_changed[static_cast<std::size_t>(
                state.band_offset[static_cast<std::size_t>(qi)] + k)]
            .load(std::memory_order_relaxed) != 0) {
      return true;
    }
  }
  return false;
}

template <class D>
void BasicCompiledPatchModel<D>::stream_mark_branch(StreamState& state,
                                                    std::int64_t b,
                                                    bool changed) const {
  state.branches_run.fetch_add(1, std::memory_order_relaxed);
  if (!changed) return;
  state.row_changed[static_cast<std::size_t>(b / plan_.spec.grid_cols)].store(
      1, std::memory_order_relaxed);
  state.any_changed.store(1, std::memory_order_relaxed);
}

template <class D>
void BasicCompiledPatchModel<D>::stream_mark_band(StreamState& state,
                                                  std::size_t pi,
                                                  std::size_t j) const {
  state.bands_run.fetch_add(1, std::memory_order_relaxed);
  state
      .band_changed[static_cast<std::size_t>(state.band_offset[pi]) + j]
      .store(1, std::memory_order_relaxed);
}

template <class D>
typename D::Tensor BasicCompiledPatchModel<D>::run_streaming(
    const nn::Tensor& input, nn::WorkerPool* pool, StreamState& state) const {
  const nn::Graph& g = *graph_;
  const int split = plan_.spec.split_layer;
  QMCU_REQUIRE(input.shape() == g.shape(g.inputs().front()),
               "input shape does not match graph input");
  const int w = pool == nullptr ? 1 : pool->num_workers();
  prime_stream_state(state, w);
  const nn::ParallelArenaPlan& pplan = streaming_plan(w);
  const std::span<std::uint8_t> arena =
      bind_stream_arena(pplan.total_bytes(), state);
  nn::check_arena(arena, pplan.total_bytes(), alignof(Elem));

  // First frame: nothing retained yet, every branch runs.
  if (!state.primed) {
    std::fill(state.branch_dirty.begin(), state.branch_dirty.end(),
              std::uint8_t{1});
  }
  reset_stream_frame(state, plan_.spec.grid_rows, total_band_count(pipeline_),
                     !state.primed);

  // An int8 frame is requantized in full every time (cheap, and dirty
  // branches crop it); a byte-identical float crop quantizes to
  // byte-identical int8, so clean branches stay clean through this write.
  const std::int64_t shared_measured = bind_shared(input, arena, pplan);
  run_stream_ = &state;

  if (w == 1) {
    backend_.rebind_thread();
    crops_.rebind_thread();
    step_views_.resize(static_cast<std::size_t>(num_steps_));
    std::int64_t slice_measured = 0;
    std::uint8_t* const slice_base = run_data_ + pplan.slice_offset(0);
    for (std::size_t b = 0; b < plan_.branches.size(); ++b) {
      if (!state.branch_dirty[b]) continue;
      bool changed = false;
      exec_branch(static_cast<int>(b), *run_input_, slice_base,
                  pplan.slice.slots, backend_, crops_, step_views_,
                  slice_measured, tail_memo_[static_cast<std::size_t>(split)],
                  &changed);
      stream_mark_branch(state, static_cast<std::int64_t>(b), changed);
      if (branch_hook_) branch_hook_(static_cast<int>(b));
    }
    for (std::size_t pi = 0; pi < pipeline_.size(); ++pi) {
      const std::size_t nb = pipeline_[pi].bands.size();
      std::size_t needed = 0;
      for (std::size_t j = 0; j < nb; ++j) {
        needed += stream_band_needed(state, pi, j) ? 1 : 0;
      }
      if (needed == nb) {
        // Every band is dirty: the banded path would pay one halo crop per
        // band for nothing — run the layer whole, exactly like the
        // sequential tail does (bit-identical; the bands exist for
        // multi-worker pipelining, not for single-lane execution).
        const int id = pipeline_[pi].layer_id;
        run_layers(id, id + 1, backend_);
        for (std::size_t j = 0; j < nb; ++j) stream_mark_band(state, pi, j);
        continue;
      }
      for (std::size_t j = 0; j < nb; ++j) {
        if (!stream_band_needed(state, pi, j)) continue;
        exec_tail_band(pipeline_[pi].layer_id, pipeline_[pi].bands[j],
                       backend_, crops_);
        stream_mark_band(state, pi, j);
      }
    }
    if (state.frame_changed_output()) {
      run_layers(split + 1 + static_cast<int>(pipeline_.size()), g.size(),
                 backend_);
    }
    measured_ = std::max(pplan.shared_offset() + shared_measured,
                         pplan.slice_offset(0) + slice_measured);
  } else {
    prepare_lanes(w);
    pool->run_graph(pipeline_graph(w));
    record_high_water(pplan, shared_measured);
  }
  run_stream_ = nullptr;
  state.primed = true;
  report_stats(dom_, split, tail_memo_);
  return tail_memo_[static_cast<std::size_t>(g.output())];
}

template class BasicCompiledPatchModel<FloatPatchDomain>;
template class BasicCompiledPatchModel<QuantPatchDomain>;

}  // namespace qmcu::patch
