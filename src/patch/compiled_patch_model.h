// compiled_patch_model.h — compile-once / run-many patch-based inference
// against one static tensor arena, sequentially or across a worker pool.
//
// One runtime, two numeric domains. BasicCompiledPatchModel<Domain> holds
// the whole patch dataflow — per-patch branches, the merge into the cut
// layer, the layer-based tail — together with its arena planning, its
// schedules and its streaming mode. The domain policy supplies only what
// differs between float and integer execution:
//
//   * FloatPatchDomain (alias CompiledPatchModel): float views, branches
//     crop the caller's frame directly, float kernels on the graph's
//     weights. Used for calibration and VDQS entropy profiling.
//   * QuantPatchDomain (alias CompiledPatchQuantModel): int8 / sub-byte
//     views carrying QuantParams, the frame quantized once into its own
//     shared slot, integer kernels on converted weights with per-branch
//     step params and rescaled biases in mixed mode, per-lane panel
//     prepacking and the plan-artifact bundle. The deployed runtime.
//
// The per-op kernel calls are overloads on the domain (or its tensor type)
// resolved at compile time; the template is explicitly instantiated for
// both domains in compiled_patch_model.cpp.
//
// A compiled patch model plans, once:
//
//   * one arena slot per branch *step index*, sized to the largest region
//     any branch computes at that step (branches share the slot layout —
//     they have identical step structure, only their region extents
//     differ);
//   * one slot for the reassembled cut-layer feature map, live from the
//     first branch through its last tail consumer;
//   * one slot per tail layer, placed over layer-based lifetimes;
//   * (int8) one slot for the quantized full input, live across the whole
//     branch phase.
//
// Sequential run(): all slots come from one nn::ArenaPlanner pass over a
// unified timeline (branch steps first, tail steps after), so branch
// buffers, the shared accumulation buffer and tail feature maps pack into a
// single arena the way the deployed runtime lays out SRAM.
//
// Parallel run(input, pool): a dependency-driven task graph over a
// nn::WorkerPool. Stage-1 branches are spatially independent — their only
// interaction is the final merge into *disjoint* tiles of the assembled
// map — so they become independent tasks (cost-weighted: cheap border
// branches coalesce into one task, see patch::weighted_chunks). The tail
// does not wait for the full branch barrier: each early tail layer is
// split into row-band tasks whose input-row intervals come from
// patch::receptive_field, and a band depends only on the branch tasks (and
// upstream bands) that produce those rows — so the tail starts on spare
// workers while interior branches are still running. Tail layers that need
// the whole map (GlobalAvgPool, FullyConnected, Softmax) and everything
// after them run as one final task behind the graph's join.
//
// The arena uses the nn::ParallelArenaPlan layout: one private branch-slot
// slice per worker followed by one shared region (assembled map, tail
// slots, quantized input). For the pipelined graph the shared region is
// planned by ArenaPlanner::plan_pipelined, which widens the lifetimes of
// everything live during the overlap window (assembled map, quantized
// input, banded tail layers) so no tail band can recycle bytes a
// still-running branch reads or writes. Each worker lane owns a WorkerCtx
// (KernelBackend with its own scratch + panel cache, crop arena, step
// views) handed to its thread at dispatch via the backend's
// thread-affinity guard; the merge is the lock-free tiled merge of
// region_pool.h, and the scheduler's dependency edges publish merged rows
// to the bands that read them. Outputs are bit-identical to the sequential
// path for every worker count and every readiness order (the kernels see
// the same values; only which thread runs them, and when, changes); a
// null/1-worker pool takes the sequential code path exactly, and
// run_barrier keeps the two-phase runtime (all branches, then the tail)
// for comparison.
//
// Halo crop temporaries are scratch (a grow-only pool reused across steps),
// not feature maps, and are accounted via scratch_bytes().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nn/compiled_model.h"
#include "nn/graph.h"
#include "nn/memory_planner.h"
#include "nn/ops/backend.h"
#include "nn/runtime/arena_slab.h"
#include "nn/runtime/worker_pool.h"
#include "nn/tensor.h"
#include "patch/patch_plan.h"

namespace qmcu::patch {

// Per-step QuantParams for one branch, parallel to PatchBranch::steps.
struct BranchQuantConfig {
  std::vector<nn::QuantParams> per_step;
};

// One row-banded tail layer of the pipelined dataflow graph: the layer's
// output rows are split into `bands`; band j's tasks depend on whatever
// produces its input rows (branch tasks for the first tail layer, upstream
// bands after that). Computed once at compile time — see
// CompiledPatchModel's pipeline planning.
struct PipelinedTailLayer {
  int layer_id = -1;
  std::vector<Interval> bands;  // output row intervals, in order
  // Per band: grid rows whose branches must have merged (reads of the
  // assembled map), and (layer index into the prefix, band index) pairs
  // for upstream banded layers.
  std::vector<std::vector<int>> grid_row_deps;
  std::vector<std::vector<std::pair<int, int>>> band_deps;
};

// Builds the row-banded pipeline prefix for the tail of `plan`: the
// maximal run of tail layers after the cut that are row-splittable
// (windowed, pooling, element-wise or concat ops), each split into
// `bands_per_layer` row bands (clamped to the layer's height), with
// dependencies resolved through patch::receptive_field. Also baked into
// patch plan artifacts.
std::vector<PipelinedTailLayer> build_pipelined_tail(
    const nn::Graph& g, const PatchPlan& plan, int bands_per_layer);

// Mixed mode: per-branch per-step int32 biases rescaled to the branch's
// actual input scales (empty vectors for non-MAC steps). The branch's step
// parameters set the real input scale of each MAC step, so biases must be
// rescaled per branch (the shared QuantizedParameters bias table is built
// against the deployment config). Shared by the legacy executor and the
// compiled model.
std::vector<std::vector<std::vector<std::int32_t>>> build_branch_bias(
    const nn::Graph& g, const PatchPlan& plan,
    std::span<const BranchQuantConfig> branch_cfgs,
    const nn::QuantizedParameters& params);

// Construction-time products precomputed by the plan-artifact loader:
// mixed-mode branch biases, the row-banded pipeline structure, and the
// panel/offset bundle every lane backend adopts (see nn::PrecompiledBundle).
// Empty members fall back to in-constructor computation.
struct PrecompiledPatchParts {
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias;
  std::vector<PipelinedTailLayer> pipeline;
  std::shared_ptr<const nn::PrecompiledBundle> kernels;
};

// --- streaming -------------------------------------------------------------

// Per-stream persistent state for run_streaming: the arena whose retained
// bytes (assembled map tiles, tail feature maps) carry clean branches' work
// from frame to frame, plus the per-frame dirty mask and change-propagation
// flags. One StreamState per stream; the model is stateless across streams
// and several streams may share one model (serving: one state per lane).
//
// run_streaming binds the *streaming* arena layout — every shared slot's
// lifetime widened to the whole timeline, so no tail slot can recycle bytes
// another retained slot owns across frames (the sequential and pipelined
// layouts overlay dead slots, which is exactly what retention forbids).
// The worker count is pinned by the first frame: the slice layout, and
// therefore every retained offset, depends on it.
struct StreamState {
  StreamState() = default;
  StreamState(const StreamState&) = delete;
  StreamState& operator=(const StreamState&) = delete;

  // Caller-set before each frame: branch_dirty[b] != 0 schedules branch b
  // (see patch::dirty_branches). Ignored on the first frame — everything
  // runs until the state is primed. A recomputed branch whose merged tile
  // matches the retained bytes still leaves its grid row clean.
  std::vector<std::uint8_t> branch_dirty;

  // Stats for the frame just run (reset at each run_streaming entry).
  [[nodiscard]] std::int64_t frame_branches_run() const {
    return branches_run.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t frame_bands_run() const {
    return bands_run.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool frame_changed_output() const {
    return any_changed.load(std::memory_order_relaxed) != 0;
  }
  [[nodiscard]] bool is_primed() const { return primed; }
  [[nodiscard]] int pinned_workers() const { return workers; }

  // Forget everything (scene cut / rebind to another model): the next
  // frame runs in full and may re-pin a new worker count.
  void reset() {
    branch_dirty.clear();
    lease.release();
    owned.clear();
    row_changed.reset();
    band_changed.reset();
    band_offset.clear();
    workers = 0;
    primed = false;
  }

  // -- managed by run_streaming ----------------------------------------
  nn::ArenaSlab::Lease lease;       // slab-backed retained arena
  std::vector<std::uint8_t> owned;  // fallback when no slab is attached
  int workers = 0;                  // pinned by the first frame
  bool primed = false;              // first frame completed
  // Per-frame change propagation: which grid rows merged new bytes, which
  // tail bands recomputed (relaxed atomics — the task graph's dependency
  // edges order every read after the writes it needs).
  std::unique_ptr<std::atomic<char>[]> row_changed;
  std::unique_ptr<std::atomic<char>[]> band_changed;
  std::vector<int> band_offset;  // band_changed index base per tail layer
  std::atomic<char> any_changed{0};
  std::atomic<std::int64_t> branches_run{0};
  std::atomic<std::int64_t> bands_run{0};
};

// --- domain policies -------------------------------------------------------

// Float domain: views carry no parameters, branches crop the caller's frame
// directly, and every op runs the float kernels on the graph's weights.
struct FloatPatchDomain {
  using Tensor = nn::Tensor;
  using Elem = float;
  static constexpr bool kQuantized = false;
};

// Int8 / sub-byte domain: the compile-time tables every integer op reads.
// Uniform mode: branch steps inherit the per-layer params of `cfg`; mixed
// mode: `branch_cfgs[b].per_step[s]` overrides branch b's step s and
// `branch_bias` holds the matching rescaled biases.
struct QuantPatchDomain {
  using Tensor = nn::QTensor;
  using Elem = std::int8_t;
  static constexpr bool kQuantized = true;

  QuantPatchDomain(const nn::Graph& g, const PatchPlan& plan,
                   nn::ActivationQuantConfig cfg,
                   std::vector<BranchQuantConfig> branch_cfgs,
                   std::shared_ptr<const nn::QuantizedParameters> params,
                   PrecompiledPatchParts& parts);

  nn::ActivationQuantConfig cfg;
  std::vector<nn::QuantParams> effective;
  std::vector<BranchQuantConfig> branch_cfgs;  // empty = uniform mode
  std::vector<std::vector<std::vector<std::int32_t>>> branch_bias;
  std::shared_ptr<const nn::QuantizedParameters> params;
  // Artifact bundle adopted by the model backend and every worker lane
  // (keeps the panel/offset views registered with the backends alive).
  std::shared_ptr<const nn::PrecompiledBundle> bundle;
  // AvgPool reciprocal tables keyed by window size. Filled at construction
  // for every window the graph contains, then read-only — several workers
  // share them concurrently during parallel runs, so no lazy inserts on the
  // run path.
  std::unordered_map<int, nn::ops::AvgPoolMultipliers> pool_tables;
  mutable std::function<void(int, const nn::QTensor&)> stats_hook;
};

// --- the patch runtime -----------------------------------------------------

template <class Domain>
class BasicCompiledPatchModel {
  using Tensor = typename Domain::Tensor;
  using Elem = typename Domain::Elem;

 public:
  // Float model.
  BasicCompiledPatchModel(const nn::Graph& g, PatchPlan plan,
                          nn::ops::KernelTier tier = nn::ops::KernelTier::Simd)
    requires(!Domain::kQuantized);
  // Int8 model (see QuantPatchDomain for uniform vs mixed mode). Prebuilt
  // shared parameters (QuantizedParameters::build_shared) skip the
  // per-model weight conversion.
  BasicCompiledPatchModel(
      const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
      std::vector<BranchQuantConfig> branch_cfgs = {},
      nn::ops::KernelTier tier = nn::ops::KernelTier::Simd,
      std::shared_ptr<const nn::QuantizedParameters> params = {})
    requires(Domain::kQuantized);
  // Artifact path: precomputed branch biases / pipeline structure / kernel
  // bundle skip the corresponding construction-time work (the bundle's
  // panels are adopted by the model backend and every worker lane).
  BasicCompiledPatchModel(
      const nn::Graph& g, PatchPlan plan, nn::ActivationQuantConfig cfg,
      std::vector<BranchQuantConfig> branch_cfgs,
      std::shared_ptr<const nn::QuantizedParameters> params,
      PrecompiledPatchParts parts,
      nn::ops::KernelTier tier = nn::ops::KernelTier::Simd)
    requires(Domain::kQuantized);

  [[nodiscard]] Tensor run(const nn::Tensor& input) const;
  // Pipelined dataflow run: stage-1 branch tasks and tail row-band tasks
  // scheduled as one dependency graph over `pool` (see the header
  // comment). Bit-identical to run() for every worker count and readiness
  // order. A null pool or a 1-worker pool takes the sequential path
  // exactly.
  [[nodiscard]] Tensor run(const nn::Tensor& input, nn::WorkerPool* pool) const;
  // The two-phase runtime: branch barrier, then the whole tail on the
  // calling thread. Kept as the pipelined path's comparison baseline (and
  // BM_ParallelPatchRun's subject). Bit-identical to run().
  [[nodiscard]] Tensor run_barrier(const nn::Tensor& input,
                                   nn::WorkerPool* pool) const;
  // Temporal-reuse run over `state` (see StreamState): only branches with
  // state.branch_dirty set are recomputed — clean branches contribute
  // their retained assembled-map tiles for free — and tail row-bands whose
  // upstream grid rows merged no new bytes are skipped, as is the
  // non-banded rest of the tail when nothing changed at all. Bit-identical
  // to run() on the same frame for every worker count, provided the dirty
  // mask is conservative (patch::dirty_branches exact mode). A null pool
  // or 1-worker pool streams sequentially over the same retained layout.
  // The dirty mask is computed on the float frames: quantization is
  // deterministic per element, so a byte-identical float crop quantizes to
  // a byte-identical branch input.
  [[nodiscard]] Tensor run_streaming(const nn::Tensor& input,
                                     nn::WorkerPool* pool,
                                     StreamState& state) const;

  [[nodiscard]] const nn::ArenaPlan& arena_plan() const { return aplan_; }
  [[nodiscard]] std::int64_t arena_bytes() const { return aplan_.peak_bytes; }
  // The slice/shared layout a barrier-parallel run with `num_workers`
  // binds (cached per worker count; also what tests assert non-overlap
  // on), and the widened-lifetime layout the pipelined graph binds.
  [[nodiscard]] const nn::ParallelArenaPlan& parallel_plan(
      int num_workers) const;
  [[nodiscard]] const nn::ParallelArenaPlan& pipelined_plan(
      int num_workers) const;
  // The retained streaming layout: shared lifetimes widened to the whole
  // timeline so no slot's bytes are ever overlaid between frames.
  [[nodiscard]] const nn::ParallelArenaPlan& streaming_plan(
      int num_workers) const;
  // The row-banded tail prefix of the pipelined graph (compile-time).
  [[nodiscard]] std::span<const PipelinedTailLayer> pipelined_tail() const {
    return pipeline_;
  }
  // How many pipelined TaskGraph skeletons are cached (one per distinct
  // worker count seen) — repeated runs at the same width must not grow it.
  [[nodiscard]] std::size_t cached_pipeline_graphs() const {
    return pipeline_graphs_.size();
  }
  // Serving integration: when set, run arenas are leased from `slab` for
  // the duration of each run instead of a model-owned buffer, so many
  // models can share max-sized slices instead of the per-model sum.
  void set_arena_source(std::shared_ptr<nn::ArenaSlab> slab) {
    arena_source_ = std::move(slab);
  }
  // Test-only: called after each branch finishes (merge included) inside
  // parallel runs, before its completion is published to dependents —
  // tests stall chosen branches here to force adversarial readiness
  // orders. Not for production use.
  void set_branch_completion_hook(std::function<void(int)> hook) const {
    branch_hook_ = std::move(hook);
  }
  // Opt-in activation statistics: called once per completed run on the
  // calling thread, for the assembled cut layer and every tail layer, with
  // the layer's output view (drift tracking — see
  // nn::streaming::ActivationStatsTracker). Null clears it.
  void set_stats_hook(std::function<void(int, const nn::QTensor&)> hook) const
    requires(Domain::kQuantized)
  {
    dom_.stats_hook = std::move(hook);
  }
  [[nodiscard]] std::int64_t measured_high_water() const { return measured_; }
  // Crop-temporary + backend scratch held after the last run, including
  // every worker context's share.
  [[nodiscard]] std::int64_t scratch_bytes() const;
  [[nodiscard]] const PatchPlan& plan() const { return plan_; }
  [[nodiscard]] const nn::Graph& graph() const { return *graph_; }
  // Shared with the owning executor's legacy (hooked) paths so only one
  // scratch arena + weight-panel cache exists per executor.
  [[nodiscard]] nn::ops::KernelBackend& backend() const { return backend_; }

  // Int8 compile-time tables, exposed so the owning executor's legacy
  // paths reuse them instead of rebuilding their own copies.
  [[nodiscard]] const std::shared_ptr<const nn::QuantizedParameters>&
  shared_parameters() const
    requires(Domain::kQuantized)
  {
    return dom_.params;
  }
  [[nodiscard]] const nn::ActivationQuantConfig& config() const
    requires(Domain::kQuantized)
  {
    return dom_.cfg;
  }
  [[nodiscard]] std::span<const nn::QuantParams> effective_params() const
    requires(Domain::kQuantized)
  {
    return dom_.effective;
  }
  [[nodiscard]] std::span<const BranchQuantConfig> branch_configs() const
    requires(Domain::kQuantized)
  {
    return dom_.branch_cfgs;
  }
  [[nodiscard]] const std::vector<std::vector<std::vector<std::int32_t>>>&
  branch_bias() const
    requires(Domain::kQuantized)
  {
    return dom_.branch_bias;
  }
  // Params resolution for branch step `step` of branch `branch`: the
  // mixed-mode per-step override when branch configs exist, otherwise the
  // pool-propagated effective params of the step's layer. Shared with the
  // owning executor's legacy path so both resolve identically.
  [[nodiscard]] const nn::QuantParams& step_params(int branch, int step) const
    requires(Domain::kQuantized);

 private:
  // One worker lane's private execution state. The backend (scratch +
  // panel cache) and crop arena are thread-affine; dispatch rebinds them to
  // whichever pool thread runs the lane.
  struct WorkerCtx {
    explicit WorkerCtx(nn::ops::KernelTier tier) : backend(tier) {}
    nn::ops::KernelBackend backend;
    nn::ops::ScratchArena crops;
    std::vector<Tensor> step_views;
    std::int64_t measured = 0;  // furthest byte written inside the slice
  };

  // Timeline + arena planning and the pipelined dataflow structure, shared
  // by every constructor (`pipeline` empty = derive it from the graph).
  void plan_layout(std::vector<PipelinedTailLayer> pipeline);
  // The tensor every branch's Input step crops: the caller's frame, or
  // (int8) its quantized copy bound onto slots[input_slot] at `base`.
  const Tensor& stage_input(const nn::Tensor& input, std::uint8_t* base,
                            std::span<const nn::ArenaSlot> slots,
                            int input_slot, std::int64_t& measured) const;
  // Stages a parallel or streaming run for the worker tasks: arena base,
  // plan, staged input, and every shared view (assembled map and all tail
  // layers) bound before dispatch — tasks only read and write through
  // them. Returns the shared region's high-water.
  std::int64_t bind_shared(const nn::Tensor& input,
                           std::span<std::uint8_t> arena,
                           const nn::ParallelArenaPlan& pplan) const;
  // Runs one branch's steps against the slot layout `slots` (indices equal
  // step indices) at `base`, then merges the final tile into `assembled`.
  // With `merge_changed` set the merge compares before writing and reports
  // whether any assembled byte changed (streaming change propagation).
  void exec_branch(int branch_index, const Tensor& input, std::uint8_t* base,
                   std::span<const nn::ArenaSlot> slots,
                   nn::ops::KernelBackend& backend,
                   nn::ops::ScratchArena& crops, std::span<Tensor> step_views,
                   std::int64_t& measured, Tensor& assembled,
                   bool* merge_changed = nullptr) const;
  // Binds the assembled map + every tail layer's view into tail_memo_.
  void bind_tail(std::uint8_t* base, std::span<const nn::ArenaSlot> slots,
                 int first_tail_slot, int assembled_slot,
                 std::int64_t& measured) const;
  // Runs tail layers [first, last) whole against the bound tail views.
  void run_layers(int first, int last, nn::ops::KernelBackend& backend) const;
  // Computes output rows `rows` of banded tail layer `layer_id` from the
  // pre-bound tail views on the given backend/crops (a row-band task body;
  // sequential streaming drives it on the model's own context).
  void exec_tail_band(int layer_id, const Interval& rows,
                      nn::ops::KernelBackend& backend,
                      nn::ops::ScratchArena& crops) const;
  WorkerCtx& worker_ctx(int lane) const;
  // Hands lanes [0, w) to this run (thread rebind, step views, high-water
  // reset); after the run, folds their slice high-waters into measured_.
  void prepare_lanes(int w) const;
  void record_high_water(const nn::ParallelArenaPlan& pplan,
                         std::int64_t shared_measured) const;
  std::span<std::uint8_t> bind_run_arena(std::int64_t need,
                                         nn::ArenaSlab::Lease& lease) const;
  // Streaming internals: size `state` for this plan and pin its worker
  // count; arena binding that retains the lease/buffer across frames; the
  // band-skip predicate and the change-propagation marks (see StreamState).
  void prime_stream_state(StreamState& state, int workers) const;
  std::span<std::uint8_t> bind_stream_arena(std::int64_t need,
                                            StreamState& state) const;
  bool stream_band_needed(const StreamState& state, std::size_t pi,
                          std::size_t j) const;
  void stream_mark_branch(StreamState& state, std::int64_t b,
                          bool changed) const;
  void stream_mark_band(StreamState& state, std::size_t pi,
                        std::size_t j) const;
  // The cached dataflow graph for `num_workers` lanes. Its task bodies
  // capture only `this`: per-run state (input, arena base, plan) is
  // staged in the run_* members before dispatch, so the graph — chunking,
  // band wiring, join — is built once per worker count, not per run.
  nn::TaskGraph& pipeline_graph(int num_workers) const;

  const nn::Graph* graph_;
  PatchPlan plan_;
  Domain dom_;
  int num_steps_ = 0;       // steps per branch (identical across branches)
  int assembled_slot_ = 0;  // request index of the reassembled cut layer
  int input_slot_ = -1;     // request index of the staged input (int8)
  nn::ArenaPlan aplan_;
  // Request lists feeding parallel_plan(): branch-step slots (per-worker
  // slice) and tail + assembled (+ staged input) slots (shared region).
  std::vector<nn::ArenaRequest> slice_requests_;
  std::vector<nn::ArenaRequest> shared_requests_;
  // Pipelined dataflow structure: banded tail prefix, branch pricing for
  // cost-weighted task chunking, and the timeline step of the last banded
  // layer (the lifetime-widening horizon of plan_pipelined).
  std::vector<PipelinedTailLayer> pipeline_;
  std::vector<std::int64_t> branch_costs_;
  int pipeline_horizon_ = 0;
  mutable std::unordered_map<int, nn::ParallelArenaPlan> pplans_;
  mutable std::unordered_map<int, nn::ParallelArenaPlan> pipelined_pplans_;
  mutable std::unordered_map<int, nn::ParallelArenaPlan> streaming_pplans_;
  mutable std::unordered_map<int, nn::TaskGraph> pipeline_graphs_;
  // Per-run state read by the cached pipelined graph's tasks; staged
  // before dispatch (the dispatch barrier publishes it to every lane).
  // run_stream_ is non-null only while a streaming frame is in flight —
  // the cached graph serves both modes and checks it per task.
  mutable Tensor run_staged_;  // (int8) the quantized input's bound view
  mutable const Tensor* run_input_ = nullptr;
  mutable std::uint8_t* run_data_ = nullptr;
  mutable const nn::ParallelArenaPlan* run_pplan_ = nullptr;
  mutable StreamState* run_stream_ = nullptr;
  std::shared_ptr<nn::ArenaSlab> arena_source_;
  mutable std::function<void(int)> branch_hook_;
  mutable nn::ops::KernelBackend backend_;
  mutable nn::ops::ScratchArena crops_;  // halo crop temporaries
  mutable std::vector<std::unique_ptr<WorkerCtx>> workers_;
  mutable std::vector<std::uint8_t> arena_;
  mutable std::vector<Tensor> step_views_;  // per step, rebound per branch
  mutable std::vector<Tensor> tail_memo_;   // per layer id (tail phase)
  mutable std::int64_t measured_ = 0;
};

extern template class BasicCompiledPatchModel<FloatPatchDomain>;
extern template class BasicCompiledPatchModel<QuantPatchDomain>;

using CompiledPatchModel = BasicCompiledPatchModel<FloatPatchDomain>;
using CompiledPatchQuantModel = BasicCompiledPatchModel<QuantPatchDomain>;

}  // namespace qmcu::patch
