// patch_cost.h — BitOPs / latency / peak-SRAM accounting for a patch plan.
//
// Prices a full patch-based execution under an arbitrary per-branch,
// per-feature-map bitwidth assignment (the object QuantMCU's VDQS searches
// over) plus a per-layer assignment for the layer-based tail after the cut.
// Uniform 8-bit assignments price plain MCUNetV2-style patch inference.
//
// Memory model (matches README.md, Architecture notes, "Substitutions"):
//  * the input image is resident throughout the patch phase as per-patch
//    quantized tiles (disjoint tiling; halo margins are re-read from
//    neighbouring tiles and requantized on the fly, costing no storage);
//  * each branch's working set follows intra-branch liveness of its region
//    tensors at the branch's bitwidths;
//  * the cut layer's feature map accumulates slice by slice as branches
//    retire, each slice stored at its branch's final bitwidth;
//  * after the cut, the tail runs layer-based with `tail_bits`, the input
//    image having been freed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mcu/cost_model.h"
#include "nn/graph.h"
#include "nn/runtime/worker_pool.h"
#include "patch/patch_plan.h"

namespace qmcu::patch {

// Activation bitwidths for one branch, parallel to PatchBranch::steps.
struct BranchBits {
  std::vector<int> bits;
};

struct PatchCost {
  std::int64_t bitops = 0;
  double cycles = 0.0;
  double latency_ms = 0.0;
  std::int64_t peak_bytes = 0;
  std::int64_t stage_bitops = 0;  // patch-phase share of bitops
};

// All branches and every tail layer at the same bitwidth.
std::vector<BranchBits> uniform_branch_bits(const PatchPlan& plan, int bits);

// Relative execution price of every branch (MACs plus element ops), the
// weight the parallel runtimes chunk branches by. Border branches are
// cheaper than interior ones (smaller halos), which is exactly the
// imbalance cost-weighted chunking flattens.
std::vector<std::int64_t> branch_costs(const PatchPlan& plan);

// Splits [0, costs.size()) into at most `max_chunks` contiguous ranges of
// approximately equal total cost (greedy accumulation against the running
// average). Cheap neighbours — border branches — coalesce into one range;
// an expensive interior branch stays alone. Never returns an empty range;
// ranges cover the index space exactly once, in order.
std::vector<nn::IndexRange> weighted_chunks(
    std::span<const std::int64_t> costs, int max_chunks);

// Bytes of the reassembled cut-layer feature map (sum of branch slices).
std::int64_t split_feature_map_bytes(const nn::Graph& g, const PatchPlan& plan,
                                     std::span<const BranchBits> branch_bits);

// Full price of one inference. `branch_bits` has one entry per branch;
// `tail_bits[i]` is the storage bitwidth of layer i's output for i beyond
// the cut (entries at or before the cut are ignored).
PatchCost evaluate_patch_cost(const nn::Graph& g, const PatchPlan& plan,
                              std::span<const BranchBits> branch_bits,
                              std::span<const int> tail_bits,
                              const mcu::CostModel& cost_model,
                              int weight_bits = 8);

}  // namespace qmcu::patch
