// checks.h — correctness checks computed apart from the code under test.
// Each recomputes a program result with the benchmark's own code (or
// compares against the Reference kernel tier) and records the outcome in
// a Checks; a mismatch names the check.
#pragma once

#include <span>
#include <vector>

#include "core/quantmcu.h"
#include "core/vdpc.h"
#include "harness.h"
#include "nn/graph.h"
#include "nn/tensor.h"
#include "patch/patch_plan.h"

namespace perfbench {

// VDPC: Gaussian moment fit over the whole input, central-coverage
// threshold z((1+phi)/2)·sigma, and a tile is outlier-class iff any value
// inside it lies further than the threshold from the mean.
void check_vdpc(Checks& checks, const qmcu::nn::Tensor& input,
                const qmcu::patch::PatchPlan& plan, double phi,
                const qmcu::core::PatchClassification& got);

// BitOPs summed from plan MACs x weight bits x input activation bits;
// returns the benchmark's own total.
std::int64_t sum_bitops(const qmcu::nn::Graph& g,
                        const qmcu::patch::PatchPlan& plan,
                        std::span<const qmcu::patch::BranchBits> branch_bits,
                        std::span<const int> tail_bits, int weight_bits);

// The benchmark's BitOPs equal evaluate_patch_cost's, and are no greater
// than the same plan at uniform 8 bits.
void check_bitops(Checks& checks, const qmcu::nn::Graph& g,
                  const qmcu::core::QuantMcuPlan& plan,
                  std::int64_t program_bitops, int weight_bits);

// Every searched width is in {2, 4, 8}; every adjacent pair satisfies
// Eq. 7 wherever the search reports `feasible`.
void check_widths(Checks& checks, const qmcu::nn::Graph& g,
                  const qmcu::core::QuantMcuPlan& plan,
                  std::int64_t memory_budget);

// The input region of branch `b` (its Input step's computed region).
qmcu::patch::Region branch_input_crop(const qmcu::patch::PatchPlan& plan,
                                      int b);

// Streaming recomputed at least every branch whose input crop contains a
// pixel the generator changed.
void check_dirty(Checks& checks, const qmcu::patch::PatchPlan& plan,
                 std::span<const std::pair<int, int>> changed,
                 std::span<const std::uint8_t> dirty,
                 std::int64_t branches_run);

}  // namespace perfbench
