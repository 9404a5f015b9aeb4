// rnnpool.h — RNNPool-style stem replacement (Saha et al., NeurIPS 2020,
// reference [10]).
//
// RNNPool replaces the memory-dominant early stage of a CNN with an aggressive
// learned pooling operator that downsamples by 4x in one block, so the network
// never materialises large intermediate maps and needs no patching. The true
// operator sweeps tiny RNNs over each pooling window; this reproduction
// substitutes a compute-matched separable-conv block (documented in README.md,
// "Substitutions"): depthwise-stride-2 + pointwise pairs that reach the same
// output geometry, with the block's width chosen so its MAC count is within
// ~10% of the stage it replaces — preserving the paper's Table I signature
// (peak just below layer-based, BitOPs slightly above, no halo redundancy).
//
// The returned graph's new stem layers carry no parameters yet; callers
// should run models::init_parameters(graph, seed) (it skips layers that
// already have parameters, so the copied tail weights are preserved).
#pragma once

#include <cstdint>

#include "nn/graph.h"

namespace qmcu::patch {

struct RnnPoolResult {
  nn::Graph graph;
  int replaced_through = -1;        // original cut layer id
  std::int64_t original_stage_macs = 0;
  std::int64_t block_macs = 0;
};

RnnPoolResult make_rnnpool_variant(const nn::Graph& g,
                                   int stage_downsample = 4);

}  // namespace qmcu::patch
