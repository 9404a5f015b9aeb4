// method.h — common interface for the Table II quantization comparators.
//
// Each baseline produces a per-layer activation/weight bitwidth assignment
// plus the measured wall-clock of its own search; a shared evaluator prices
// the assignment (BitOPs, peak activation memory, proxy Top-1). The
// baselines implement the *mechanisms* of their papers (RL episodes for
// HAQ, perturbation sensitivity for HAWQ-V3, memory-driven cascades for
// Rusci et al., clip learning for PACT) on this codebase's calibration
// data, so the relative search costs in the Time column are intrinsic, not
// staged. See README.md, Architecture notes, "Substitutions".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/accuracy_model.h"
#include "nn/graph.h"
#include "nn/tensor.h"

namespace qmcu::baselines {

struct MethodResult {
  std::string name;
  std::string wa_bits;            // Table II "W/A-Bits" cell, e.g. "4/4"
  std::vector<int> act_bits;      // per layer (output feature map storage)
  std::vector<int> weight_bits;   // per layer (MAC layers; 8 elsewhere)
  double search_seconds = 0.0;
};

struct MethodMetrics {
  std::int64_t bitops = 0;
  std::int64_t peak_bytes = 0;
  double top1 = 0.0;
  double penalty_pp = 0.0;
  core::NoiseSummary noise{};
};

// Whole-graph BitOPs honouring per-layer weight bits.
std::int64_t mixed_weight_bitops(const nn::Graph& g,
                                 std::span<const int> act_bits,
                                 std::span<const int> weight_bits);

// Prices a method's assignment and measures its quantization noise on
// `eval_images` (float reference run + per-layer fake quantization).
MethodMetrics evaluate_method(const nn::Graph& g, const MethodResult& method,
                              std::span<const nn::Tensor> eval_images,
                              std::string_view model_name,
                              const core::AccuracyModel& acc = {});

}  // namespace qmcu::baselines
