#include "checks.h"

#include <cmath>
#include <string>

namespace perfbench {

using namespace qmcu;

namespace {

// z with P(|N(0,1)| <= z) = coverage, by bisection on erf.
double coverage_quantile(double coverage) {
  double lo = 0.0;
  double hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (std::erf(mid / std::sqrt(2.0)) < coverage) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

bool tile_has_value_beyond(const nn::Tensor& input, const patch::Region& tile,
                           double mean, double threshold) {
  for (int y = tile.y.begin; y < tile.y.end; ++y) {
    for (int x = tile.x.begin; x < tile.x.end; ++x) {
      for (int c = 0; c < input.shape().c; ++c) {
        if (std::abs(static_cast<double>(input.at(y, x, c)) - mean) >
            threshold) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

void check_vdpc(Checks& checks, const nn::Tensor& input,
                const patch::PatchPlan& plan, double phi,
                const core::PatchClassification& got) {
  long double sum = 0.0L;
  for (const float v : input.data()) sum += v;
  const double mean = static_cast<double>(sum / input.data().size());
  long double sq = 0.0L;
  for (const float v : input.data()) {
    const long double d = static_cast<long double>(v) - mean;
    sq += d * d;
  }
  const double sigma = std::sqrt(static_cast<double>(sq / input.data().size()));
  const double threshold =
      phi >= 1.0 ? INFINITY : sigma * coverage_quantile(phi);

  bool ok = got.outlier.size() == plan.branches.size();
  std::string detail;
  for (std::size_t b = 0; ok && b < plan.branches.size(); ++b) {
    const patch::PatchBranch& br = plan.branches[b];
    const patch::Region tile =
        plan.input_tile(br.row, br.col, input.shape());
    // A value within rounding of the threshold may fall either way; the
    // program's answer must lie between the strict and the loose reading.
    const bool loose =
        tile_has_value_beyond(input, tile, mean, threshold * (1.0 - 1e-6));
    const bool strict =
        tile_has_value_beyond(input, tile, mean, threshold * (1.0 + 1e-6));
    const bool program = got.outlier[b];
    if (program != strict && program != loose) {
      ok = false;
      detail = "branch " + std::to_string(b) + ": program says " +
               (program ? "outlier" : "regular");
    }
  }
  checks.require(ok, "vdpc.classes", detail);
}

std::int64_t sum_bitops(const nn::Graph& g, const patch::PatchPlan& plan,
                        std::span<const patch::BranchBits> branch_bits,
                        std::span<const int> tail_bits, int weight_bits) {
  std::int64_t total = 0;
  for (std::size_t b = 0; b < plan.branches.size(); ++b) {
    const patch::PatchBranch& br = plan.branches[b];
    for (const patch::BranchStep& step : br.steps) {
      if (step.macs == 0) continue;
      const int producer = g.layer(step.layer_id).inputs[0];
      int a_bits = -1;
      for (std::size_t s = 0; s < br.steps.size(); ++s) {
        if (br.steps[s].layer_id == producer) a_bits = branch_bits[b].bits[s];
      }
      total += step.macs * weight_bits * a_bits;
    }
  }
  const int split = plan.spec.split_layer;
  for (int id = split + 1; id < g.size(); ++id) {
    if (!nn::is_mac_op(g.layer(id).kind)) continue;
    const int in = g.layer(id).inputs[0];
    const int a_bits = in == split ? 8 : tail_bits[static_cast<std::size_t>(in)];
    total += g.macs(id) * weight_bits * a_bits;
  }
  return total;
}

void check_bitops(Checks& checks, const nn::Graph& g,
                  const core::QuantMcuPlan& plan, std::int64_t program_bitops,
                  int weight_bits) {
  const std::int64_t mine = sum_bitops(g, plan.patch_plan, plan.mixed_bits,
                                       plan.tail_bits, weight_bits);
  checks.require(mine == program_bitops, "bitops.sum",
                 "benchmark " + std::to_string(mine) + " vs program " +
                     std::to_string(program_bitops));
  std::vector<patch::BranchBits> bits8;
  for (const patch::PatchBranch& br : plan.patch_plan.branches) {
    bits8.push_back({std::vector<int>(br.steps.size(), 8)});
  }
  const std::vector<int> tail8(static_cast<std::size_t>(g.size()), 8);
  const std::int64_t uniform =
      sum_bitops(g, plan.patch_plan, bits8, tail8, weight_bits);
  checks.require(mine <= uniform, "bitops.not_above_uniform8",
                 std::to_string(mine) + " > " + std::to_string(uniform));
}

void check_widths(Checks& checks, const nn::Graph& g,
                  const core::QuantMcuPlan& plan,
                  std::int64_t memory_budget) {
  const patch::PatchPlan& pp = plan.patch_plan;
  const auto bytes = [](std::int64_t elements, int bits) {
    return (elements * bits + 7) / 8;
  };
  const auto valid = [](int b) { return b == 2 || b == 4 || b == 8; };
  // Branch searches come first, in plan order; the tail search, when the
  // tail is quantized, is the last entry.
  for (std::size_t i = 0; i < plan.searches.size(); ++i) {
    const core::VdqsResult& r = plan.searches[i];
    std::vector<std::int64_t> elements;
    if (i < pp.branches.size()) {
      for (const patch::BranchStep& s : pp.branches[i].steps) {
        elements.push_back(s.out_elements);
      }
    } else {
      for (int id = pp.spec.split_layer + 1; id < g.size(); ++id) {
        elements.push_back(g.shape(id).elements());
      }
    }
    bool ok = r.bits.size() == elements.size();
    for (const int b : r.bits) ok = ok && valid(b);
    checks.require(ok, "vdqs.widths",
                   "search " + std::to_string(i) + " has a width outside "
                                                   "{2, 4, 8}");
    if (!ok || !r.feasible) continue;
    bool eq7 = true;
    for (std::size_t k = 0; k + 1 < r.bits.size(); ++k) {
      eq7 = eq7 && bytes(elements[k], r.bits[k]) +
                           bytes(elements[k + 1], r.bits[k + 1]) <=
                       memory_budget;
    }
    checks.require(eq7, "vdqs.eq7",
                   "search " + std::to_string(i) +
                       " reports feasible but violates Eq. 7");
  }
  for (std::size_t b = 0; b < pp.branches.size(); ++b) {
    bool ok = plan.mixed_bits[b].bits.size() == pp.branches[b].steps.size();
    for (const int w : plan.mixed_bits[b].bits) ok = ok && valid(w);
    checks.require(ok, "vdqs.branch_bits");
  }
}

patch::Region branch_input_crop(const patch::PatchPlan& plan, int b) {
  return plan.branches[static_cast<std::size_t>(b)].steps.front().out_region;
}

void check_dirty(Checks& checks, const patch::PatchPlan& plan,
                 std::span<const std::pair<int, int>> changed,
                 std::span<const std::uint8_t> dirty,
                 std::int64_t branches_run) {
  std::int64_t needed = 0;
  bool ok = dirty.size() == plan.branches.size();
  std::string detail;
  for (std::size_t b = 0; ok && b < plan.branches.size(); ++b) {
    const patch::Region crop = branch_input_crop(plan, static_cast<int>(b));
    bool touched = false;
    for (const auto& [y, x] : changed) {
      if (y >= crop.y.begin && y < crop.y.end && x >= crop.x.begin &&
          x < crop.x.end) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    ++needed;
    if (!dirty[b]) {
      ok = false;
      detail = "branch " + std::to_string(b) + " was skipped";
    }
  }
  checks.require(ok && branches_run >= needed, "streaming.dirty_superset",
                 detail.empty() ? "ran " + std::to_string(branches_run) +
                                      " of " + std::to_string(needed)
                                : detail);
}

}  // namespace perfbench
