// accuracy_model.h — proxy accuracy for quantized deployments.
//
// SUBSTITUTION (README.md, "Substitutions"): the paper reports Top-1 / Top-5 /
// mAP of *trained* networks on ImageNet / Pascal VOC. Without trained weights
// or the datasets, this reproduction models accuracy as
//
//     accuracy = published FP32 baseline − penalty(measured noise)
//
// where the penalty is computed from quantities *measured on the actual
// synthetic activations* of this codebase:
//
//   * a floor for plain 8-bit post-training quantization (~0.2 pp, the
//     empirically typical int8 PTQ loss);
//   * a term driven by the activation-volume-weighted relative quantization
//     MSE of every sub-byte feature map (more noise ⇒ more loss, log-scaled
//     like SQNR);
//   * an outlier-crush term driven by the share of accuracy-relevant
//     outlier values (|x−μ| > z_ref·σ) that pass through sub-byte feature
//     maps, and by the measured relative error on exactly those values.
//     This is the effect VDPC exists to prevent; it dominates the paper's
//     "QuantMCU w/o VDPC" ablation (Fig. 4's 10–15 pp drop).
//
// The three scale constants are calibrated once (documented below) so that
// int8 ≈ lossless, blind 2/4-bit ≈ double-digit loss, VDPC-guarded mixed
// precision ≈ sub-1 pp — the paper's qualitative accuracy landscape. They
// are never tuned per experiment.
#pragma once

#include <string_view>

namespace qmcu::core {

struct AccuracyBase {
  double imagenet_top1 = 0.0;
  double imagenet_top5 = 0.0;
  double voc_map = 0.0;
};

// Published FP32 reference accuracies (Top-1/Top-5: ImageNet; mAP: VOC
// detection heads built on the same backbone).
AccuracyBase base_accuracy(std::string_view model_name);

// Measured quantization-noise summary of one deployment configuration.
struct NoiseSummary {
  bool any_quantization = false;  // false for a float deployment
  // Activation-volume-weighted mean of (quantization MSE / variance) over
  // sub-byte feature maps (8-bit maps contribute their tiny MSE too).
  double mean_relative_mse = 0.0;
  // Share of accuracy-relevant outlier values that are processed at
  // sub-byte precision (0 when VDPC routes every outlier patch to 8-bit).
  double crushed_outlier_fraction = 0.0;
  // Mean squared quantization error on exactly those crushed values,
  // normalised by the non-outlier band width (z_ref·σ)².
  double crush_severity = 0.0;
};

struct AccuracyModel {
  // Calibration constants — see header note.
  double int8_floor_pp = 0.2;
  double noise_scale_pp = 14.0;
  double outlier_scale_pp = 60.0;
  double top5_ratio = 0.55;  // Top-5 degrades slower than Top-1
  double map_ratio = 1.10;   // detection degrades slightly faster
  double z_ref = 2.1;        // definition of accuracy-relevant outliers

  [[nodiscard]] double top1_penalty_pp(const NoiseSummary& s) const;
  [[nodiscard]] double top5_penalty_pp(const NoiseSummary& s) const {
    return top5_ratio * top1_penalty_pp(s);
  }
  [[nodiscard]] double map_penalty_pp(const NoiseSummary& s) const {
    return map_ratio * top1_penalty_pp(s);
  }
};

}  // namespace qmcu::core
