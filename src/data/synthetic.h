// synthetic.h — synthetic stand-ins for ImageNet and Pascal VOC.
//
// The paper's methods consume activation *statistics*, not labels: VDPC
// needs inputs whose activations are bell-shaped with a sparse heavy tail
// (Fig. 2a), spatially clustered so that some patches contain outliers and
// others do not (Fig. 3). The generators below produce exactly that,
// deterministically per (seed, index):
//
//   * ImageNet-like — smooth low-frequency base (random 2-D cosine mixture,
//     giving natural-image spatial correlation) + Gaussian texture + a
//     sparse heavy-tail component ("glints") clustered around a handful of
//     hot spots.
//   * VOC-like — the same background plus 1–3 rectangular high-contrast
//     "objects"; outliers concentrate inside object boxes, mimicking the
//     detection workload where salient regions dominate.
//
// See README.md, Architecture notes, "Substitutions" for the substitution
// argument.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace qmcu::data {

enum class DatasetKind { ImageNetLike, PascalVocLike };

struct DataConfig {
  DatasetKind kind = DatasetKind::ImageNetLike;
  int resolution = 224;
  int channels = 3;
  std::uint64_t seed = 0xda7a5e7ull;
  // Fraction of pixels receiving a heavy-tail boost, and its magnitude in
  // units of the base standard deviation.
  double outlier_probability = 0.01;
  double outlier_scale = 6.0;
};

class SyntheticDataset {
 public:
  explicit SyntheticDataset(DataConfig cfg);

  // Deterministic image for `index`; same (config, index) -> same tensor.
  [[nodiscard]] nn::Tensor image(int index) const;

  [[nodiscard]] std::vector<nn::Tensor> batch(int start, int count) const;

  [[nodiscard]] const DataConfig& config() const { return cfg_; }

 private:
  DataConfig cfg_;
};

// Canonical dataset name used in reports ("ImageNet" / "PascalVOC").
const char* dataset_name(DatasetKind kind);

}  // namespace qmcu::data
