// deployment.h — the searched QuantMCU deployments the workloads run, and
// the seeded inputs they feed them. Only public library functions are used.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/quantmcu.h"
#include "data/synthetic.h"
#include "models/zoo.h"
#include "nn/compiled_model.h"
#include "nn/graph.h"
#include "nn/tensor.h"
#include "patch/compiled_patch_model.h"
#include "quant/calibration.h"

namespace perfbench {

// One Arduino Nano 33 BLE Sense column of Table I.
struct TableConfig {
  const char* slug;
  qmcu::models::ModelConfig scale;
  qmcu::data::DatasetKind kind;
};

// mbv2 w0.35 @144 ImageNet-like and mbv2 w0.5 @128 VOC-like.
std::vector<TableConfig> arduino_configs();

// The search settings of Table I's QuantMCU row (minimum-peak planner).
qmcu::core::QuantMcuConfig search_config();
qmcu::mcu::Device search_device();

// Seeded synthetic dataset for a configuration; `seed` changes the images.
qmcu::data::SyntheticDataset dataset(const TableConfig& cfg,
                                     std::uint64_t seed);

// A searched, calibrated, materialised deployment. Non-movable once built:
// compiled models keep a pointer to `graph`.
struct Deployment {
  qmcu::nn::Graph graph;
  qmcu::core::QuantMcuPlan plan;
  std::vector<qmcu::quant::LayerRange> ranges;
  qmcu::nn::ActivationQuantConfig deploy_cfg;
  std::vector<qmcu::patch::BranchQuantConfig> branch_cfgs;
  std::shared_ptr<const qmcu::nn::QuantizedParameters> params;

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  explicit Deployment(qmcu::nn::Graph g) : graph(std::move(g)) {}

  // The mixed-precision patch model at `tier`.
  [[nodiscard]] std::unique_ptr<qmcu::patch::CompiledPatchQuantModel>
  compile(qmcu::nn::ops::KernelTier tier) const;
};

// Search + calibration + configs on `calib` (the infer/serve deployment is
// built from a fixed calibration batch; see README.md).
std::unique_ptr<Deployment> build_deployment(
    const TableConfig& cfg, const std::vector<qmcu::nn::Tensor>& calib);

// A camera stream: a static background with a textured object covering a
// quarter of the frame that moves on every frame along a closed path of
// `period` positions (no two consecutive frames are equal).
struct CameraStream {
  std::vector<qmcu::nn::Tensor> frames;
  // Pixels (y, x) the generator changed between frame f-1 and f (f >= 1;
  // frame 0 changes from the last frame of the loop).
  std::vector<std::vector<std::pair<int, int>>> changed;
};
CameraStream make_camera_stream(const qmcu::nn::TensorShape& shape,
                                int period, std::uint64_t seed);

// Fresh request images drawn from the seeded dataset.
std::vector<qmcu::nn::Tensor> request_images(const TableConfig& cfg,
                                             std::uint64_t seed, int count);

bool same_bytes(const qmcu::nn::QTensor& a, const qmcu::nn::QTensor& b);

// A deployment with seeded request images and camera streams, and the
// Reference-tier output of every one of them (what every optimised output
// is checked against).
struct Fixture {
  std::unique_ptr<Deployment> deployment;
  std::vector<qmcu::nn::Tensor> calib;
  std::vector<qmcu::nn::Tensor> images;
  std::vector<qmcu::nn::QTensor> expected;
  std::vector<CameraStream> streams;
  std::vector<std::vector<qmcu::nn::QTensor>> expected_frames;
};

// The infer and serve deployment is searched on Table I's fixed
// calibration batch; the seed changes only the requests.
inline constexpr std::uint64_t kDeploySeed = 0xda7a5e7ull;
inline constexpr int kImages = 16;        // request images per run
inline constexpr int kStreamPeriod = 32;  // frames before a stream repeats

Fixture make_fixture(const TableConfig& cfg,
                     std::unique_ptr<Deployment> deployment,
                     std::vector<qmcu::nn::Tensor> calib, std::uint64_t seed,
                     int streams);

}  // namespace perfbench
