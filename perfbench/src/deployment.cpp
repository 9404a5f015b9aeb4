#include "deployment.h"

#include <cmath>
#include <cstring>

#include "mcu/device.h"
#include "nn/rng.h"

namespace perfbench {

using namespace qmcu;

std::vector<TableConfig> arduino_configs() {
  TableConfig imagenet{"arduino_imagenet", {}, data::DatasetKind::ImageNetLike};
  imagenet.scale.width_multiplier = 0.35f;
  imagenet.scale.resolution = 144;
  imagenet.scale.num_classes = 1000;
  TableConfig voc{"arduino_voc", {}, data::DatasetKind::PascalVocLike};
  voc.scale.width_multiplier = 0.5f;
  voc.scale.resolution = 128;
  voc.scale.num_classes = 20;
  return {imagenet, voc};
}

core::QuantMcuConfig search_config() {
  core::QuantMcuConfig cfg;
  cfg.planner = core::PatchPlannerKind::MinPeak;
  return cfg;
}

mcu::Device search_device() { return mcu::arduino_nano_33_ble_sense(); }

data::SyntheticDataset dataset(const TableConfig& cfg, std::uint64_t seed) {
  data::DataConfig dc;
  dc.kind = cfg.kind;
  dc.resolution = cfg.scale.resolution;
  dc.seed = seed;
  return data::SyntheticDataset(dc);
}

std::unique_ptr<patch::CompiledPatchQuantModel> Deployment::compile(
    nn::ops::KernelTier tier) const {
  return std::make_unique<patch::CompiledPatchQuantModel>(
      graph, plan.patch_plan, deploy_cfg, branch_cfgs, tier, params);
}

std::unique_ptr<Deployment> build_deployment(
    const TableConfig& cfg, const std::vector<nn::Tensor>& calib) {
  auto d = std::make_unique<Deployment>(models::make_mobilenet_v2(cfg.scale));
  d->plan = core::build_quantmcu_plan(d->graph, search_device(), calib,
                                      search_config());
  d->ranges = quant::calibrate_ranges(d->graph, calib);
  d->deploy_cfg =
      core::make_deployment_quant_config(d->graph, d->plan, d->ranges);
  d->branch_cfgs =
      core::make_branch_quant_configs(d->graph, d->plan, d->ranges);
  d->params = nn::QuantizedParameters::build_shared(d->graph, d->deploy_cfg);
  return d;
}

CameraStream make_camera_stream(const nn::TensorShape& shape, int period,
                                std::uint64_t seed) {
  nn::Rng rng(seed);
  nn::Tensor background(shape);
  // Smooth-ish background: low-frequency pattern plus noise.
  const double fx = rng.uniform(0.05, 0.2);
  const double fy = rng.uniform(0.05, 0.2);
  for (int y = 0; y < shape.h; ++y) {
    for (int x = 0; x < shape.w; ++x) {
      for (int c = 0; c < shape.c; ++c) {
        background.at(y, x, c) = static_cast<float>(
            0.5 * std::sin(fx * x + c) * std::cos(fy * y) +
            rng.normal(0.0, 0.3));
      }
    }
  }
  const int side_h = shape.h / 2;  // a quarter of the frame's area
  const int side_w = shape.w / 2;
  std::vector<float> object(static_cast<std::size_t>(side_h) * side_w *
                            shape.c);
  for (float& v : object) v = static_cast<float>(rng.normal(1.0, 1.2));

  // Object top-left corner on a closed elliptical path inside the frame.
  const double cy = (shape.h - side_h) / 2.0;
  const double cx = (shape.w - side_w) / 2.0;
  const double ry = cy * 0.8;
  const double rx = cx * 0.8;
  const double phase = rng.uniform(0.0, 6.283185307179586);
  std::vector<std::pair<int, int>> corner(static_cast<std::size_t>(period));
  for (int f = 0; f < period; ++f) {
    const double a = phase + 6.283185307179586 * f / period;
    corner[static_cast<std::size_t>(f)] = {
        static_cast<int>(std::lround(cy + ry * std::sin(a))),
        static_cast<int>(std::lround(cx + rx * std::cos(a)))};
  }

  CameraStream s;
  for (int f = 0; f < period; ++f) {
    nn::Tensor frame = background;
    const auto [oy, ox] = corner[static_cast<std::size_t>(f)];
    for (int y = 0; y < side_h; ++y) {
      for (int x = 0; x < side_w; ++x) {
        for (int c = 0; c < shape.c; ++c) {
          frame.at(oy + y, ox + x, c) =
              object[(static_cast<std::size_t>(y) * side_w + x) * shape.c +
                     c];
        }
      }
    }
    s.frames.push_back(std::move(frame));
  }
  // The generator's own record of what it changed: every pixel of the old
  // or new object rectangle whose value differs between the two frames.
  for (int f = 0; f < period; ++f) {
    const nn::Tensor& prev =
        s.frames[static_cast<std::size_t>((f + period - 1) % period)];
    const nn::Tensor& cur = s.frames[static_cast<std::size_t>(f)];
    std::vector<std::pair<int, int>> changed;
    for (int y = 0; y < shape.h; ++y) {
      for (int x = 0; x < shape.w; ++x) {
        bool in_rect = false;
        for (const int g : {f, (f + period - 1) % period}) {
          const auto [oy, ox] = corner[static_cast<std::size_t>(g)];
          in_rect = in_rect || (y >= oy && y < oy + side_h && x >= ox &&
                                x < ox + side_w);
        }
        if (!in_rect) continue;
        for (int c = 0; c < shape.c; ++c) {
          if (prev.at(y, x, c) != cur.at(y, x, c)) {
            changed.emplace_back(y, x);
            break;
          }
        }
      }
    }
    s.changed.push_back(std::move(changed));
  }
  return s;
}

std::vector<nn::Tensor> request_images(const TableConfig& cfg,
                                       std::uint64_t seed, int count) {
  return dataset(cfg, seed).batch(0, count);
}

bool same_bytes(const nn::QTensor& a, const nn::QTensor& b) {
  if (!(a.shape() == b.shape())) return false;
  if (a.params().bits != b.params().bits ||
      a.params().zero_point != b.params().zero_point ||
      std::memcmp(&a.params().scale, &b.params().scale, sizeof(float)) != 0) {
    return false;
  }
  return a.data().size() == b.data().size() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size()) == 0;
}

Fixture make_fixture(const TableConfig& cfg,
                     std::unique_ptr<Deployment> deployment,
                     std::vector<nn::Tensor> calib, std::uint64_t seed,
                     int streams) {
  Fixture f;
  f.deployment = std::move(deployment);
  f.calib = std::move(calib);
  const auto reference =
      f.deployment->compile(nn::ops::KernelTier::Reference);
  f.images = request_images(cfg, 0x5eed0000ull + seed, kImages);
  for (const nn::Tensor& img : f.images) {
    f.expected.push_back(reference->run(img));
  }
  for (int s = 0; s < streams; ++s) {
    f.streams.push_back(make_camera_stream(f.deployment->graph.shape(0),
                                           kStreamPeriod,
                                           0xca3e0000ull + seed * 7 + s));
    f.expected_frames.emplace_back();
    for (const nn::Tensor& frame : f.streams.back().frames) {
      f.expected_frames.back().push_back(reference->run(frame));
    }
  }
  return f;
}

}  // namespace perfbench
