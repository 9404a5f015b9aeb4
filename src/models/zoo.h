// zoo.h — the network architectures used by the paper's evaluation.
//
// Fig. 1b compares MobileNetV2 / MnasNet / FBNet-A / OFA-CPU / MCUNet;
// Fig. 4 and Fig. 6 additionally use InceptionV3, SqueezeNet, ResNet18,
// VGG16. "The width multiplier and resolution of the model are adjusted to
// fit MCU memory" (Table I caption) — ModelConfig carries both knobs.
//
// Documented topology simplifications (see README.md, "Substitutions"):
// squeeze-and-excitation blocks are omitted from MnasNet (no broadcast-multiply
// op in the IR) and InceptionV3 is built from classic four-branch square-kernel
// inception modules rather than the factorised 7x1/1x7 variant. Both keep the
// property the paper exercises — deep branched topologies with a characteristic
// activation distribution — while staying inside the operator set MCU
// deployments actually use.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "nn/graph.h"

namespace qmcu::models {

struct ModelConfig {
  float width_multiplier = 1.0f;
  int resolution = 224;
  int num_classes = 1000;
  std::uint64_t seed = 0x9e3779b9u;
  bool with_softmax = true;
  bool init_weights = true;  // disable for pure cost-model studies
};

nn::Graph make_mobilenet_v2(const ModelConfig& cfg = {});
nn::Graph make_mcunet(const ModelConfig& cfg = {});
nn::Graph make_mnasnet(const ModelConfig& cfg = {});
nn::Graph make_fbnet_a(const ModelConfig& cfg = {});
nn::Graph make_ofa_cpu(const ModelConfig& cfg = {});
nn::Graph make_resnet18(const ModelConfig& cfg = {});
nn::Graph make_vgg16(const ModelConfig& cfg = {});
nn::Graph make_squeezenet(const ModelConfig& cfg = {});
nn::Graph make_inception_v3(const ModelConfig& cfg = {});

// Registry lookup by canonical name ("mobilenetv2", "mcunet", ...).
nn::Graph make_model(std::string_view name, const ModelConfig& cfg = {});
std::vector<std::string> model_names();

}  // namespace qmcu::models
