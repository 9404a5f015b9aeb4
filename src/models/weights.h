// weights.h — deterministic synthetic parameter initialisation.
//
// The paper evaluates trained networks; this reproduction substitutes
// He-normal weights from a platform-independent PRNG (nn::Rng) so every
// build regenerates bit-identical models. What VDPC/VDQS actually consume —
// bell-shaped activation statistics with occasional outliers — is produced
// by these weights together with the data/synthetic.h input generators; see
// README.md, Architecture notes, "Substitutions".
#pragma once

#include <cstdint>

#include "nn/graph.h"
#include "nn/rng.h"

namespace qmcu::models {

// He-normal weights (stddev = sqrt(2 / fan_in)) and small uniform biases for
// every MAC layer of `g` that does not yet have parameters.
void init_parameters(nn::Graph& g, std::uint64_t seed);

}  // namespace qmcu::models
