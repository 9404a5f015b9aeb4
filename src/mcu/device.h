// device.h — microcontroller resource and throughput presets.
//
// The two presets mirror the paper's evaluation hardware (§IV-A):
//   * Arduino Nano 33 BLE Sense — ARM Cortex-M4 @ 64 MHz, 256 KB SRAM,
//     1 MB flash, CMSIS-NN-class int8 kernels.
//   * STM32H743 — ARM Cortex-M7 @ 480 MHz, 512 KB SRAM, 2 MB flash.
//
// Throughput constants are *calibrated*, not first-principles: the int8
// cycles/MAC figure is fit to the layer-based rows of the paper's Table I
// (total cycles = latency × clock over the model's MACs), and the sub-byte
// speedups to CMix-NN's reported relative kernel throughput. See README.md,
// Architecture notes, "Substitutions" for the substitution rationale.
#pragma once

#include <cstdint>
#include <string>

#include "nn/check.h"

namespace qmcu::mcu {

struct Device {
  std::string name;
  std::int64_t sram_bytes = 0;
  std::int64_t flash_bytes = 0;
  double clock_hz = 0.0;

  // Effective cycles per multiply-accumulate for 8-bit weights x 8-bit
  // activations, including load/store and im2col overheads.
  double cycles_per_mac_int8 = 0.0;

  // Relative kernel throughput of sub-byte activation kernels vs int8
  // (CMix-NN unpacking costs eat part of the bandwidth win).
  double speedup_4bit = 1.0;
  double speedup_2bit = 1.0;

  // Fixed dispatch/overhead cycles charged once per executed layer.
  double per_layer_overhead_cycles = 0.0;

  // Cycles per non-MAC element operation (pooling, residual add, copy).
  double cycles_per_element_op = 0.0;

  [[nodiscard]] double ms_from_cycles(double cycles) const {
    QMCU_REQUIRE(clock_hz > 0.0, "device clock must be positive");
    return cycles / clock_hz * 1e3;
  }
};

// Arduino Nano 33 BLE Sense (nRF52840, Cortex-M4F @ 64 MHz).
Device arduino_nano_33_ble_sense();

// STM32H743 (Cortex-M7 @ 480 MHz).
Device stm32h743();

}  // namespace qmcu::mcu
