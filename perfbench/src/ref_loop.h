// ref_loop.h — the benchmark's reference loop.
//
// A fixed unit of CPU work that resembles the program's hot paths without
// calling any of them: an int8 multiply-accumulate block (the int8 GEMM
// kernels), float dot products (the float executor the search runs on) and
// a byte histogram over a buffer larger than L2 (the entropy profiling and
// the memory traffic of large feature maps). The benchmark times this loop
// on the same thread or threads just before and just after each timed
// operation and reports the operation's time scaled to the loop's nominal
// speed, so that the host's slow and fast phases cancel out.
//
// Compiled as its own library with fixed flags (see CMakeLists.txt).
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class RefLoop {
 public:
  RefLoop();

  // Runs `units` units of reference work and returns the elapsed seconds.
  double run(int units);

 private:
  void unit();

  std::vector<std::int8_t> a_;     // int8 MAC operands
  std::vector<std::int8_t> b_;
  std::vector<std::int32_t> c_;
  std::vector<float> x_;           // float dot-product operands
  std::vector<float> y_;
  std::vector<std::uint8_t> big_;  // histogram source, larger than L2
  std::vector<std::uint32_t> hist_;
  std::size_t cursor_ = 0;
  // Every unit folds its results in here, so the work has an observable
  // effect and cannot be optimised away.
  std::uint64_t checksum_ = 0;
};

}  // namespace perfbench
