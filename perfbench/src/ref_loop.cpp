#include "ref_loop.h"

#include <chrono>

namespace perfbench {

namespace {

constexpr int kM = 32;   // int8 block: C[kM][kN] += A[kM][kK] * B[kK][kN]
constexpr int kK = 256;
constexpr int kN = 64;
constexpr int kDots = 8;             // float dot products per unit
constexpr int kDotLen = 8192;
constexpr std::size_t kBigBytes = std::size_t{4} << 20;  // 4 MiB
constexpr std::size_t kSliceBytes = std::size_t{512} << 10;

std::uint64_t mix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

RefLoop::RefLoop()
    : a_(static_cast<std::size_t>(kM) * kK),
      b_(static_cast<std::size_t>(kK) * kN),
      c_(static_cast<std::size_t>(kM) * kN),
      x_(static_cast<std::size_t>(kDots) * kDotLen),
      y_(static_cast<std::size_t>(kDotLen)),
      big_(kBigBytes),
      hist_(4 * 256) {
  std::uint64_t s = 0x5eedull;
  for (auto& v : a_) v = static_cast<std::int8_t>(mix(s));
  for (auto& v : b_) v = static_cast<std::int8_t>(mix(s));
  for (auto& v : x_) v = static_cast<float>(mix(s) % 2001) / 1000.0f - 1.0f;
  for (auto& v : y_) v = static_cast<float>(mix(s) % 2001) / 1000.0f - 1.0f;
  for (auto& v : big_) v = static_cast<std::uint8_t>(mix(s) >> 7);
}

void RefLoop::unit() {
  // int8 multiply-accumulate block.
  for (auto& v : c_) v = 0;
  for (int i = 0; i < kM; ++i) {
    std::int32_t* crow = c_.data() + static_cast<std::size_t>(i) * kN;
    for (int k = 0; k < kK; ++k) {
      const std::int32_t av = a_[static_cast<std::size_t>(i) * kK + k];
      const std::int8_t* brow = b_.data() + static_cast<std::size_t>(k) * kN;
      for (int j = 0; j < kN; ++j) crow[j] += av * brow[j];
    }
  }
  std::uint64_t sum = 0;
  for (const std::int32_t v : c_) sum += static_cast<std::uint32_t>(v);

  // Float dot products (in order, no reassociation).
  double dots = 0.0;
  for (int d = 0; d < kDots; ++d) {
    const float* x = x_.data() + static_cast<std::size_t>(d) * kDotLen;
    float acc = 0.0f;
    for (int i = 0; i < kDotLen; ++i) acc += x[i] * y_[static_cast<std::size_t>(i)];
    dots += acc;
  }

  // Byte histogram over the next slice of the large buffer; four
  // sub-histograms break the store-to-load dependency on repeated bytes.
  const std::uint8_t* src = big_.data() + cursor_;
  for (std::size_t i = 0; i + 4 <= kSliceBytes; i += 4) {
    ++hist_[src[i]];
    ++hist_[256 + src[i + 1]];
    ++hist_[512 + src[i + 2]];
    ++hist_[768 + src[i + 3]];
  }
  cursor_ = (cursor_ + kSliceBytes) % kBigBytes;
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < hist_.size(); i += 37) h += hist_[i];

  checksum_ += sum + h + static_cast<std::uint64_t>(dots * 1000.0);
}

double RefLoop::run(int units) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int u = 0; u < units; ++u) unit();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace perfbench
