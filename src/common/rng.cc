#include "common/rng.h"

#include "common/macros.h"

namespace gammadb {

uint64_t Rng::Next64() {
  // splitmix64: tiny, fast, passes BigCrush for this use.
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Uniform(uint64_t bound) {
  GAMMA_DCHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = Next64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  GAMMA_DCHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next64() >> 11) * (1.0 / 9007199254740992.0);
}

std::vector<uint32_t> Rng::Permutation(uint32_t n) {
  std::vector<uint32_t> perm(n);
  Permute(perm);
  return perm;
}

void Rng::Permute(std::span<uint32_t> out) {
  GAMMA_CHECK(out.size() <= UINT32_MAX);
  const auto n = static_cast<uint32_t>(out.size());
  for (uint32_t i = 0; i < n; ++i) out[i] = i;
  for (uint32_t i = n; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(Uniform(i));
    std::swap(out[i - 1], out[j]);
  }
}

}  // namespace gammadb
