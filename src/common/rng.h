#ifndef GAMMA_COMMON_RNG_H_
#define GAMMA_COMMON_RNG_H_

#include <cstdint>
#include <span>
#include <vector>

namespace gammadb {

/// \brief Deterministic pseudo-random number generator (splitmix64 core).
///
/// Every randomized component in the repository (data generation, property
/// tests, hash-function salts) draws from an explicitly seeded Rng so that
/// runs are reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next64();

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// A uniformly random permutation of 0..n-1 (Fisher-Yates).
  std::vector<uint32_t> Permutation(uint32_t n);

  /// Permutation(out.size()) written into `out`.
  void Permute(std::span<uint32_t> out);

 private:
  uint64_t state_;
};

}  // namespace gammadb

#endif  // GAMMA_COMMON_RNG_H_
