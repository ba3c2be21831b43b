#ifndef GAMMA_WISCONSIN_WISCONSIN_H_
#define GAMMA_WISCONSIN_WISCONSIN_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"

namespace gammadb::wisconsin {

/// Attribute indices of the standard Wisconsin benchmark relation [BITT83]:
/// thirteen 4-byte integers followed by three 52-byte strings (208 bytes).
enum WisconsinAttr : int {
  kUnique1 = 0,        // 0..n-1, random order; the key/partitioning attribute
  kUnique2,            // 0..n-1, uncorrelated with unique1
  kTwo,                // unique1 mod 2
  kFour,               // unique1 mod 4
  kTen,                // unique1 mod 10
  kTwenty,             // unique1 mod 20
  kOnePercent,         // unique1 mod 100
  kTenPercent,         // unique1 mod 10
  kTwentyPercent,      // unique1 mod 5
  kFiftyPercent,       // unique1 mod 2
  kUnique3,            // == unique1
  kEvenOnePercent,     // onePercent * 2
  kOddOnePercent,      // onePercent * 2 + 1
  kStringU1,           // 52-char string derived from unique1
  kStringU2,           // 52-char string derived from unique2
  kString4,            // cycles through four fixed strings
  kNumWisconsinAttrs,
};

/// The 208-byte Wisconsin schema (13 int attributes + 3 char(52)).
const catalog::Schema& WisconsinSchema();

/// \brief Generates an n-tuple Wisconsin relation.
///
/// unique1 and unique2 are independent random permutations of 0..n-1 drawn
/// from `seed`, guaranteeing uniqueness and no correlation (paper §4). Two
/// "copies" of a relation (the paper's A and B) are produced by calling this
/// twice with the same arguments.
std::vector<std::vector<uint8_t>> GenerateWisconsin(uint32_t n, uint64_t seed);

/// One integer column redrawn from a Zipfian distribution (skew workloads).
struct ZipfColumn {
  /// Which int attribute to overwrite.
  int attr = kUnique2;
  /// Skew parameter: rank r (0-based) has probability ∝ 1/(r+1)^theta.
  /// theta = 0 is uniform; theta = 1 gives the classic harmonic head where
  /// the top value carries ~1/H(domain) of all tuples.
  double theta = 1.0;
  /// Values are drawn from [0, domain); 0 means use n.
  uint32_t domain = 0;
};

/// \brief Standard Wisconsin relation with `column.attr` replaced by values
/// drawn Zipfian(theta) over [0, domain).
///
/// Ranks map to values through a seeded permutation of the domain, so the
/// heavy hitters are scattered across the value space instead of always
/// being 0, 1, 2, .... Fully deterministic in (n, seed, column).
std::vector<std::vector<uint8_t>> GenerateWisconsinZipf(
    uint32_t n, uint64_t seed, const ZipfColumn& column);

}  // namespace gammadb::wisconsin

#endif  // GAMMA_WISCONSIN_WISCONSIN_H_
