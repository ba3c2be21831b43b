#include "wisconsin/wisconsin.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "common/rng.h"
#include "sim/host_pool.h"

namespace gammadb::wisconsin {

const catalog::Schema& WisconsinSchema() {
  static const catalog::Schema* schema = new catalog::Schema({
      {"unique1", catalog::AttrType::kInt32, 4},
      {"unique2", catalog::AttrType::kInt32, 4},
      {"two", catalog::AttrType::kInt32, 4},
      {"four", catalog::AttrType::kInt32, 4},
      {"ten", catalog::AttrType::kInt32, 4},
      {"twenty", catalog::AttrType::kInt32, 4},
      {"onePercent", catalog::AttrType::kInt32, 4},
      {"tenPercent", catalog::AttrType::kInt32, 4},
      {"twentyPercent", catalog::AttrType::kInt32, 4},
      {"fiftyPercent", catalog::AttrType::kInt32, 4},
      {"unique3", catalog::AttrType::kInt32, 4},
      {"evenOnePercent", catalog::AttrType::kInt32, 4},
      {"oddOnePercent", catalog::AttrType::kInt32, 4},
      {"stringu1", catalog::AttrType::kChar, 52},
      {"stringu2", catalog::AttrType::kChar, 52},
      {"string4", catalog::AttrType::kChar, 52},
  });
  return *schema;
}

namespace {

/// Writes the seven significant characters of the benchmark's 52-character
/// string for a value (its base-26 digits) into `field`; the 'x' padding
/// after them is the caller's.
void WriteString(uint32_t value, char* field) {
  for (int pos = 6; pos >= 0; --pos) {
    field[pos] = static_cast<char>('A' + value % 26);
    value /= 26;
  }
}

constexpr const char* kString4Cycle[4] = {"AAAA", "HHHH", "OOOO", "VVVV"};

}  // namespace

std::vector<std::vector<uint8_t>> GenerateWisconsin(uint32_t n,
                                                    uint64_t seed) {
  // The two permutations draw from independent streams, so they are built
  // side by side; every tuple then depends only on its position, so the
  // pool's threads build contiguous ranges of them. The output does not
  // depend on the pool width.
  std::vector<uint32_t> unique1(n);
  std::vector<uint32_t> unique2(n);
  sim::HostPool& pool = sim::HostPool::Instance();
  pool.RunAll({[&] { Rng(seed).Permute(unique1); },
               [&] { Rng(seed ^ 0x5EED5EEDULL).Permute(unique2); }});

  // The tuples are allocated here, in order, on the calling thread; the
  // pool threads only fill them. (Tuples a pool thread allocates live in
  // its own malloc arena, and the statements run on the relation later
  // measured slower.)
  const catalog::Schema& schema = WisconsinSchema();
  std::vector<std::vector<uint8_t>> tuples(
      n, std::vector<uint8_t>(schema.tuple_size()));
  pool.RunChunks(
      n, static_cast<size_t>(pool.num_threads()),
      [&](size_t, size_t begin, size_t end) {
        catalog::TupleBuilder builder(&schema);
        char u1_string[52];
        char u2_string[52];
        std::memset(u1_string, 'x', sizeof(u1_string));
        std::memset(u2_string, 'x', sizeof(u2_string));
        for (size_t i = begin; i < end; ++i) {
          const int32_t u1 = static_cast<int32_t>(unique1[i]);
          const int32_t u2 = static_cast<int32_t>(unique2[i]);
          builder.SetInt(kUnique1, u1);
          builder.SetInt(kUnique2, u2);
          builder.SetInt(kTwo, u1 % 2);
          builder.SetInt(kFour, u1 % 4);
          builder.SetInt(kTen, u1 % 10);
          builder.SetInt(kTwenty, u1 % 20);
          builder.SetInt(kOnePercent, u1 % 100);
          builder.SetInt(kTenPercent, u1 % 10);
          builder.SetInt(kTwentyPercent, u1 % 5);
          builder.SetInt(kFiftyPercent, u1 % 2);
          builder.SetInt(kUnique3, u1);
          builder.SetInt(kEvenOnePercent, (u1 % 100) * 2);
          builder.SetInt(kOddOnePercent, (u1 % 100) * 2 + 1);
          WriteString(unique1[i], u1_string);
          WriteString(unique2[i], u2_string);
          builder.SetChar(kStringU1, {u1_string, sizeof(u1_string)});
          builder.SetChar(kStringU2, {u2_string, sizeof(u2_string)});
          builder.SetChar(kString4, kString4Cycle[i % 4]);
          std::ranges::copy(builder.bytes(), tuples[i].begin());
        }
      });
  return tuples;
}

std::vector<std::vector<uint8_t>> GenerateWisconsinZipf(
    uint32_t n, uint64_t seed, const ZipfColumn& column) {
  const catalog::Schema& schema = WisconsinSchema();
  GAMMA_CHECK(column.attr >= 0 &&
              static_cast<size_t>(column.attr) < schema.num_attrs());
  GAMMA_CHECK(schema.attr(static_cast<size_t>(column.attr)).type ==
              catalog::AttrType::kInt32);
  GAMMA_CHECK(column.theta >= 0);
  const uint32_t domain = column.domain == 0 ? n : column.domain;
  GAMMA_CHECK(domain > 0);

  std::vector<std::vector<uint8_t>> tuples = GenerateWisconsin(n, seed);

  // CDF over ranks: P(rank r) ∝ 1/(r+1)^theta.
  std::vector<double> cdf(domain);
  double total = 0;
  for (uint32_t r = 0; r < domain; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, column.theta);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  Rng rng(seed ^ 0x21BF0C1DULL);
  const std::vector<uint32_t> rank_to_value = rng.Permutation(domain);
  const uint32_t offset = schema.offset(static_cast<size_t>(column.attr));
  for (std::vector<uint8_t>& tuple : tuples) {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const size_t rank = std::min<size_t>(
        static_cast<size_t>(it - cdf.begin()), domain - 1);
    const int32_t value = static_cast<int32_t>(rank_to_value[rank]);
    std::memcpy(tuple.data() + offset, &value, sizeof(value));
  }
  return tuples;
}

}  // namespace gammadb::wisconsin
