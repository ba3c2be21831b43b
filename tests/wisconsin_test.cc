// Tests for the Wisconsin benchmark generator (§4 of the paper / [BITT83]).

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "sim/host_pool.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::wisconsin {
namespace {

using catalog::TupleView;

TEST(WisconsinTest, TupleSizeIs208Bytes) {
  const auto tuples = GenerateWisconsin(10, 1);
  ASSERT_EQ(tuples.size(), 10u);
  EXPECT_EQ(tuples[0].size(), 208u);
}

TEST(WisconsinTest, UniqueAttributesArePermutations) {
  const auto tuples = GenerateWisconsin(5000, 1);
  std::set<int32_t> u1, u2;
  for (const auto& tuple : tuples) {
    const TupleView view(&WisconsinSchema(), tuple);
    u1.insert(view.GetInt(kUnique1));
    u2.insert(view.GetInt(kUnique2));
  }
  EXPECT_EQ(u1.size(), 5000u);
  EXPECT_EQ(*u1.begin(), 0);
  EXPECT_EQ(*u1.rbegin(), 4999);
  EXPECT_EQ(u2.size(), 5000u);
}

TEST(WisconsinTest, Unique1Unique2Uncorrelated) {
  // §4: "no correlation between the values of unique1 and unique2 within a
  // single tuple". Pearson correlation should be near zero.
  const auto tuples = GenerateWisconsin(5000, 1);
  double sum1 = 0, sum2 = 0, sum12 = 0, sq1 = 0, sq2 = 0;
  for (const auto& tuple : tuples) {
    const TupleView view(&WisconsinSchema(), tuple);
    const double a = view.GetInt(kUnique1);
    const double b = view.GetInt(kUnique2);
    sum1 += a;
    sum2 += b;
    sum12 += a * b;
    sq1 += a * a;
    sq2 += b * b;
  }
  const double n = 5000;
  const double cov = sum12 / n - (sum1 / n) * (sum2 / n);
  const double var1 = sq1 / n - (sum1 / n) * (sum1 / n);
  const double var2 = sq2 / n - (sum2 / n) * (sum2 / n);
  const double corr = cov / std::sqrt(var1 * var2);
  EXPECT_LT(std::abs(corr), 0.05);
}

TEST(WisconsinTest, DerivedAttributesConsistent) {
  const auto tuples = GenerateWisconsin(1000, 2);
  for (const auto& tuple : tuples) {
    const TupleView view(&WisconsinSchema(), tuple);
    const int32_t u1 = view.GetInt(kUnique1);
    EXPECT_EQ(view.GetInt(kTwo), u1 % 2);
    EXPECT_EQ(view.GetInt(kFour), u1 % 4);
    EXPECT_EQ(view.GetInt(kTen), u1 % 10);
    EXPECT_EQ(view.GetInt(kTwenty), u1 % 20);
    EXPECT_EQ(view.GetInt(kOnePercent), u1 % 100);
    EXPECT_EQ(view.GetInt(kUnique3), u1);
    EXPECT_EQ(view.GetInt(kEvenOnePercent), (u1 % 100) * 2);
    EXPECT_EQ(view.GetInt(kOddOnePercent), (u1 % 100) * 2 + 1);
  }
}

TEST(WisconsinTest, RangePredicateSelectivityIsExact) {
  // A range [0, n*s) on unique1 selects exactly n*s tuples — the property
  // every selectivity-controlled experiment in the paper relies on.
  const auto tuples = GenerateWisconsin(10000, 3);
  int count = 0;
  for (const auto& tuple : tuples) {
    const TupleView view(&WisconsinSchema(), tuple);
    if (view.GetInt(kUnique1) < 100) ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST(WisconsinTest, SameSeedSameRelationCopies) {
  // The paper's A and B are two copies of the same relation.
  const auto a = GenerateWisconsin(500, 9);
  const auto b = GenerateWisconsin(500, 9);
  EXPECT_EQ(a, b);
  const auto c = GenerateWisconsin(500, 10);
  EXPECT_NE(a, c);
}

TEST(WisconsinTest, SmallerRelationValuesAreSubset) {
  // Bprime's unique values 0..n/10-1 are a subset of A's 0..n-1, so every
  // Bprime tuple joins exactly one A tuple (the joinABprime cardinality).
  const auto bprime = GenerateWisconsin(100, 11);
  std::set<int32_t> u2;
  for (const auto& tuple : bprime) {
    u2.insert(TupleView(&WisconsinSchema(), tuple).GetInt(kUnique2));
  }
  EXPECT_EQ(*u2.rbegin(), 99);
}

TEST(WisconsinTest, StringsHaveExpectedShape) {
  const auto tuples = GenerateWisconsin(10, 4);
  const TupleView view(&WisconsinSchema(), tuples[0]);
  EXPECT_EQ(view.GetChar(kStringU1).size(), 52u);
  EXPECT_EQ(view.GetChar(kStringU1)[7], 'x');  // 7 significant chars + fill
  EXPECT_EQ(view.GetChar(kString4).substr(4, 4), "    ");
  // string4 cycles with period 4.
  const TupleView view4(&WisconsinSchema(), tuples[4]);
  EXPECT_EQ(view.GetChar(kString4).substr(0, 4),
            view4.GetChar(kString4).substr(0, 4));
}

TEST(WisconsinTest, ZipfColumnIsDeterministicAndInDomain) {
  const ZipfColumn column{kUnique2, 1.0, 100};
  const auto a = GenerateWisconsinZipf(2000, 5, column);
  const auto b = GenerateWisconsinZipf(2000, 5, column);
  EXPECT_EQ(a, b);
  for (const auto& tuple : a) {
    const int32_t v = TupleView(&WisconsinSchema(), tuple).GetInt(kUnique2);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
  // Only the named column differs from the plain relation.
  const auto plain = GenerateWisconsin(2000, 5);
  for (size_t i = 0; i < a.size(); ++i) {
    const TupleView za(&WisconsinSchema(), a[i]);
    const TupleView pl(&WisconsinSchema(), plain[i]);
    ASSERT_EQ(za.GetInt(kUnique1), pl.GetInt(kUnique1));
    ASSERT_EQ(za.GetInt(kTen), pl.GetInt(kTen));
  }
}

TEST(WisconsinTest, ZipfThetaControlsHeadShare) {
  auto top_share = [](double theta) {
    const auto tuples =
        GenerateWisconsinZipf(20000, 5, ZipfColumn{kUnique2, theta, 100});
    std::map<int32_t, int> counts;
    for (const auto& tuple : tuples) {
      ++counts[TupleView(&WisconsinSchema(), tuple).GetInt(kUnique2)];
    }
    int top = 0;
    for (const auto& [value, count] : counts) top = std::max(top, count);
    return static_cast<double>(top) / 20000.0;
  };
  // theta=0: ~1% per value. theta=1: the head carries ~1/H(100) ≈ 19%.
  EXPECT_LT(top_share(0.0), 0.03);
  EXPECT_GT(top_share(1.0), 0.12);
}

/// FNV-1a over every tuple's bytes, in order.
uint64_t Fnv1a(const std::vector<std::vector<uint8_t>>& tuples) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& tuple : tuples) {
    for (const uint8_t byte : tuple) {
      hash = (hash ^ byte) * 0x100000001b3ULL;
    }
  }
  return hash;
}

TEST(WisconsinTest, SameBytesAtEveryHostPoolWidth) {
  sim::HostPool& pool = sim::HostPool::Instance();
  const int prev = pool.num_threads();
  pool.set_num_threads(1);
  const auto reference = GenerateWisconsin(10000, 1);
  for (const int width : {2, 3, 4}) {
    pool.set_num_threads(width);
    EXPECT_TRUE(GenerateWisconsin(10000, 1) == reference) << width;
  }
  pool.set_num_threads(prev);
  // Every paper cell loads this generator's output: a change to any byte
  // moves them all, so the bytes are pinned.
  EXPECT_EQ(Fnv1a(reference), 0x96734f629a71b28dULL);
  EXPECT_EQ(Fnv1a(GenerateWisconsin(10000, 42)), 0x14ca3cd5dd588cf5ULL);
}

}  // namespace
}  // namespace gammadb::wisconsin
