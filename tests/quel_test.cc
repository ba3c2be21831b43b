// Tests for the QUEL front end: parsing, planning onto machine queries,
// session range variables, and error reporting.

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gamma/machine.h"
#include "quel/quel.h"
#include "test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::quel {
namespace {

namespace wis = gammadb::wisconsin;

class QuelTest : public ::testing::Test {
 protected:
  QuelTest() : machine_(Config()), session_(&machine_) {
    const auto tuples = wis::GenerateWisconsin(2000, 21);
    GAMMA_CHECK(machine_
                    .CreateRelation("A", wis::WisconsinSchema(),
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    GAMMA_CHECK(machine_.LoadTuples("A", tuples).ok());
    GAMMA_CHECK(machine_
                    .CreateRelation("Bprime", wis::WisconsinSchema(),
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    GAMMA_CHECK(
        machine_.LoadTuples("Bprime", wis::GenerateWisconsin(200, 22)).ok());
  }

  static gamma::GammaConfig Config() {
    gamma::GammaConfig config;
    config.num_disk_nodes = 4;
    config.num_diskless_nodes = 4;
    return config;
  }

  gamma::GammaMachine machine_;
  Session session_;
};

TEST_F(QuelTest, RangeDeclaration) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  EXPECT_EQ(*session_.RangeOf("t"), "A");
  EXPECT_TRUE(session_.RangeOf("x").status().IsNotFound());
  EXPECT_TRUE(
      session_.Execute("range of u is NoSuch").status().IsNotFound());
}

TEST_F(QuelTest, RetrieveRangeSelection) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  const auto result = session_.Execute(
      "retrieve (t.all) where t.unique1 >= 100 and t.unique1 <= 199");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 100u);
  EXPECT_EQ(result->returned.size(), 100u);  // host-bound without 'into'
}

TEST_F(QuelTest, RetrieveIntoStoresResult) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  const auto result =
      session_.Execute("retrieve into tenpct (t.all) where t.unique1 < 200");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 200u);
  EXPECT_EQ(result->result_relation, "tenpct");
  EXPECT_EQ(*machine_.CountTuples("tenpct"), 200u);
}

// `into` resolves its name the way range declarations do (case-blind), and
// an existing relation there is refused instead of overwritten or aborted on.
TEST_F(QuelTest, RetrieveIntoExistingRelationIsAlreadyExists) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  ASSERT_TRUE(session_.Execute("range of b is Bprime").ok());
  const auto select =
      session_.Execute("retrieve into A (t.all) where t.unique1 < 200");
  EXPECT_TRUE(select.status().IsAlreadyExists()) << select.status().ToString();
  const auto join = session_.Execute(
      "retrieve into bprime (t.all, b.all) where t.unique2 = b.unique2");
  EXPECT_TRUE(join.status().IsAlreadyExists()) << join.status().ToString();
  EXPECT_EQ(*machine_.CountTuples("A"), 2000u);
  EXPECT_EQ(*machine_.CountTuples("Bprime"), 200u);
  EXPECT_EQ(machine_.catalog().Names().size(), 2u);

  ASSERT_TRUE(
      session_.Execute("retrieve into tenpct (t.all) where t.unique1 < 200")
          .ok());
  EXPECT_TRUE(
      session_.Execute("retrieve into tenpct (t.all) where t.unique1 < 100")
          .status()
          .IsAlreadyExists());
  EXPECT_EQ(*machine_.CountTuples("tenpct"), 200u);
}

// `retrieve into` a join whose result tuple no page can hold is a status,
// not an abort, and creates nothing.
TEST_F(QuelTest, RetrieveIntoOversizedJoinIsInvalidArgument) {
  ASSERT_TRUE(machine_
                  .CreateRelation(
                      "W",
                      catalog::Schema({{"key", catalog::AttrType::kInt32, 4},
                                       {"text", catalog::AttrType::kChar,
                                        2100}}),
                      catalog::PartitionSpec::Hashed(0))
                  .ok());
  std::vector<std::vector<uint8_t>> wide(3, std::vector<uint8_t>(2104, 0));
  for (uint8_t key = 0; key < 3; ++key) wide[key][0] = key;
  ASSERT_TRUE(machine_.LoadTuples("W", wide).ok());
  ASSERT_TRUE(session_.Execute("range of w is W").ok());
  ASSERT_TRUE(session_.Execute("range of v is W").ok());
  const auto join = session_.Execute(
      "retrieve into ww (w.all, v.all) where w.key = v.key");
  EXPECT_TRUE(join.status().IsInvalidArgument()) << join.status().ToString();
  EXPECT_FALSE(machine_.catalog().Contains("ww"));
  const auto returned =
      session_.Execute("retrieve (w.all, v.all) where w.key = v.key");
  ASSERT_TRUE(returned.ok()) << returned.status().ToString();
  EXPECT_EQ(returned->result_tuples, 3u);
}

TEST_F(QuelTest, ExactMatchSelection) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  const auto result =
      session_.Execute("retrieve (t.all) where t.unique2 = 55");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 1u);
}

TEST_F(QuelTest, ContradictoryClausesMatchNothing) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  const auto result = session_.Execute(
      "retrieve (t.all) where t.unique1 > 100 and t.unique1 < 50");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 0u);
}

TEST_F(QuelTest, JoinWithSelections) {
  ASSERT_TRUE(session_.Execute("range of a is A").ok());
  ASSERT_TRUE(session_.Execute("range of b is Bprime").ok());
  const auto result = session_.Execute(
      "retrieve (a.all, b.all) where a.unique2 = b.unique2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 200u);

  const auto restricted = session_.Execute(
      "retrieve (a.all, b.all) where a.unique2 = b.unique2 "
      "and b.unique2 < 100");
  ASSERT_TRUE(restricted.ok());
  EXPECT_EQ(restricted->result_tuples, 100u);
}

TEST_F(QuelTest, Aggregates) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  const auto max_result = session_.Execute("retrieve (max(t.unique1))");
  ASSERT_TRUE(max_result.ok());
  const catalog::Schema schema = exec::GroupedAggregator::ResultSchema();
  ASSERT_EQ(max_result->returned.size(), 1u);
  EXPECT_EQ(catalog::TupleView(&schema, max_result->returned[0]).GetInt(1),
            1999);

  const auto grouped =
      session_.Execute("retrieve (count(t.unique1) by t.ten)");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->returned.size(), 10u);

  const auto filtered = session_.Execute(
      "retrieve (count(t.unique1)) where t.unique1 < 500");
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(catalog::TupleView(&schema, filtered->returned[0]).GetInt(1),
            500);
}

TEST_F(QuelTest, AppendDeleteReplace) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  const auto appended =
      session_.Execute("append to A (unique1 = 9999, unique2 = 9999)");
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*machine_.CountTuples("A"), 2001u);

  const auto replaced =
      session_.Execute("replace t (ten = 7) where t.unique1 = 9999");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced->result_tuples, 1u);

  const auto deleted =
      session_.Execute("delete t where t.unique1 = 9999");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->result_tuples, 1u);
  EXPECT_EQ(*machine_.CountTuples("A"), 2000u);
}

TEST_F(QuelTest, ErrorsAreStatusesNotCrashes) {
  EXPECT_FALSE(session_.Execute("garbage statement").ok());
  EXPECT_FALSE(session_.Execute("retrieve t.all").ok());     // missing parens
  EXPECT_FALSE(session_.Execute("retrieve (x.all)").ok());   // unbound var
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  EXPECT_FALSE(
      session_.Execute("retrieve (t.all) where t.nosuch = 1").ok());
  EXPECT_FALSE(session_.Execute("delete t where t.unique1 < 100").ok());
  EXPECT_FALSE(session_.Execute("retrieve (t.unique1)").ok());  // projection
  EXPECT_FALSE(session_.Execute("retrieve (t.all) where t.unique1 @ 3").ok());
}

TEST_F(QuelTest, CompoundPredicateAcrossAttributes) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  const auto result = session_.Execute(
      "retrieve (t.all) where t.unique1 < 1000 and t.ten = 3");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 100u);  // ten == unique1 mod 10

  const auto three_way = session_.Execute(
      "retrieve (t.all) where t.unique1 >= 100 and t.unique1 < 300 "
      "and t.ten = 3 and t.unique2 >= 0");
  ASSERT_TRUE(three_way.ok());
  EXPECT_EQ(three_way->result_tuples, 20u);
}

TEST_F(QuelTest, ExplainRetrieveSelect) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  const auto result = session_.Execute(
      "explain retrieve (t.all) where t.unique1 < 200");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 200u);  // explain still executes
  EXPECT_NE(result->explain.find("select"), std::string::npos);
  EXPECT_NE(result->explain.find("estimated:"), std::string::npos);
  EXPECT_NE(result->explain.find("actual:"), std::string::npos);

  // Without the prefix the rendered plan stays empty.
  const auto plain =
      session_.Execute("retrieve (t.all) where t.unique1 < 200");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->explain.empty());
}

TEST_F(QuelTest, ExplainRetrieveJoinAndAggregate) {
  ASSERT_TRUE(session_.Execute("range of a is A").ok());
  ASSERT_TRUE(session_.Execute("range of b is Bprime").ok());
  const auto join = session_.Execute(
      "explain retrieve (a.all, b.all) where a.unique2 = b.unique2");
  ASSERT_TRUE(join.ok());
  EXPECT_NE(join->explain.find("join"), std::string::npos);
  EXPECT_NE(join->explain.find("actual:"), std::string::npos);

  const auto agg =
      session_.Execute("explain retrieve (count(a.unique1) by a.ten)");
  ASSERT_TRUE(agg.ok());
  EXPECT_NE(agg->explain.find("aggregate"), std::string::npos);
}

TEST_F(QuelTest, ExplainRejectsNonRetrieveStatements) {
  ASSERT_TRUE(session_.Execute("range of t is A").ok());
  EXPECT_TRUE(session_.Execute("explain delete t where t.unique1 = 1")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_.Execute("explain range of u is A")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(QuelTest, CaseInsensitiveKeywordsAndRelationLookup) {
  ASSERT_TRUE(session_.Execute("RANGE OF T IS a").ok());
  const auto result =
      session_.Execute("RETRIEVE (T.ALL) WHERE T.UNIQUE1 < 10");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_tuples, 10u);
}

/// Splits a statement as the QUEL lexer does: words, numbers, "<=", ">="
/// and one-character symbols.
std::vector<std::string> Tokens(const std::string& statement) {
  std::vector<std::string> tokens;
  for (size_t i = 0; i < statement.size();) {
    const auto is_word = [&](size_t k) {
      return k < statement.size() &&
             (std::isalnum(static_cast<unsigned char>(statement[k])) ||
              statement[k] == '_' || statement[k] == '-');
    };
    size_t j = i + 1;
    if (std::isspace(static_cast<unsigned char>(statement[i]))) {
      i = j;
      continue;
    }
    if (is_word(i)) {
      while (is_word(j)) ++j;
    } else if (j < statement.size() && statement[j] == '=') {
      ++j;
    }
    tokens.push_back(statement.substr(i, j - i));
    i = j;
  }
  return tokens;
}

// Seeded token mutations of the quel_session example's statements: each
// mutant drops, repeats, swaps, replaces or inserts tokens (keywords,
// attributes, symbols, out-of-range numbers) and must come back as a
// Status, never abort. The valid mutants run appends, deletes and replaces
// between retrieves, so the planner folds statistics on odd sequences.
TEST(QuelFuzzTest, TokenMutationsReturnStatuses) {
  gamma::GammaConfig config;
  config.num_disk_nodes = 4;
  config.num_diskless_nodes = 2;
  gamma::GammaMachine machine(config);
  for (const auto& [name, n, seed] :
       {std::tuple{"tenktup1", 1000u, 1u}, std::tuple{"onektup", 100u, 2u}}) {
    ASSERT_TRUE(machine
                    .CreateRelation(name, wis::WisconsinSchema(),
                                    catalog::PartitionSpec::Hashed(
                                        wis::kUnique1))
                    .ok());
    ASSERT_TRUE(
        machine.LoadTuples(name, wis::GenerateWisconsin(n, seed)).ok());
  }
  ASSERT_TRUE(machine.BuildIndex("tenktup1", wis::kUnique1, true).ok());
  const std::vector<std::string> examples = {
      "range of t is tenktup1",
      "range of s is onektup",
      "retrieve into sel1pct (t.all) where t.unique1 < 100",
      "retrieve (t.all) where t.unique2 = 4321",
      "retrieve (s.all, t.all) where s.unique2 = t.unique2",
      "retrieve (min(t.unique1))",
      "retrieve (count(t.unique1) by t.ten)",
      "append to tenktup1 (unique1 = 99999, unique2 = 99999)",
      "replace t (ten = 3) where t.unique1 = 99999",
      "delete t where t.unique1 = 99999",
  };
  std::vector<std::string> pool = {
      "99999999999999999999", "-2147483648", "2147483648", "-1", "0",
      "stringu1", "ten", "four", "unique1", "x", "explain", "or", "all",
      "max", "sum", "avg", "by", "into", "where", "and", "is", "of"};
  Session session(&machine);
  for (const std::string& statement : examples) {
    std::string joined;
    for (const std::string& token : Tokens(statement)) joined += token + " ";
    ASSERT_TRUE(session.Execute(joined).ok()) << joined;
    for (const std::string& token : Tokens(statement)) pool.push_back(token);
  }
  // A replacement keeps the token's kind (number, word or symbol), so many
  // mutants still parse and run.
  const auto kind = [](const std::string& token) {
    return std::isdigit(static_cast<unsigned char>(token.back())) ? 0
           : std::isalpha(static_cast<unsigned char>(token[0]))   ? 1
                                                                   : 2;
  };
  Rng rng(33);
  int ok = 0;
  int failed = 0;
  for (int i = 0; i < 400; ++i) {
    std::vector<std::string> tokens =
        Tokens(examples[rng.Uniform(examples.size())]);
    const auto any = [&] { return pool[rng.Uniform(pool.size())]; };
    // A third of the mutants only change constants, so they run.
    const bool constants_only = rng.Uniform(3) == 0;
    for (std::string& token : tokens) {
      if (!constants_only || kind(token) != 0 || rng.Uniform(2) == 0) continue;
      do {
        token = any();
      } while (kind(token) != 0);
    }
    const uint64_t edits = constants_only ? 0 : 1 + (rng.Uniform(4) == 0);
    for (uint64_t e = 0; e < edits; ++e) {
      const size_t at = rng.Uniform(tokens.size());
      switch (rng.Uniform(6)) {
        case 0:
          tokens.erase(tokens.begin() + at);
          break;
        case 1:
          tokens.insert(tokens.begin() + at, tokens[at]);
          break;
        case 2:
          if (at + 1 < tokens.size()) std::swap(tokens[at], tokens[at + 1]);
          break;
        case 3:
          tokens.insert(tokens.begin() + at, any());
          break;
        default:
          for (std::string token = any();; token = any()) {
            if (kind(token) == kind(tokens[at])) {
              tokens[at] = token;
              break;
            }
          }
          break;
      }
      if (tokens.empty()) tokens.push_back(any());
    }
    std::string mutant;
    for (const std::string& token : tokens) mutant += token + " ";
    const auto result = session.Execute(mutant);
    (result.ok() ? ok : failed) += 1;
  }
  EXPECT_GT(ok, 40);
  EXPECT_GT(failed, 40);
  // The planner's first reads folded statistics; later appends and
  // replaces reached them as they ran.
  EXPECT_GT(machine.stats().folds(), 0u);
}

}  // namespace
}  // namespace gammadb::quel
