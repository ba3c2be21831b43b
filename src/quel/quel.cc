#include "quel/quel.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/macros.h"
#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "obs/profile.h"
#include "opt/explain.h"
#include "opt/planner.h"

namespace gammadb::quel {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

std::string Lower(std::string word) {
  std::transform(word.begin(), word.end(), word.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  return word;
}

/// The catalog's spelling of relation name `lowered`: the lexer lower-cases
/// identifiers but catalog names are case-sensitive. `lowered` itself when
/// no relation matches.
std::string CatalogName(const catalog::Catalog& catalog,
                        const std::string& lowered) {
  std::string actual = lowered;
  for (const std::string& name : catalog.Names()) {
    if (Lower(name) == lowered) actual = name;
  }
  return actual;
}

enum class TokKind { kIdent, kNumber, kSymbol, kEnd };

struct Token {
  TokKind kind;
  std::string text;  // lower-cased for identifiers
  int32_t number = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    size_t i = 0;
    while (i < input_.size()) {
      const char c = input_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[j])) ||
                input_[j] == '_')) {
          ++j;
        }
        tokens.push_back(Token{TokKind::kIdent,
                               Lower(std::string(input_.substr(i, j - i)))});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[i + 1])))) {
        size_t j = i + 1;
        while (j < input_.size() &&
               std::isdigit(static_cast<unsigned char>(input_[j]))) {
          ++j;
        }
        Token token{TokKind::kNumber, std::string(input_.substr(i, j - i))};
        if (std::from_chars(token.text.data(),
                            token.text.data() + token.text.size(),
                            token.number)
                .ec != std::errc()) {
          return Status::InvalidArgument("number out of range: " +
                                         token.text);
        }
        tokens.push_back(std::move(token));
        i = j;
        continue;
      }
      if (c == '<' || c == '>') {
        if (i + 1 < input_.size() && input_[i + 1] == '=') {
          tokens.push_back(Token{TokKind::kSymbol,
                                 std::string(input_.substr(i, 2))});
          i += 2;
          continue;
        }
      }
      if (std::string("=<>().,").find(c) != std::string::npos) {
        tokens.push_back(Token{TokKind::kSymbol, std::string(1, c)});
        ++i;
        continue;
      }
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "'");
    }
    tokens.push_back(Token{TokKind::kEnd, ""});
    return tokens;
  }

 private:
  std::string_view input_;
};

// ---------------------------------------------------------------------------
// Parser state + helpers
// ---------------------------------------------------------------------------

class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  Token Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }

  bool ConsumeIdent(std::string_view word) {
    if (Peek().kind == TokKind::kIdent && Peek().text == word) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeSymbol(std::string_view sym) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }
  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument(std::string("expected ") + what);
    }
    return Next().text;
  }
  Result<int32_t> ExpectNumber() {
    if (Peek().kind != TokKind::kNumber) {
      return Status::InvalidArgument("expected a number");
    }
    return Next().number;
  }
  Status ExpectSymbol(std::string_view sym) {
    if (!ConsumeSymbol(sym)) {
      return Status::InvalidArgument("expected '" + std::string(sym) + "'");
    }
    return Status::OK();
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// One where-clause comparison: var.attr OP (number | var.attr).
struct Comparison {
  std::string left_var;
  std::string left_attr;
  std::string op;
  bool rhs_is_attr = false;
  std::string right_var;
  std::string right_attr;
  int32_t value = 0;
};

/// var.attr reference.
struct AttrRef {
  std::string var;
  std::string attr;  // "all" for t.all
};

Result<AttrRef> ParseAttrRef(Cursor& cursor) {
  GAMMA_ASSIGN_OR_RETURN(std::string var, cursor.ExpectIdent("range variable"));
  GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol("."));
  GAMMA_ASSIGN_OR_RETURN(std::string attr,
                         cursor.ExpectIdent("attribute name"));
  return AttrRef{std::move(var), std::move(attr)};
}

Result<std::vector<Comparison>> ParseWhere(Cursor& cursor) {
  std::vector<Comparison> comparisons;
  if (!cursor.ConsumeIdent("where")) return comparisons;
  for (;;) {
    Comparison cmp;
    GAMMA_ASSIGN_OR_RETURN(AttrRef lhs, ParseAttrRef(cursor));
    cmp.left_var = lhs.var;
    cmp.left_attr = lhs.attr;
    if (cursor.Peek().kind != TokKind::kSymbol) {
      return Status::InvalidArgument("expected a comparison operator");
    }
    cmp.op = cursor.Next().text;
    if (cmp.op != "=" && cmp.op != "<" && cmp.op != "<=" && cmp.op != ">" &&
        cmp.op != ">=") {
      return Status::InvalidArgument("unsupported operator " + cmp.op);
    }
    if (cursor.Peek().kind == TokKind::kNumber) {
      cmp.value = *cursor.ExpectNumber();
    } else {
      GAMMA_ASSIGN_OR_RETURN(AttrRef rhs, ParseAttrRef(cursor));
      cmp.rhs_is_attr = true;
      cmp.right_var = rhs.var;
      cmp.right_attr = rhs.attr;
    }
    comparisons.push_back(std::move(cmp));
    if (!cursor.ConsumeIdent("and")) break;
  }
  return comparisons;
}

/// Folds the single-variable comparisons of `var` into one predicate:
/// comparisons on each attribute intersect into an inclusive window, and
/// windows over distinct attributes combine with Predicate::And.
Result<exec::Predicate> FoldPredicate(
    const std::vector<Comparison>& comparisons, const std::string& var,
    const catalog::Schema& schema) {
  // Windows in declaration order (deterministic EXPLAIN output).
  std::vector<int> attrs;
  std::map<int, std::pair<int64_t, int64_t>> windows;
  for (const Comparison& cmp : comparisons) {
    if (cmp.rhs_is_attr || cmp.left_var != var) continue;
    const auto index = schema.IndexOf(cmp.left_attr);
    if (!index.has_value()) {
      return Status::InvalidArgument("unknown attribute " + cmp.left_attr);
    }
    const int attr = static_cast<int>(*index);
    if (windows.find(attr) == windows.end()) {
      attrs.push_back(attr);
      windows[attr] = {std::numeric_limits<int32_t>::min(),
                       std::numeric_limits<int32_t>::max()};
    }
    auto& [lo, hi] = windows[attr];
    if (cmp.op == "=") {
      lo = std::max<int64_t>(lo, cmp.value);
      hi = std::min<int64_t>(hi, cmp.value);
    } else if (cmp.op == "<") {
      hi = std::min<int64_t>(hi, static_cast<int64_t>(cmp.value) - 1);
    } else if (cmp.op == "<=") {
      hi = std::min<int64_t>(hi, cmp.value);
    } else if (cmp.op == ">") {
      lo = std::max<int64_t>(lo, static_cast<int64_t>(cmp.value) + 1);
    } else {  // >=
      lo = std::max<int64_t>(lo, cmp.value);
    }
  }
  std::vector<exec::Predicate> terms;
  for (const int attr : attrs) {
    const auto [lo, hi] = windows[attr];
    if (lo > hi) {
      // Contradictory clauses: feed And two disjoint equalities so the
      // intersection is an empty window (a predicate matching nothing).
      terms.push_back(exec::Predicate::And(
          {exec::Predicate::Eq(attr, 0), exec::Predicate::Eq(attr, 1)}));
      continue;
    }
    if (lo == std::numeric_limits<int32_t>::min() &&
        hi == std::numeric_limits<int32_t>::max()) {
      continue;  // vacuous
    }
    if (lo == hi) {
      terms.push_back(exec::Predicate::Eq(attr, static_cast<int32_t>(lo)));
    } else {
      terms.push_back(exec::Predicate::Range(attr, static_cast<int32_t>(lo),
                                             static_cast<int32_t>(hi)));
    }
  }
  return exec::Predicate::And(std::move(terms));
}

std::optional<exec::AggFunc> AggFuncByName(const std::string& name) {
  if (name == "count") return exec::AggFunc::kCount;
  if (name == "sum") return exec::AggFunc::kSum;
  if (name == "min") return exec::AggFunc::kMin;
  if (name == "max") return exec::AggFunc::kMax;
  if (name == "avg") return exec::AggFunc::kAvg;
  return std::nullopt;
}

/// `explain profile`: derives the observability profile from the finished
/// metrics (works whether or not the machine ran with tracing enabled — the
/// profile is a pure function of the metrics), appends the rendered
/// breakdown to the explain text and attaches the structured form.
void AppendProfile(const gamma::GammaMachine& machine, const char* label,
                   exec::QueryResult* result) {
  auto profile = std::make_shared<const obs::Profile>(
      obs::BuildProfile("gamma", label, result->metrics,
                        machine.config().hw.net.ring_bytes_per_sec));
  result->explain += "\n" + obs::RenderProfile(*profile);
  result->profile = std::move(profile);
}

/// `explain journal`: appends the tail of the machine's flight recorder
/// (the most recent events across all node rings, canonically merged) to
/// the explain text — the statement just executed is the last entry.
constexpr size_t kExplainJournalTail = 32;

void AppendJournal(const gamma::GammaMachine& machine,
                   exec::QueryResult* result) {
  result->explain += "\n" + machine.journal().RenderText(kExplainJournalTail);
}

}  // namespace

Session::Session(gamma::GammaMachine* machine) : machine_(machine) {
  GAMMA_CHECK(machine != nullptr);
}

Result<std::string> Session::RangeOf(const std::string& var) const {
  auto it = range_vars_.find(var);
  if (it == range_vars_.end()) {
    return Status::NotFound("no range declaration for " + var);
  }
  return it->second;
}

Result<exec::QueryResult> Session::Execute(std::string_view statement) {
  GAMMA_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                         Lexer(statement).Tokenize());
  Cursor cursor(std::move(tokens));

  // explain retrieve ... — run the planned query and attach the plan tree
  // (estimated costs alongside the measured actuals) to the result.
  // explain profile retrieve ... — additionally attach the observability
  // profile (per-phase device breakdown, utilization fractions, critical
  // resource) and its span hierarchy.
  const bool explain = cursor.ConsumeIdent("explain");
  const bool profile = explain && cursor.ConsumeIdent("profile");
  // explain journal retrieve ... — additionally append the flight
  // recorder's tail (recent journal events, canonically merged).
  const bool journal = explain && !profile && cursor.ConsumeIdent("journal");
  if (explain && !(cursor.Peek().kind == TokKind::kIdent &&
                   cursor.Peek().text == "retrieve")) {
    return Status::InvalidArgument(
        profile   ? "explain profile supports retrieve statements only"
        : journal ? "explain journal supports retrieve statements only"
                  : "explain supports retrieve statements only");
  }

  // range of t is A
  if (cursor.ConsumeIdent("range")) {
    if (!cursor.ConsumeIdent("of")) {
      return Status::InvalidArgument("expected 'range of <var> is <rel>'");
    }
    GAMMA_ASSIGN_OR_RETURN(std::string var,
                           cursor.ExpectIdent("range variable"));
    if (!cursor.ConsumeIdent("is")) {
      return Status::InvalidArgument("expected 'is'");
    }
    if (cursor.Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected a relation name");
    }
    const std::string lowered = cursor.Next().text;
    const std::string actual = CatalogName(machine_->catalog(), lowered);
    if (!machine_->catalog().Contains(actual)) {
      return Status::NotFound("relation " + lowered);
    }
    range_vars_[var] = actual;
    return exec::QueryResult{};
  }

  // append to REL (attr = value, ...)
  if (cursor.ConsumeIdent("append")) {
    if (!cursor.ConsumeIdent("to")) {
      return Status::InvalidArgument("expected 'append to <rel> (...)'");
    }
    GAMMA_ASSIGN_OR_RETURN(const std::string lowered,
                           cursor.ExpectIdent("relation name"));
    const std::string relation = CatalogName(machine_->catalog(), lowered);
    GAMMA_ASSIGN_OR_RETURN(const catalog::RelationMeta* meta,
                           machine_->catalog().Get(relation));
    catalog::TupleBuilder builder(&meta->schema);
    GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol("("));
    for (;;) {
      GAMMA_ASSIGN_OR_RETURN(std::string attr,
                             cursor.ExpectIdent("attribute"));
      GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol("="));
      GAMMA_ASSIGN_OR_RETURN(int32_t value, cursor.ExpectNumber());
      const auto index = meta->schema.IndexOf(attr);
      if (!index.has_value()) {
        return Status::InvalidArgument("unknown attribute " + attr);
      }
      builder.SetInt(*index, value);
      if (!cursor.ConsumeSymbol(",")) break;
    }
    GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol(")"));
    gamma::AppendQuery query;
    query.relation = relation;
    query.tuple.assign(builder.bytes().begin(), builder.bytes().end());
    return machine_->RunAppend(query);
  }

  // delete t where ...
  if (cursor.ConsumeIdent("delete")) {
    GAMMA_ASSIGN_OR_RETURN(std::string var,
                           cursor.ExpectIdent("range variable"));
    GAMMA_ASSIGN_OR_RETURN(std::string relation, RangeOf(var));
    GAMMA_ASSIGN_OR_RETURN(std::vector<Comparison> where, ParseWhere(cursor));
    GAMMA_ASSIGN_OR_RETURN(const catalog::RelationMeta* meta,
                           machine_->catalog().Get(relation));
    GAMMA_ASSIGN_OR_RETURN(exec::Predicate pred,
                           FoldPredicate(where, var, meta->schema));
    if (!pred.is_eq()) {
      return Status::NotImplemented("delete requires an exact-match clause");
    }
    gamma::DeleteQuery query;
    query.relation = relation;
    query.key_attr = pred.attr();
    query.key = pred.lo();
    return machine_->RunDelete(query);
  }

  // replace t (attr = value) where ...
  if (cursor.ConsumeIdent("replace")) {
    GAMMA_ASSIGN_OR_RETURN(std::string var,
                           cursor.ExpectIdent("range variable"));
    GAMMA_ASSIGN_OR_RETURN(std::string relation, RangeOf(var));
    GAMMA_ASSIGN_OR_RETURN(const catalog::RelationMeta* meta,
                           machine_->catalog().Get(relation));
    GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol("("));
    GAMMA_ASSIGN_OR_RETURN(std::string attr, cursor.ExpectIdent("attribute"));
    GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol("="));
    GAMMA_ASSIGN_OR_RETURN(int32_t value, cursor.ExpectNumber());
    GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol(")"));
    GAMMA_ASSIGN_OR_RETURN(std::vector<Comparison> where, ParseWhere(cursor));
    GAMMA_ASSIGN_OR_RETURN(exec::Predicate pred,
                           FoldPredicate(where, var, meta->schema));
    if (!pred.is_eq()) {
      return Status::NotImplemented("replace requires an exact-match clause");
    }
    const auto target = meta->schema.IndexOf(attr);
    if (!target.has_value()) {
      return Status::InvalidArgument("unknown attribute " + attr);
    }
    gamma::ModifyQuery query;
    query.relation = relation;
    query.locate_attr = pred.attr();
    query.locate_key = pred.lo();
    query.target_attr = static_cast<int>(*target);
    query.new_value = value;
    return machine_->RunModify(query);
  }

  // retrieve [into R] (targets) [where ...]
  if (!cursor.ConsumeIdent("retrieve")) {
    return Status::InvalidArgument("unrecognized statement");
  }
  std::string into;
  bool store = false;
  if (cursor.ConsumeIdent("into")) {
    GAMMA_ASSIGN_OR_RETURN(into, cursor.ExpectIdent("result relation name"));
    into = CatalogName(machine_->catalog(), into);
    store = true;
  }
  GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol("("));

  // Aggregate target: func(t.attr) [by t.group]
  if (cursor.Peek().kind == TokKind::kIdent &&
      AggFuncByName(cursor.Peek().text).has_value()) {
    const exec::AggFunc func = *AggFuncByName(cursor.Next().text);
    GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol("("));
    GAMMA_ASSIGN_OR_RETURN(AttrRef value_ref, ParseAttrRef(cursor));
    GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol(")"));
    int group_attr = -1;
    GAMMA_ASSIGN_OR_RETURN(std::string relation, RangeOf(value_ref.var));
    GAMMA_ASSIGN_OR_RETURN(const catalog::RelationMeta* meta,
                           machine_->catalog().Get(relation));
    if (cursor.ConsumeIdent("by")) {
      GAMMA_ASSIGN_OR_RETURN(AttrRef group_ref, ParseAttrRef(cursor));
      const auto index = meta->schema.IndexOf(group_ref.attr);
      if (!index.has_value()) {
        return Status::InvalidArgument("unknown attribute " +
                                       group_ref.attr);
      }
      group_attr = static_cast<int>(*index);
    }
    GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol(")"));
    GAMMA_ASSIGN_OR_RETURN(std::vector<Comparison> where, ParseWhere(cursor));
    const auto value_index = meta->schema.IndexOf(value_ref.attr);
    if (!value_index.has_value()) {
      return Status::InvalidArgument("unknown attribute " + value_ref.attr);
    }
    gamma::AggregateQuery query;
    query.relation = relation;
    query.group_attr = group_attr;
    query.value_attr = static_cast<int>(*value_index);
    query.func = func;
    GAMMA_ASSIGN_OR_RETURN(query.predicate,
                           FoldPredicate(where, value_ref.var, meta->schema));
    const opt::Planner planner(*machine_);
    GAMMA_ASSIGN_OR_RETURN(const opt::PlannedAggregate planned,
                           planner.PlanAggregate(query));
    GAMMA_ASSIGN_OR_RETURN(exec::QueryResult result,
                           machine_->RunAggregate(planned.query));
    if (explain) {
      result.explain = opt::RenderPlanWithActuals(planned.plan, result);
      if (profile) AppendProfile(*machine_, "aggregate", &result);
      if (journal) AppendJournal(*machine_, &result);
    }
    return result;
  }

  // Projection targets: t.all or a.all, b.all
  GAMMA_ASSIGN_OR_RETURN(AttrRef first, ParseAttrRef(cursor));
  if (first.attr != "all") {
    return Status::NotImplemented("only '.all' target lists are supported");
  }
  std::vector<std::string> vars = {first.var};
  while (cursor.ConsumeSymbol(",")) {
    GAMMA_ASSIGN_OR_RETURN(AttrRef next, ParseAttrRef(cursor));
    if (next.attr != "all") {
      return Status::NotImplemented("only '.all' target lists are supported");
    }
    vars.push_back(next.var);
  }
  GAMMA_RETURN_NOT_OK(cursor.ExpectSymbol(")"));
  GAMMA_ASSIGN_OR_RETURN(std::vector<Comparison> where, ParseWhere(cursor));

  if (vars.size() == 1) {
    GAMMA_ASSIGN_OR_RETURN(std::string relation, RangeOf(vars[0]));
    GAMMA_ASSIGN_OR_RETURN(const catalog::RelationMeta* meta,
                           machine_->catalog().Get(relation));
    gamma::SelectQuery query;
    query.relation = relation;
    GAMMA_ASSIGN_OR_RETURN(query.predicate,
                           FoldPredicate(where, vars[0], meta->schema));
    query.store_result = store;
    query.result_name = into;
    // Optimizer-planned: the cost model picks the access path.
    const opt::Planner planner(*machine_);
    GAMMA_ASSIGN_OR_RETURN(const opt::PlannedSelect planned,
                           planner.PlanSelect(query));
    GAMMA_ASSIGN_OR_RETURN(exec::QueryResult result,
                           machine_->RunSelect(planned.query));
    if (explain) {
      result.explain = opt::RenderPlanWithActuals(planned.plan, result);
      if (profile) AppendProfile(*machine_, "select", &result);
      if (journal) AppendJournal(*machine_, &result);
    }
    return result;
  }
  if (vars.size() != 2) {
    return Status::NotImplemented("at most two range variables per query");
  }

  // Join: exactly one var-to-var equality in the where-clause.
  const Comparison* join_cmp = nullptr;
  for (const Comparison& cmp : where) {
    if (!cmp.rhs_is_attr) continue;
    if (join_cmp != nullptr) {
      return Status::NotImplemented("exactly one join clause is supported");
    }
    if (cmp.op != "=") {
      return Status::NotImplemented("only equijoins are supported");
    }
    join_cmp = &cmp;
  }
  if (join_cmp == nullptr) {
    return Status::NotImplemented(
        "two range variables require a join clause");
  }
  // Map the join clause onto (outer=vars[0], inner=vars[1]).
  std::string outer_attr_name, inner_attr_name;
  if (join_cmp->left_var == vars[0] && join_cmp->right_var == vars[1]) {
    outer_attr_name = join_cmp->left_attr;
    inner_attr_name = join_cmp->right_attr;
  } else if (join_cmp->left_var == vars[1] &&
             join_cmp->right_var == vars[0]) {
    inner_attr_name = join_cmp->left_attr;
    outer_attr_name = join_cmp->right_attr;
  } else {
    return Status::InvalidArgument("join clause references unknown variables");
  }
  GAMMA_ASSIGN_OR_RETURN(std::string outer_rel, RangeOf(vars[0]));
  GAMMA_ASSIGN_OR_RETURN(std::string inner_rel, RangeOf(vars[1]));
  GAMMA_ASSIGN_OR_RETURN(const catalog::RelationMeta* outer_meta,
                         machine_->catalog().Get(outer_rel));
  GAMMA_ASSIGN_OR_RETURN(const catalog::RelationMeta* inner_meta,
                         machine_->catalog().Get(inner_rel));
  const auto outer_attr = outer_meta->schema.IndexOf(outer_attr_name);
  const auto inner_attr = inner_meta->schema.IndexOf(inner_attr_name);
  if (!outer_attr.has_value() || !inner_attr.has_value()) {
    return Status::InvalidArgument("unknown join attribute");
  }
  gamma::JoinQuery query;
  query.outer = outer_rel;
  query.inner = inner_rel;
  query.outer_attr = static_cast<int>(*outer_attr);
  query.inner_attr = static_cast<int>(*inner_attr);
  GAMMA_ASSIGN_OR_RETURN(query.outer_pred,
                         FoldPredicate(where, vars[0], outer_meta->schema));
  GAMMA_ASSIGN_OR_RETURN(query.inner_pred,
                         FoldPredicate(where, vars[1], inner_meta->schema));
  query.store_result = store;
  query.result_name = into;
  // Optimizer-planned: the cost model picks join algorithm and site.
  const opt::Planner planner(*machine_);
  GAMMA_ASSIGN_OR_RETURN(const opt::PlannedJoin planned,
                         planner.PlanJoin(query));
  GAMMA_ASSIGN_OR_RETURN(exec::QueryResult result,
                         machine_->RunJoin(planned.query));
  if (explain) {
    result.explain = opt::RenderPlanWithActuals(planned.plan, result);
    if (profile) AppendProfile(*machine_, "join", &result);
    if (journal) AppendJournal(*machine_, &result);
  }
  return result;
}

}  // namespace gammadb::quel
