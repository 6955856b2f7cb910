#include "rewriting/cte_sql.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/strings.h"
#include "logic/query.h"
#include "rewriting/sql.h"

namespace ontorew {
namespace {

constexpr std::string_view kBasePrefix = "orw_cte_";

bool AnyPredicateStartsWith(const Vocabulary& vocab, std::string_view prefix) {
  for (PredicateId p = 0; p < vocab.num_predicates(); ++p) {
    const std::string& name = vocab.PredicateName(p);
    if (name.size() >= prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix) {
      return true;
    }
  }
  return false;
}

// `selects` in consecutive groups of at most `width`, each joined by UNION.
std::vector<std::string> UnionGroups(const std::vector<std::string>& selects,
                                     std::size_t width) {
  std::vector<std::string> groups;
  for (std::size_t first = 0; first < selects.size(); first += width) {
    const std::size_t size = std::min(width, selects.size() - first);
    groups.push_back(
        StrJoin(std::span(selects).subspan(first, size), "\nUNION\n"));
  }
  return groups;
}

// `selects` joined by UNION such that no compound SELECT has more than
// `limit` arms (no cap when limit <= 0): a wider union nests as
// `SELECT * FROM (arms 1..L) UNION SELECT * FROM (arms L+1..2L) ...`,
// level by level until the top fits. A limit of 1 admits no union at
// all, so nesting proceeds in pairs and the engine rejects the result.
std::string NestedUnion(std::vector<std::string> selects, int limit) {
  const std::size_t width = static_cast<std::size_t>(std::max(limit, 2));
  while (limit > 0 && selects.size() > width) {
    selects = UnionGroups(selects, width);
    for (std::string& group : selects) {
      group = StrCat("SELECT * FROM (\n", group, "\n)");
    }
  }
  return StrJoin(selects, "\nUNION\n");
}

}  // namespace

std::string CtePrefixFor(const Vocabulary& vocab) {
  // CTE names shadow tables in SQLite, so a user predicate that happens
  // to be named like one of our CTEs would silently change the query's
  // meaning. Any prefix no predicate name starts with is safe.
  if (!AnyPredicateStartsWith(vocab, kBasePrefix)) {
    return std::string(kBasePrefix);
  }
  for (int salt = 0;; ++salt) {
    std::string prefix = StrCat("orw_cte", salt, "_");
    if (!AnyPredicateStartsWith(vocab, prefix)) return prefix;
  }
}

StatusOr<std::vector<std::string>> DatalogToCteSqlStatements(
    const DatalogProgram& program, const Vocabulary& vocab,
    int max_compound_select) {
  OREW_RETURN_IF_ERROR(program.Validate());
  // Only aux predicates resolve to CTE names; a UCQ needs no prefix.
  const std::string prefix =
      program.aux.empty() ? std::string() : CtePrefixFor(vocab);
  SqlTableResolver resolver = [&prefix, &vocab](PredicateId p) {
    if (IsAuxPredicate(p)) {
      return SqlIdentifier(StrCat(prefix, AuxIndex(p)));
    }
    return SqlIdentifier(vocab.PredicateName(p));
  };
  auto rule_selects = [&](const std::vector<DatalogRule>& rules) {
    std::vector<std::string> selects;
    selects.reserve(rules.size());
    for (const DatalogRule& rule : rules) {
      selects.push_back(
          RuleToSqlResolved(rule.head, rule.body, vocab, resolver));
    }
    return selects;
  };

  std::string with;
  for (std::size_t k = 0; k < program.aux.size(); ++k) {
    const DatalogAux& aux = program.aux[k];
    std::vector<std::string> columns;
    for (int j = 0; j < aux.arity; ++j) columns.push_back(StrCat("c", j + 1));
    // A 0-ary aux still needs one declared column to match its rules'
    // boolean `SELECT DISTINCT 1 AS a1` shape — same sentinel-column
    // convention as TableToSql, and nothing ever reads it.
    if (columns.empty()) columns.push_back("c0");
    with += k == 0 ? "WITH " : ",\n";
    with += StrCat(SqlIdentifier(StrCat(prefix, k)), "(",
                   StrJoin(columns, ", "), ") AS (\n",
                   NestedUnion(rule_selects(aux.rules), max_compound_select),
                   "\n)");
  }
  if (!program.aux.empty()) with += '\n';

  const std::vector<std::string> selects = rule_selects(program.output);
  std::vector<std::string> statements = UnionGroups(
      selects, max_compound_select > 0
                   ? static_cast<std::size_t>(max_compound_select)
                   : selects.size());
  for (std::string& statement : statements) statement.insert(0, with);
  return statements;
}

StatusOr<std::string> DatalogToCteSql(const DatalogProgram& program,
                                      const Vocabulary& vocab) {
  OREW_ASSIGN_OR_RETURN(std::vector<std::string> statements,
                        DatalogToCteSqlStatements(program, vocab, 0));
  return std::move(statements.front());
}

}  // namespace ontorew
