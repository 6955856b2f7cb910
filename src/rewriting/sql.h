#ifndef ONTOREW_REWRITING_SQL_H_
#define ONTOREW_REWRITING_SQL_H_

#include <functional>
#include <string>
#include <string_view>

#include "base/status.h"
#include "logic/program.h"
#include "logic/query.h"
#include "logic/vocabulary.h"

// Rendering of UCQs as SQL — the paper's destination format ("a
// conjunctive query over an ontology can be rewritten as an equivalent
// SQL query over the original database", Section 1). Each predicate p of
// arity k maps to a table "p" with columns c1..ck; each CQ becomes a
// SELECT DISTINCT over a comma join with equality predicates for shared
// variables and constants; the union of CQs becomes a UNION.
//
//   q(X) :- r(X, Y), s(Y, a)
//   =>
//   SELECT DISTINCT t0.c1 AS a1
//   FROM r AS t0, s AS t1
//   WHERE t1.c1 = t0.c2 AND t1.c2 = 'a'
//
// Boolean queries select a constant 1. The emitted SQL is standard enough
// for SQLite/PostgreSQL given tables named after the predicates.

namespace ontorew {

// Renders a single CQ. Errors on an invalid query.
StatusOr<std::string> CqToSql(const ConjunctiveQuery& cq,
                              const Vocabulary& vocab);

// Maps a predicate to the (already quoted) SQL identifier of the table
// or CTE that holds it. CqToSql uses the default resolver (the quoted
// vocabulary name); the CTE emitter (rewriting/cte_sql.h) routes the
// factored program's virtual aux predicates to prefixed CTE names while
// base predicates keep the default mapping.
using SqlTableResolver = std::function<std::string(PredicateId)>;

// As CqToSql for the rule `head :- body`, but each body atom's FROM
// entry is named by `resolver`. Column references stay c1..ck regardless
// of the resolved name, so resolved CTEs must declare that column list.
// The rule must be valid (a non-empty body holding every head variable):
// callers validate it.
std::string RuleToSqlResolved(const std::vector<Term>& head,
                              const std::vector<Atom>& body,
                              const Vocabulary& vocab,
                              const SqlTableResolver& resolver);

// Renders the whole union. Errors on an invalid or empty UCQ.
StatusOr<std::string> UcqToSql(const UnionOfCqs& ucq,
                               const Vocabulary& vocab);

// The text a constant's SQL literal *contains* (surrounding double quotes
// from the parser's string-literal syntax stripped, no SQL escaping).
// This is the canonical stored form: backends that load facts into a real
// database must store exactly this text so that the literals the query
// emitter produces compare equal to the stored values.
std::string SqlConstantText(ConstantId id, const Vocabulary& vocab);

// Renders a table/column identifier: bare when it is a plain identifier
// and not a reserved word, otherwise double-quoted with interior quotes
// doubled.
std::string SqlIdentifier(std::string_view name);

// The CREATE TABLE statement for one predicate (text columns c1..ck). A
// 0-ary (propositional) predicate gets a single sentinel column c0 —
// zero-column tables are not valid SQL — which no emitted query ever
// references; presence of any row encodes "true".
std::string TableToSql(PredicateId predicate, const Vocabulary& vocab);

// The CREATE TABLE statements for every predicate of `program`'s
// signature (text columns), for loading the extensional data.
std::string SchemaToSql(const TgdProgram& program, const Vocabulary& vocab);

}  // namespace ontorew

#endif  // ONTOREW_REWRITING_SQL_H_
