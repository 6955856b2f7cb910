#ifndef ONTOREW_DB_EVAL_H_
#define ONTOREW_DB_EVAL_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "base/deadline.h"
#include "base/status.h"
#include "db/database.h"
#include "db/value.h"
#include "logic/atom.h"
#include "logic/query.h"

// Conjunctive-query evaluation over a Database: index-nested-loop joins
// with greedy bound-first atom ordering. This is the query processor the
// FO rewriting is handed to (the paper's AC0 / "plain SQL" stage), and the
// homomorphism finder the chase uses to locate triggers.
//
// Evaluation is cooperatively cancellable: EvalOptions carries a
// CancelScope checked every kCancelCheckStride tuples, and every examined
// tuple passes the "eval.scan" fault point. The fallible entry points
// (TryEvaluate, the Status-returning ForEachMatch) surface interruptions
// and schema bugs (arity mismatches) as Status; the legacy Evaluate
// wrappers OREW_CHECK instead, for callers that pass no deadline and
// treat failure as a programming error.

namespace ontorew {

// A homomorphism from query variables to database values.
using Binding = std::unordered_map<VariableId, Value>;

struct EvalOptions {
  // Drop answer tuples containing labeled nulls (certain-answer semantics
  // when evaluating over a chase result).
  bool drop_tuples_with_nulls = false;
  // Deadline/cancellation for the scan loops; inert by default.
  CancelScope cancel;
};

// Execution counters, for plan-quality tests and benchmarks.
struct EvalStats {
  // Tuples fetched from relations (after index lookup, before the
  // consistency check).
  long long tuples_examined = 0;
  // Complete homomorphisms found.
  long long matches = 0;
};

// Where the matcher looks relations up: a base Database plus an optional
// overlay of request-local relations (the in-memory backend's
// materialized Datalog aux predicates). Overlay ids must not collide with
// base ids, so no base data is ever copied to combine the two. Implicitly
// constructible from a Database, so plain callers pass one unchanged.
class DatabaseView {
 public:
  DatabaseView(const Database& base,  // NOLINT(google-explicit-constructor)
               const Database* overlay = nullptr)
      : base_(&base), overlay_(overlay) {}

  // The overlay's relation for `predicate` if it has one, else the
  // base's; nullptr when neither does.
  const Relation* Find(PredicateId predicate) const {
    if (overlay_ != nullptr) {
      if (const Relation* relation = overlay_->Find(predicate)) {
        return relation;
      }
    }
    return base_->Find(predicate);
  }

 private:
  const Database* base_;
  const Database* overlay_;
};

// Enumerates every homomorphism from `atoms` into `db`. The callback
// returns false to stop enumeration early (which is not an error).
// Constants in atoms must match constants in tuples; variables bind
// consistently across occurrences. Returns non-OK when enumeration was
// aborted: an arity mismatch between a query atom and its stored relation
// (InvalidArgument — a vocabulary bug upstream, not an empty result), a
// tripped deadline/token in `cancel`, or an armed "eval.scan" fault.
Status ForEachMatch(const std::vector<Atom>& atoms, const Database& db,
                    const std::function<bool(const Binding&)>& callback);

// As above, with some variables pre-bound (used by the restricted chase to
// check whether a trigger's head is already satisfied under the frontier
// binding).
Status ForEachMatch(const std::vector<Atom>& atoms, const Database& db,
                    const Binding& initial,
                    const std::function<bool(const Binding&)>& callback);

// As above, also accumulating execution counters into *stats (may be
// nullptr).
Status ForEachMatch(const std::vector<Atom>& atoms, const Database& db,
                    const Binding& initial,
                    const std::function<bool(const Binding&)>& callback,
                    EvalStats* stats);

// Full form: enumeration under a cancellation scope, over a view that may
// overlay request-local relations on the database.
Status ForEachMatch(const std::vector<Atom>& atoms, const DatabaseView& db,
                    const Binding& initial,
                    const std::function<bool(const Binding&)>& callback,
                    EvalStats* stats, const CancelScope& cancel);

// True iff at least one homomorphism exists (extending `initial`).
// Arity mismatches are checked failures here (no Status channel).
bool HasMatch(const std::vector<Atom>& atoms, const Database& db);
bool HasMatch(const std::vector<Atom>& atoms, const Database& db,
              const Binding& initial);

// All answer tuples, deduplicated and sorted (deterministic output).
// Errors: InvalidArgument on arity mismatch, DeadlineExceeded/Cancelled
// when options.cancel trips mid-scan (no partial answers are returned),
// or an injected "eval.scan" fault.
StatusOr<std::vector<Tuple>> TryEvaluate(const ConjunctiveQuery& cq,
                                         const DatabaseView& db,
                                         const EvalOptions& options = {},
                                         EvalStats* stats = nullptr);
StatusOr<std::vector<Tuple>> TryEvaluate(const UnionOfCqs& ucq,
                                         const DatabaseView& db,
                                         const EvalOptions& options = {},
                                         EvalStats* stats = nullptr);

// Legacy infallible wrappers: OREW_CHECK on any evaluation error. Only
// safe for callers that pass no deadline/cancel scope.
std::vector<Tuple> Evaluate(const ConjunctiveQuery& cq, const Database& db,
                            const EvalOptions& options = {},
                            EvalStats* stats = nullptr);
std::vector<Tuple> Evaluate(const UnionOfCqs& ucq, const Database& db,
                            const EvalOptions& options = {},
                            EvalStats* stats = nullptr);

}  // namespace ontorew

#endif  // ONTOREW_DB_EVAL_H_
