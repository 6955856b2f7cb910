#ifndef ONTOREW_BACKEND_BACKEND_H_
#define ONTOREW_BACKEND_BACKEND_H_

#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "base/deadline.h"
#include "base/status.h"
#include "base/trace.h"
#include "db/database.h"
#include "db/eval.h"
#include "logic/program.h"
#include "logic/query.h"
#include "rewriting/datalog.h"

// Execution backends: where a (rewritten) UCQ actually runs. The paper's
// punchline is that FO-rewritability lets certain-answer computation be
// delegated to a plain SQL engine; a Backend is that delegation point.
// The serving layer (AnswerEngine) computes the rewriting and hands the
// resulting UCQ or Datalog program to a Backend, which holds the
// extensional data and returns answer tuples as Value rows. Every serve
// runs through one: an engine configured without a backend creates an
// InMemoryBackend.
//
// Contract (asserted by tests/differential_test.cc against the chase
// oracle): for the same loaded database, every backend returns the *same*
// sorted, deduplicated answer set for every valid UCQ —
//  * a predicate without stored facts is an empty relation, not an error;
//  * labeled nulls join only with themselves (Value identity), and
//    answer tuples containing nulls are dropped when
//    drop_tuples_with_nulls is set (certain-answer semantics);
//  * a 0-ary (boolean) UCQ answers with one empty tuple or none;
//  * cancellation is cooperative: a tripped deadline/token returns
//    DeadlineExceeded/Cancelled, never a partial answer set.

namespace ontorew {

struct BackendExecOptions {
  // Drop answer tuples containing labeled nulls (certain-answer
  // semantics when the loaded data came from a chase).
  bool drop_tuples_with_nulls = true;
  // Deadline/cancellation for the execution; inert by default. SQLite
  // maps this onto sqlite3_progress_handler, the in-memory evaluator
  // onto its strided scan checks.
  CancelScope cancel;
  // Worker threads for backends that fan disjuncts out (in-memory);
  // single-connection backends ignore it.
  int num_threads = 0;
  // Request-scoped tracing (see base/trace.h). Inert by default. The
  // in-memory backend records one "aux" span per materialized aux
  // predicate and forwards it to the parallel evaluator (per-disjunct
  // "disjunct" spans); SQLite records "emit" (UCQ -> SQL) and "scan"
  // spans, attaching the EXPLAIN QUERY PLAN rows to the scan span.
  TraceContext trace;
};

class Backend {
 public:
  virtual ~Backend() = default;

  // Stable short name, used in metric names ("inmemory", "sqlite").
  virtual std::string_view name() const = 0;

  // Replaces all stored facts with `db`'s contents; `program` fixes the
  // schema (predicates the data does not mention yet are still created,
  // empty). Must be called before Execute. `db` is non-null and never
  // mutated, so a backend may keep it instead of copying the data (the
  // in-memory backend does: an engine refresh copies nothing).
  virtual Status Load(const TgdProgram& program,
                      std::shared_ptr<const Database> db) = 0;
  // Loads a private copy of `db`.
  Status Load(const TgdProgram& program, const Database& db) {
    return Load(program, std::make_shared<const Database>(db));
  }

  // Executes a UCQ over the loaded facts and returns the sorted,
  // deduplicated answer tuples. Accumulates scan counters into *stats
  // (may be nullptr; backends fill what they can observe).
  virtual StatusOr<std::vector<Tuple>> Execute(
      const UnionOfCqs& ucq, const BackendExecOptions& options,
      EvalStats* stats = nullptr) = 0;

  // Executes a factored nonrecursive Datalog rewriting (the target=cte
  // path). Same answer contract as Execute — the program is only a
  // compressed spelling of a UCQ, and a UCQ is the program with no aux
  // predicates.
  virtual StatusOr<std::vector<Tuple>> ExecuteDatalog(
      const DatalogProgram& program, const BackendExecOptions& options,
      EvalStats* stats = nullptr) = 0;

  // Whether this backend answers a flat union faster than the program
  // factored from it, so a rewriting that has both should run the union.
  // False by default: a SQL engine plans each UNION arm on its own, and
  // the factored university q3 runs about 75x faster on SQLite.
  virtual bool PrefersFlatUnions() const { return false; }
};

// The reference backend, and the AnswerEngine's default: the loaded
// Database is shared, not copied, and evaluated with the index-nested-loop
// evaluator, disjuncts fanned across the parallel_eval worker pool. A
// program is evaluated bottom-up, never unfolded: each aux predicate is
// materialized once per request into a request-local relation ("aux"
// span: rows, rules), and the output rules then run like a UCQ's
// disjuncts over the base data overlaid with those relations.
class InMemoryBackend : public Backend {
 public:
  InMemoryBackend() = default;

  using Backend::Load;
  std::string_view name() const override { return "inmemory"; }
  Status Load(const TgdProgram& program,
              std::shared_ptr<const Database> db) override;
  StatusOr<std::vector<Tuple>> Execute(const UnionOfCqs& ucq,
                                       const BackendExecOptions& options,
                                       EvalStats* stats = nullptr) override;
  StatusOr<std::vector<Tuple>> ExecuteDatalog(
      const DatalogProgram& program, const BackendExecOptions& options,
      EvalStats* stats = nullptr) override;
  // True: the index-nested-loop evaluator joins each disjunct from its
  // bound atoms, while an aux predicate is materialized over every
  // alternative's whole relation. person(X), knows(X, stud3) over 20000
  // students takes 0.04 ms as a 10-arm union and 42 ms factored.
  bool PrefersFlatUnions() const override { return true; }

  // The loaded data (null before Load). A concurrent Load swaps the
  // pointer, never the pointee, so the result stays valid while held.
  std::shared_ptr<const Database> db() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return db_;
  }

 private:
  mutable std::mutex mutex_;  // Guards db_ (the pointer, not the data).
  std::shared_ptr<const Database> db_;
};

}  // namespace ontorew

#endif  // ONTOREW_BACKEND_BACKEND_H_
