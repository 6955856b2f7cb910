#include "backend/backend.h"

#include <cstdint>
#include <utility>

#include "backend/parallel_eval.h"
#include "base/logging.h"

namespace ontorew {
namespace {

// Evaluates the union over `db`, its disjuncts fanned across the worker
// pool (per-disjunct "disjunct" spans under options.trace).
StatusOr<std::vector<Tuple>> EvaluateUnion(const UnionOfCqs& ucq,
                                           const DatabaseView& db,
                                           const BackendExecOptions& options,
                                           EvalStats* stats) {
  ParallelEvalOptions eval;
  eval.num_threads = options.num_threads;
  eval.eval.drop_tuples_with_nulls = options.drop_tuples_with_nulls;
  eval.eval.cancel = options.cancel;
  eval.trace = options.trace;
  return ParallelEvaluate(ucq, db, eval, stats);
}

// Materializes aux predicate `index` (defined by `definition`) into
// `aux`: the union of its rules' head tuples, matched over the base data
// plus the aux relations materialized before it. Tuples keep their
// labeled nulls, which join only with themselves; only the output drops
// them.
Status MaterializeAux(const DatalogAux& definition, int index,
                      const Database& base, const BackendExecOptions& options,
                      Database* aux, EvalStats* stats) {
  TraceSpan span(options.trace, "aux");
  span.Attr("aux", static_cast<std::int64_t>(index));
  span.Attr("rules", static_cast<std::int64_t>(definition.rules.size()));
  Relation& relation = aux->GetOrCreate(AuxPredicate(index), definition.arity);
  const DatabaseView view(base, aux);
  for (const DatalogRule& rule : definition.rules) {
    Status status = ForEachMatch(
        rule.body, view, Binding(),
        [&rule, &relation](const Binding& binding) {
          Tuple tuple;
          tuple.reserve(rule.head.size());
          for (const Term& t : rule.head) {
            auto it = binding.find(t.id());
            OREW_CHECK(it != binding.end()) << "unsafe aux rule head";
            tuple.push_back(it->second);
          }
          relation.Insert(std::move(tuple));
          return true;
        },
        stats, options.cancel);
    // The matcher consults the scope only every kCancelCheckStride
    // tuples; a small aux must not outlive an expired deadline either.
    if (status.ok()) status = options.cancel.Check("aux materialization");
    if (!status.ok()) {
      span.AnnotateStatus(status);
      return status;
    }
  }
  span.Attr("rows", static_cast<std::int64_t>(relation.size()));
  return Status::Ok();
}

}  // namespace

Status InMemoryBackend::Load(const TgdProgram& program,
                             std::shared_ptr<const Database> db) {
  // The evaluator treats a missing relation as empty, so the program's
  // signature needs no materialization here — only the facts matter.
  (void)program;
  std::lock_guard<std::mutex> lock(mutex_);
  db_ = std::move(db);
  return Status::Ok();
}

StatusOr<std::vector<Tuple>> InMemoryBackend::Execute(
    const UnionOfCqs& ucq, const BackendExecOptions& options,
    EvalStats* stats) {
  // Pinned for the whole evaluation: a concurrent Load swaps db_ without
  // freeing the data this request scans.
  const std::shared_ptr<const Database> db = this->db();
  if (db == nullptr) {
    return FailedPreconditionError("InMemoryBackend: Execute before Load");
  }
  return EvaluateUnion(ucq, *db, options, stats);
}

StatusOr<std::vector<Tuple>> InMemoryBackend::ExecuteDatalog(
    const DatalogProgram& program, const BackendExecOptions& options,
    EvalStats* stats) {
  OREW_RETURN_IF_ERROR(program.Validate());
  const std::shared_ptr<const Database> db = this->db();
  if (db == nullptr) {
    return FailedPreconditionError(
        "InMemoryBackend: ExecuteDatalog before Load");
  }
  // Bottom-up: program.aux is in dependency order, so each aux predicate
  // is materialized once, from the base data and the aux relations
  // before it. The relations live for this request only.
  Database aux;
  for (std::size_t k = 0; k < program.aux.size(); ++k) {
    OREW_RETURN_IF_ERROR(MaterializeAux(program.aux[k], static_cast<int>(k),
                                        *db, options, &aux, stats));
  }
  // The output rules are a union over base and aux relations: they fan
  // out exactly like a flat UCQ's disjuncts.
  UnionOfCqs output;
  for (const DatalogRule& rule : program.output) {
    output.Add(ConjunctiveQuery(rule.head, rule.body));
  }
  return EvaluateUnion(output, DatabaseView(*db, &aux), options, stats);
}

}  // namespace ontorew
