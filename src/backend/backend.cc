#include "backend/backend.h"

#include "backend/parallel_eval.h"

namespace ontorew {

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
  ParallelEvalOptions eval;
  eval.num_threads = options.num_threads;
  eval.eval.drop_tuples_with_nulls = options.drop_tuples_with_nulls;
  eval.eval.cancel = options.cancel;
  eval.trace = options.trace;
  return ParallelEvaluate(ucq, *db, eval, stats);
}

StatusOr<std::vector<Tuple>> InMemoryBackend::ExecuteDatalog(
    const DatalogProgram& program, const BackendExecOptions& options,
    EvalStats* stats) {
  // No native Datalog evaluation yet: the flat union, bounded by the
  // unfolder's disjunct cap, and not cached.
  OREW_ASSIGN_OR_RETURN(UnionOfCqs unfolded, UnfoldDatalog(program));
  return Execute(unfolded, options, stats);
}

}  // namespace ontorew
