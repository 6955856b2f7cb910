#include "db/eval.h"

#include <algorithm>
#include <set>
#include <vector>

#include "base/fault_point.h"
#include "base/logging.h"
#include "base/strings.h"

namespace ontorew {
namespace {

// Backtracking matcher. Atoms are ordered greedily at each step: the atom
// with the most bound positions first (ties: smaller relation), so joins
// use the per-column indexes as early as possible.
class Matcher {
 public:
  Matcher(const std::vector<Atom>& atoms, const DatabaseView& db,
          const Binding& initial,
          const std::function<bool(const Binding&)>& callback,
          EvalStats* stats, const CancelScope& cancel)
      : atoms_(atoms), callback_(callback), stats_(stats), cancel_(cancel),
        binding_(initial) {
    used_.resize(atoms.size(), false);
    // Resolved once: PickNext consults every unused atom's relation at
    // every depth.
    relations_.reserve(atoms.size());
    for (const Atom& atom : atoms) {
      relations_.push_back(db.Find(atom.predicate()));
    }
  }

  // OK when enumeration ran to completion (or the callback stopped it —
  // that is the caller's choice, not an error); non-OK when it was
  // aborted by an arity mismatch, the cancel scope, or a fault.
  Status Run() {
    Descend(0);
    return status_;
  }

 private:
  int CountBound(const Atom& atom) const {
    int bound = 0;
    for (Term t : atom.terms()) {
      if (t.is_constant() || binding_.count(t.id()) > 0) ++bound;
    }
    return bound;
  }

  // Picks the next unused atom index to match.
  int PickNext() const {
    int best = -1;
    int best_bound = -1;
    long best_size = 0;
    for (std::size_t i = 0; i < atoms_.size(); ++i) {
      if (used_[i]) continue;
      const Relation* relation = relations_[i];
      long size = relation == nullptr ? 0 : relation->size();
      int bound = CountBound(atoms_[i]);
      if (best == -1 || bound > best_bound ||
          (bound == best_bound && size < best_size)) {
        best = static_cast<int>(i);
        best_bound = bound;
        best_size = size;
      }
    }
    return best;
  }

  // Resolves an atom term to a concrete value if bound.
  bool ResolveTerm(Term t, Value* out) const {
    if (t.is_constant()) {
      *out = Value::Constant(t.id());
      return true;
    }
    auto it = binding_.find(t.id());
    if (it == binding_.end()) return false;
    *out = it->second;
    return true;
  }

  // Per-tuple interruption check: the "eval.scan" fault point fires on
  // every examined tuple; the cancel scope (a clock read) is only
  // consulted every kCancelCheckStride tuples.
  bool Interrupted() {
    Status fault = CheckFaultPoint("eval.scan");
    if (!fault.ok()) {
      status_ = std::move(fault);
      return true;
    }
    if (!cancel_.active()) return false;
    if (++since_check_ < kCancelCheckStride) return false;
    since_check_ = 0;
    Status check = cancel_.Check("eval scan");
    if (!check.ok()) {
      status_ = std::move(check);
      return true;
    }
    return false;
  }

  bool Descend(std::size_t depth) {
    if (depth == atoms_.size()) {
      if (stats_ != nullptr) ++stats_->matches;
      return callback_(binding_);
    }

    int index = PickNext();
    OREW_CHECK(index >= 0);
    const Atom& atom = atoms_[static_cast<std::size_t>(index)];
    used_[static_cast<std::size_t>(index)] = true;

    bool keep_going = true;
    const Relation* relation = relations_[static_cast<std::size_t>(index)];
    // A missing relation means no tuples (the predicate is simply empty in
    // this instance). An *arity mismatch*, by contrast, is a vocabulary
    // bug upstream — silently returning zero matches would mask it, so it
    // aborts enumeration with an error status.
    if (relation != nullptr && relation->arity() != atom.arity()) {
      status_ = InvalidArgumentError(
          StrCat("arity mismatch for predicate #", atom.predicate(),
                 ": relation has arity ", relation->arity(),
                 " but the query atom has arity ", atom.arity()));
      used_[static_cast<std::size_t>(index)] = false;
      return false;
    }
    if (relation != nullptr) {
      // Choose the bound column with the smallest posting list, if any.
      int best_column = -1;
      std::size_t best_postings = 0;
      Value best_value;
      for (int c = 0; c < atom.arity(); ++c) {
        Value value;
        if (!ResolveTerm(atom.term(c), &value)) continue;
        const std::vector<int>& postings = relation->TuplesWith(c, value);
        if (best_column == -1 || postings.size() < best_postings) {
          best_column = c;
          best_postings = postings.size();
          best_value = value;
        }
      }

      auto try_tuple = [&](const Tuple& tuple) {
        if (stats_ != nullptr) ++stats_->tuples_examined;
        if (Interrupted()) {
          keep_going = false;
          return;
        }
        std::vector<VariableId> newly_bound;
        bool consistent = true;
        for (int c = 0; c < atom.arity(); ++c) {
          Term t = atom.term(c);
          Value cell = tuple[static_cast<std::size_t>(c)];
          if (t.is_constant()) {
            if (Value::Constant(t.id()) != cell) {
              consistent = false;
              break;
            }
            continue;
          }
          auto it = binding_.find(t.id());
          if (it != binding_.end()) {
            if (it->second != cell) {
              consistent = false;
              break;
            }
          } else {
            binding_.emplace(t.id(), cell);
            newly_bound.push_back(t.id());
          }
        }
        if (consistent && !Descend(depth + 1)) keep_going = false;
        for (VariableId v : newly_bound) binding_.erase(v);
      };

      if (best_column >= 0) {
        for (int tuple_index : relation->TuplesWith(best_column, best_value)) {
          if (!keep_going) break;
          try_tuple(relation->tuples()[static_cast<std::size_t>(tuple_index)]);
        }
      } else {
        for (const Tuple& tuple : relation->tuples()) {
          if (!keep_going) break;
          try_tuple(tuple);
        }
      }
    }
    // Missing relation: no matches for this atom.

    used_[static_cast<std::size_t>(index)] = false;
    return keep_going;
  }

  const std::vector<Atom>& atoms_;
  std::vector<const Relation*> relations_;  // Aligned with atoms_.
  const std::function<bool(const Binding&)>& callback_;
  EvalStats* stats_;
  const CancelScope& cancel_;
  int since_check_ = 0;
  Status status_;  // Non-OK once enumeration was aborted.
  std::vector<bool> used_;
  Binding binding_;
};

}  // namespace

Status ForEachMatch(const std::vector<Atom>& atoms, const Database& db,
                    const std::function<bool(const Binding&)>& callback) {
  return ForEachMatch(atoms, db, Binding(), callback, nullptr, CancelScope());
}

Status ForEachMatch(const std::vector<Atom>& atoms, const Database& db,
                    const Binding& initial,
                    const std::function<bool(const Binding&)>& callback) {
  return ForEachMatch(atoms, db, initial, callback, nullptr, CancelScope());
}

Status ForEachMatch(const std::vector<Atom>& atoms, const Database& db,
                    const Binding& initial,
                    const std::function<bool(const Binding&)>& callback,
                    EvalStats* stats) {
  return ForEachMatch(atoms, db, initial, callback, stats, CancelScope());
}

Status ForEachMatch(const std::vector<Atom>& atoms, const DatabaseView& db,
                    const Binding& initial,
                    const std::function<bool(const Binding&)>& callback,
                    EvalStats* stats, const CancelScope& cancel) {
  return Matcher(atoms, db, initial, callback, stats, cancel).Run();
}

bool HasMatch(const std::vector<Atom>& atoms, const Database& db) {
  return HasMatch(atoms, db, Binding());
}

bool HasMatch(const std::vector<Atom>& atoms, const Database& db,
              const Binding& initial) {
  bool found = false;
  Status status = ForEachMatch(atoms, db, initial, [&found](const Binding&) {
    found = true;
    return false;  // Stop at the first match.
  });
  // HasMatch has no error channel; schema bugs stay loud.
  OREW_CHECK(status.ok()) << status;
  return found;
}

StatusOr<std::vector<Tuple>> TryEvaluate(const ConjunctiveQuery& cq,
                                         const DatabaseView& db,
                                         const EvalOptions& options,
                                         EvalStats* stats) {
  std::set<Tuple> answers;
  OREW_RETURN_IF_ERROR(ForEachMatch(
      cq.body(), db, Binding(),
      [&](const Binding& binding) {
        Tuple answer;
        answer.reserve(cq.answer_terms().size());
        bool has_null = false;
        for (Term t : cq.answer_terms()) {
          Value value;
          if (t.is_constant()) {
            value = Value::Constant(t.id());
          } else {
            auto it = binding.find(t.id());
            OREW_CHECK(it != binding.end())
                << "answer variable " << t.id() << " unbound — invalid CQ";
            value = it->second;
          }
          if (value.is_null()) has_null = true;
          answer.push_back(value);
        }
        if (!options.drop_tuples_with_nulls || !has_null) {
          answers.insert(std::move(answer));
        }
        return true;
      },
      stats, options.cancel));
  return std::vector<Tuple>(answers.begin(), answers.end());
}

StatusOr<std::vector<Tuple>> TryEvaluate(const UnionOfCqs& ucq,
                                         const DatabaseView& db,
                                         const EvalOptions& options,
                                         EvalStats* stats) {
  std::set<Tuple> answers;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    OREW_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                          TryEvaluate(cq, db, options, stats));
    for (Tuple& tuple : tuples) {
      answers.insert(std::move(tuple));
    }
  }
  return std::vector<Tuple>(answers.begin(), answers.end());
}

std::vector<Tuple> Evaluate(const ConjunctiveQuery& cq, const Database& db,
                            const EvalOptions& options, EvalStats* stats) {
  StatusOr<std::vector<Tuple>> result = TryEvaluate(cq, db, options, stats);
  OREW_CHECK(result.ok()) << result.status();
  return *std::move(result);
}

std::vector<Tuple> Evaluate(const UnionOfCqs& ucq, const Database& db,
                            const EvalOptions& options, EvalStats* stats) {
  StatusOr<std::vector<Tuple>> result = TryEvaluate(ucq, db, options, stats);
  OREW_CHECK(result.ok()) << result.status();
  return *std::move(result);
}

}  // namespace ontorew
