#include "obda/mapping.h"

#include <string>
#include <unordered_set>
#include <unordered_map>
#include <vector>

#include "base/strings.h"
#include "logic/canonical.h"
#include "logic/parser.h"
#include "logic/substitution.h"
#include "logic/unification.h"

namespace ontorew {
namespace {

// Renames the assertion's variables by adding an offset, keeping them
// disjoint from the query being unfolded (whose variables are small after
// canonicalization).
MappingAssertion ShiftAssertion(const MappingAssertion& assertion,
                                VariableId offset) {
  MappingAssertion shifted;
  shifted.target = assertion.target;
  for (Term t : assertion.head_terms) {
    shifted.head_terms.push_back(t.is_constant() ? t
                                                 : Term::Var(t.id() + offset));
  }
  for (const Atom& atom : assertion.body) {
    std::vector<Term> terms;
    terms.reserve(atom.terms().size());
    for (Term t : atom.terms()) {
      terms.push_back(t.is_constant() ? t : Term::Var(t.id() + offset));
    }
    shifted.body.emplace_back(atom.predicate(), std::move(terms));
  }
  return shifted;
}

}  // namespace

Status MappingSet::Add(MappingAssertion assertion, const Vocabulary& vocab) {
  if (assertion.target < 0 ||
      assertion.target >= vocab.num_predicates()) {
    return InvalidArgumentError("mapping target is not a known predicate");
  }
  if (static_cast<int>(assertion.head_terms.size()) !=
      vocab.PredicateArity(assertion.target)) {
    return InvalidArgumentError(
        StrCat("mapping head arity mismatch for ",
               vocab.PredicateName(assertion.target)));
  }
  if (assertion.body.empty()) {
    return InvalidArgumentError("mapping with empty body");
  }
  for (Term t : assertion.head_terms) {
    if (!t.is_variable()) continue;
    bool found = false;
    for (const Atom& atom : assertion.body) {
      if (atom.ContainsVariable(t.id())) {
        found = true;
        break;
      }
    }
    if (!found) {
      return InvalidArgumentError(
          StrCat("unsafe mapping for ", vocab.PredicateName(assertion.target),
                 ": head variable missing from the body"));
    }
  }
  // Rename the assertion's variables densely (0, 1, 2, ...) so unfolding
  // can shift instances apart with fixed spacing.
  std::unordered_map<VariableId, VariableId> rename;
  auto rename_term = [&rename](Term t) {
    if (t.is_constant()) return t;
    auto [it, inserted] =
        rename.emplace(t.id(), static_cast<VariableId>(rename.size()));
    return Term::Var(it->second);
  };
  for (Term& t : assertion.head_terms) t = rename_term(t);
  for (Atom& atom : assertion.body) {
    for (Term& t : atom.mutable_terms()) t = rename_term(t);
  }
  if (static_cast<int>(rename.size()) >= (1 << 12)) {
    return InvalidArgumentError("mapping assertion with too many variables");
  }

  definitions_[assertion.target].push_back(
      static_cast<int>(assertions_.size()));
  assertions_.push_back(std::move(assertion));
  return Status::Ok();
}

std::vector<int> MappingSet::DefinitionsOf(PredicateId predicate) const {
  auto it = definitions_.find(predicate);
  return it == definitions_.end() ? std::vector<int>() : it->second;
}

StatusOr<MappingSet> ParseMappings(std::string_view text, Vocabulary* vocab) {
  OREW_ASSIGN_OR_RETURN(ParsedFile file, ParseFile(text, vocab));
  if (!file.tgds.empty()) {
    return InvalidArgumentError(
        "mapping files contain only 'target(...) :- body.' assertions, "
        "found a TGD");
  }
  MappingSet mappings;
  for (NamedQuery& named : file.queries) {
    MappingAssertion assertion;
    OREW_ASSIGN_OR_RETURN(
        assertion.target,
        vocab->InternPredicate(named.name, named.query.arity()));
    assertion.head_terms = named.query.answer_terms();
    assertion.body = named.query.body();
    OREW_RETURN_IF_ERROR(mappings.Add(std::move(assertion), *vocab));
  }
  return mappings;
}

StatusOr<UnionOfCqs> UnfoldUcq(const UnionOfCqs& ucq,
                               const MappingSet& mappings,
                               Vocabulary* /*vocab*/,
                               const UnfoldOptions& options) {
  OREW_RETURN_IF_ERROR(ucq.Validate());
  UnionOfCqs result;
  std::unordered_set<std::string> seen;

  for (const ConjunctiveQuery& raw : ucq.disjuncts()) {
    // Canonicalize so the query's variable ids are dense and small; the
    // assertions are shifted above them.
    ConjunctiveQuery cq = CanonicalizeCq(raw);
    VariableId offset = 1;
    for (VariableId v : DistinctVariables(cq.body())) {
      offset = std::max(offset, v + 1);
    }

    // Worklist of partial unfoldings: (next atom index, accumulated source
    // atoms, substitution so far). The substitution applies at the end.
    struct Partial {
      std::size_t next_atom;
      std::vector<Atom> source_body;
      Substitution subst;
      VariableId next_offset;
    };
    std::vector<Partial> partials;
    partials.push_back(Partial{0, {}, Substitution(), offset});

    std::vector<Partial> complete;
    while (!partials.empty()) {
      Partial partial = std::move(partials.back());
      partials.pop_back();
      if (partial.next_atom == cq.body().size()) {
        complete.push_back(std::move(partial));
        if (static_cast<int>(complete.size()) > options.max_cqs) {
          return ResourceExhaustedError(
              StrCat("unfolding exceeded ", options.max_cqs, " CQs"));
        }
        continue;
      }
      const Atom& atom = cq.body()[partial.next_atom];
      std::vector<int> definitions = mappings.DefinitionsOf(atom.predicate());
      if (definitions.empty()) {
        if (!options.keep_unmapped_atoms) {
          // No source definition: this disjunct contributes nothing
          // through this atom (strict virtual OBDA semantics: the
          // ontology predicate has no extension of its own).
          continue;
        }
        Partial next = std::move(partial);
        next.source_body.push_back(atom);
        ++next.next_atom;
        partials.push_back(std::move(next));
        continue;
      }
      for (int index : definitions) {
        MappingAssertion assertion = ShiftAssertion(
            mappings.assertions()[static_cast<std::size_t>(index)],
            partial.next_offset);
        Partial next = partial;  // Copy: each definition is one branch.
        next.next_offset = partial.next_offset + (1 << 12);
        // Unify the atom's arguments with the definition's head terms.
        bool ok = true;
        for (int i = 0; i < atom.arity() && ok; ++i) {
          ok = UnifyTerms(atom.term(i), assertion.head_terms[
                              static_cast<std::size_t>(i)],
                          &next.subst);
        }
        if (!ok) continue;
        for (const Atom& source : assertion.body) {
          next.source_body.push_back(source);
        }
        ++next.next_atom;
        partials.push_back(std::move(next));
      }
    }

    for (Partial& partial : complete) {
      std::vector<Atom> body = partial.subst.Apply(partial.source_body);
      std::vector<Term> answer;
      answer.reserve(cq.answer_terms().size());
      for (Term t : cq.answer_terms()) {
        answer.push_back(t.is_constant() ? t : partial.subst.Resolve(t));
      }
      ConjunctiveQuery unfolded(std::move(answer), std::move(body));
      if (unfolded.Validate().ok()) {
        ConjunctiveQuery canonical = CanonicalizeCq(unfolded);
        if (seen.insert(CanonicalFormKey(canonical)).second) {
          result.Add(std::move(canonical));
        }
      }
    }
  }

  if (result.size() == 0) {
    return FailedPreconditionError(
        "unfolding produced no source query — no disjunct is fully covered "
        "by the mappings");
  }
  return result;
}

}  // namespace ontorew
