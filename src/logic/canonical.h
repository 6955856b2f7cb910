#ifndef ONTOREW_LOGIC_CANONICAL_H_
#define ONTOREW_LOGIC_CANONICAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "logic/atom.h"
#include "logic/query.h"
#include "logic/vocabulary.h"

// Canonicalization of conjunctive queries modulo variable renaming (and,
// heuristically, atom reordering). Used to deduplicate CQs produced by the
// rewriting engine.
//
// Exact CQ canonicalization is graph-isomorphism-hard; we use an
// iterative-refinement heuristic: atoms are sorted by renaming-invariant
// keys, variable "colors" are refined from the sort order, and the process
// repeats until stable. The result is deterministic and invariant under
// variable renaming of the input; two non-isomorphic CQs never collide.
// Isomorphic CQs collide in all but adversarial symmetric cases, which the
// containment-based minimizer (rewriting/minimize.h) cleans up afterwards.

namespace ontorew {

// Renames the variables of `cq` to canonical ids: answer variables become
// 0..arity-1 (in answer order), existential variables continue from arity
// in order of first occurrence in the canonical atom order. Atom order is
// normalized as described above.
ConjunctiveQuery CanonicalizeCq(const ConjunctiveQuery& cq);

// A deterministic string key for the canonicalized CQ; equal keys imply
// isomorphic CQs. Suitable as a hash-map key. Equal to
// CanonicalFormKey(CanonicalizeCq(cq)).
std::string CanonicalCqKey(const ConjunctiveQuery& cq);

// The key of a CQ that is ALREADY canonical (the output of CanonicalizeCq):
// renders it without re-running the labeling search. Equal keys imply
// equal (hence isomorphic) CQs; on a non-canonical CQ the key depends on
// the variable names and atom order.
std::string CanonicalFormKey(const ConjunctiveQuery& canonical);

// A 64-bit structural hash of an *already canonicalized* CQ — the cheap
// stand-in for CanonicalCqKey on the rewriting hot path. Equal canonical
// forms hash equally; hash-equal CQs must be confirmed with a structural
// compare (operator== on the canonical forms), which is exactly the
// collision fallback the rewriter's dedup index performs. Unlike
// CanonicalCqKey this does NOT re-canonicalize: calling it on a
// non-canonical CQ gives a renaming-dependent value.
std::uint64_t CanonicalCqHash(const ConjunctiveQuery& canonical);

// A renaming-invariant 64-bit hash of ANY CQ, computed without the
// canonical-labeling search: Weisfeiler–Lehman variable colors combined
// into per-atom hashes, folded commutatively over the body (multiset
// semantics) and positionally over the answer terms. Isomorphic CQs hash
// equally; non-isomorphic CQs may (rarely) collide, so hash-equal CQs
// must be confirmed — the rewriter confirms with a two-way containment
// check, which also merges hom-equivalent duplicates that differ
// syntactically. Much cheaper than CanonicalizeCq + CanonicalCqHash when
// only duplicate detection (not a canonical form) is needed.
std::uint64_t InvariantCqHash(const ConjunctiveQuery& cq);

// Renames the variables of `atoms` by first occurrence to 0, 1, 2, ...
// without reordering atoms. Returns the renamed copy.
std::vector<Atom> RenameByFirstOccurrence(const std::vector<Atom>& atoms);

}  // namespace ontorew

#endif  // ONTOREW_LOGIC_CANONICAL_H_
