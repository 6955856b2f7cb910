#include "logic/canonical.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/strings.h"

namespace ontorew {
namespace {

// --- Variable colors (Weisfeiler–Lehman style) ------------------------------
//
// A renaming-invariant "color" per variable guides the canonical labeling:
// it encodes where and how often the variable occurs, refined over rounds
// by the colors of co-occurring variables. Colors break almost all ties
// between candidate atoms during the ordering search, keeping the
// branch-and-prune shallow; remaining ties are either branched (up to a
// small limit) or genuinely symmetric.

std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::unordered_map<VariableId, std::uint64_t> ComputeColors(
    const ConjunctiveQuery& cq) {
  std::unordered_map<VariableId, std::uint64_t> colors;
  // Initial color: multiset of (predicate, position) occurrences plus the
  // answer-position indices.
  std::unordered_map<VariableId, std::vector<std::uint64_t>> signature;
  for (const Atom& atom : cq.body()) {
    for (int i = 0; i < atom.arity(); ++i) {
      Term t = atom.term(i);
      if (!t.is_variable()) continue;
      signature[t.id()].push_back(
          (static_cast<std::uint64_t>(atom.predicate()) << 8) |
          static_cast<std::uint64_t>(i));
    }
  }
  for (std::size_t i = 0; i < cq.answer_terms().size(); ++i) {
    Term t = cq.answer_terms()[i];
    if (t.is_variable()) {
      signature[t.id()].push_back(0xA00000000ULL + i);
    }
  }
  for (auto& [v, occurrences] : signature) {
    std::sort(occurrences.begin(), occurrences.end());
    std::uint64_t h = 0x51ed270b9f9deacdULL;
    for (std::uint64_t occurrence : occurrences) {
      h = HashCombine(h, occurrence);
    }
    colors[v] = h;
  }

  // Two refinement rounds: mix in the sorted colors of variables sharing
  // an atom (with the constant pattern of that atom).
  for (int round = 0; round < 2; ++round) {
    std::unordered_map<VariableId, std::vector<std::uint64_t>> neighbor;
    for (const Atom& atom : cq.body()) {
      std::uint64_t atom_hash = static_cast<std::uint64_t>(atom.predicate());
      for (Term t : atom.terms()) {
        atom_hash = HashCombine(
            atom_hash, t.is_constant()
                           ? 0xC000000000ULL + static_cast<std::uint64_t>(
                                                   t.id())
                           : colors[t.id()]);
      }
      for (Term t : atom.terms()) {
        if (t.is_variable()) neighbor[t.id()].push_back(atom_hash);
      }
    }
    for (auto& [v, hashes] : neighbor) {
      std::sort(hashes.begin(), hashes.end());
      std::uint64_t h = colors[v];
      for (std::uint64_t hash : hashes) h = HashCombine(h, hash);
      colors[v] = h;
    }
  }
  return colors;
}

// --- Branch-and-prune canonical labeling ------------------------------------
//
// The canonical form is the lexicographically smallest sequence of encoded
// atoms over all atom orders, where variables are renamed by first
// occurrence along the order (answer variables pre-renamed positionally)
// and unseen variables encode through their WL color. At each step only
// the atoms with the minimal encoding are viable; ties are branched up to
// a small limit (ties that survive the colors are almost always genuine
// symmetries, for which any branch yields the same form).
class CanonicalLabeler {
 public:
  explicit CanonicalLabeler(const ConjunctiveQuery& cq)
      : cq_(cq), colors_(ComputeColors(cq)) {
    for (Term t : cq.answer_terms()) {
      if (t.is_variable()) {
        base_rename_.emplace(
            t.id(), static_cast<VariableId>(base_rename_.size()));
      }
    }
    next_base_ = static_cast<VariableId>(base_rename_.size());
  }

  ConjunctiveQuery Run() {
    used_.assign(cq_.body().size(), false);
    std::vector<std::string> prefix;
    std::vector<Atom> atoms;
    prefix.reserve(cq_.body().size());
    atoms.reserve(cq_.body().size());
    Search(base_rename_, next_base_, &prefix, &atoms);

    std::vector<Term> answer_terms;
    answer_terms.reserve(cq_.answer_terms().size());
    for (Term t : cq_.answer_terms()) {
      answer_terms.push_back(
          t.is_constant() ? t : Term::Var(base_rename_.at(t.id())));
    }
    return ConjunctiveQuery(std::move(answer_terms), best_atoms_);
  }

 private:
  using Rename = std::unordered_map<VariableId, VariableId>;

  static constexpr long kNodeCap = 20000;
  static constexpr int kMaxBranches = 3;

  // Encodes `atom` under `rename`; unseen variables encode through their
  // color (renaming-invariant). Also produces the extended renaming and
  // the renamed atom.
  std::string EncodeExtending(const Atom& atom, const Rename& rename,
                              VariableId next, Rename* out_rename,
                              VariableId* out_next, Atom* out_atom) const {
    Rename extended = rename;
    std::vector<Term> terms;
    terms.reserve(atom.terms().size());
    std::string key = StrCat("p", atom.predicate(), "(");
    for (Term t : atom.terms()) {
      if (t.is_constant()) {
        StrAppend(&key, "c", t.id(), ",");
        terms.push_back(t);
        continue;
      }
      auto it = extended.find(t.id());
      if (it == extended.end()) {
        // First occurrence inside this candidate: encode the color, then
        // the assigned canonical id (so repeated fresh variables inside
        // one atom still encode their equality pattern).
        StrAppend(&key, "w", colors_.at(t.id()), ":", next, ",");
        it = extended.emplace(t.id(), next).first;
        ++next;
      } else {
        StrAppend(&key, "v", it->second, ",");
      }
      terms.push_back(Term::Var(it->second));
    }
    key += ")";
    *out_rename = std::move(extended);
    *out_next = next;
    *out_atom = Atom(atom.predicate(), std::move(terms));
    return key;
  }

  void Search(const Rename& rename, VariableId next,
              std::vector<std::string>* prefix, std::vector<Atom>* atoms) {
    const std::size_t depth = prefix->size();
    if (depth == cq_.body().size()) {
      if (!have_best_ || *prefix < best_keys_) {
        have_best_ = true;
        best_keys_ = *prefix;
        best_atoms_ = *atoms;
      }
      return;
    }
    if (++nodes_ > kNodeCap && have_best_) return;

    struct Candidate {
      std::size_t index;
      std::string key;
      Rename rename;
      VariableId next;
      Atom atom;
    };
    std::vector<Candidate> minimal;
    for (std::size_t i = 0; i < cq_.body().size(); ++i) {
      if (used_[i]) continue;
      Candidate candidate;
      candidate.index = i;
      candidate.key = EncodeExtending(cq_.body()[i], rename, next,
                                      &candidate.rename, &candidate.next,
                                      &candidate.atom);
      if (minimal.empty() || candidate.key < minimal.front().key) {
        minimal.clear();
        minimal.push_back(std::move(candidate));
      } else if (candidate.key == minimal.front().key &&
                 static_cast<int>(minimal.size()) < kMaxBranches) {
        minimal.push_back(std::move(candidate));
      }
    }

    // Prune against the incumbent at this position.
    if (have_best_ && !minimal.empty() &&
        minimal.front().key > best_keys_[depth]) {
      bool strictly_better_prefix = false;
      for (std::size_t i = 0; i < depth; ++i) {
        if ((*prefix)[i] < best_keys_[i]) {
          strictly_better_prefix = true;
          break;
        }
      }
      if (!strictly_better_prefix) return;
    }

    for (Candidate& candidate : minimal) {
      used_[candidate.index] = true;
      prefix->push_back(candidate.key);
      atoms->push_back(std::move(candidate.atom));
      Search(candidate.rename, candidate.next, prefix, atoms);
      atoms->pop_back();
      prefix->pop_back();
      used_[candidate.index] = false;
      // Keep exploring siblings only while ties can still matter.
      if (nodes_ > kNodeCap && have_best_) break;
    }
  }

  const ConjunctiveQuery& cq_;
  std::unordered_map<VariableId, std::uint64_t> colors_;
  Rename base_rename_;
  VariableId next_base_ = 0;
  std::vector<bool> used_;
  bool have_best_ = false;
  long nodes_ = 0;
  std::vector<std::string> best_keys_;
  std::vector<Atom> best_atoms_;
};

}  // namespace

std::vector<Atom> RenameByFirstOccurrence(const std::vector<Atom>& atoms) {
  std::unordered_map<VariableId, VariableId> rename;
  std::vector<Atom> result;
  result.reserve(atoms.size());
  for (const Atom& atom : atoms) {
    std::vector<Term> terms;
    terms.reserve(atom.terms().size());
    for (Term t : atom.terms()) {
      if (t.is_constant()) {
        terms.push_back(t);
        continue;
      }
      auto [it, inserted] =
          rename.emplace(t.id(), static_cast<VariableId>(rename.size()));
      terms.push_back(Term::Var(it->second));
    }
    result.emplace_back(atom.predicate(), std::move(terms));
  }
  return result;
}

ConjunctiveQuery CanonicalizeCq(const ConjunctiveQuery& cq) {
  return CanonicalLabeler(cq).Run();
}

std::uint64_t CanonicalCqHash(const ConjunctiveQuery& canonical) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  auto mix_term = [&h](Term t) {
    h = HashCombine(h, t.is_constant()
                           ? 0xC000000000ULL +
                                 static_cast<std::uint64_t>(t.id())
                           : 0xB000000000ULL +
                                 static_cast<std::uint64_t>(t.id()));
  };
  h = HashCombine(h, static_cast<std::uint64_t>(canonical.arity()));
  for (Term t : canonical.answer_terms()) mix_term(t);
  for (const Atom& atom : canonical.body()) {
    h = HashCombine(h, 0xA000000000ULL +
                           static_cast<std::uint64_t>(atom.predicate()));
    for (Term t : atom.terms()) mix_term(t);
  }
  return h;
}

std::uint64_t InvariantCqHash(const ConjunctiveQuery& cq) {
  std::unordered_map<VariableId, std::uint64_t> colors = ComputeColors(cq);
  std::uint64_t h = 0x9ddfea08eb382d69ULL;
  h = HashCombine(h, static_cast<std::uint64_t>(cq.arity()));
  // Answer terms are positional: fold them in order.
  for (Term t : cq.answer_terms()) {
    h = HashCombine(h, t.is_constant()
                           ? 0xC000000000ULL +
                                 static_cast<std::uint64_t>(t.id())
                           : colors.at(t.id()));
  }
  // The body is a multiset: hash each atom through the colors, then fold
  // the sorted atom hashes so atom order cannot leak into the result.
  std::vector<std::uint64_t> atom_hashes;
  atom_hashes.reserve(cq.body().size());
  for (const Atom& atom : cq.body()) {
    std::uint64_t ah = 0xA000000000ULL +
                       static_cast<std::uint64_t>(atom.predicate());
    for (Term t : atom.terms()) {
      ah = HashCombine(ah, t.is_constant()
                               ? 0xC000000000ULL +
                                     static_cast<std::uint64_t>(t.id())
                               : colors.at(t.id()));
    }
    atom_hashes.push_back(ah);
  }
  std::sort(atom_hashes.begin(), atom_hashes.end());
  for (std::uint64_t ah : atom_hashes) h = HashCombine(h, ah);
  return h;
}

std::string CanonicalFormKey(const ConjunctiveQuery& canonical) {
  auto append_term = [](std::string* key, Term t) {
    StrAppend(key, t.is_constant() ? 'c' : 'v', t.id(), ',');
  };
  std::string key = StrCat("h", canonical.arity(), "[");
  for (Term t : canonical.answer_terms()) append_term(&key, t);
  key += ']';
  for (const Atom& atom : canonical.body()) {
    StrAppend(&key, "|p", atom.predicate(), "(");
    for (Term t : atom.terms()) append_term(&key, t);
    key += ')';
  }
  return key;
}

std::string CanonicalCqKey(const ConjunctiveQuery& cq) {
  return CanonicalFormKey(CanonicalizeCq(cq));
}

}  // namespace ontorew
