#include <algorithm>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "gtest/gtest.h"
#include "logic/canonical.h"
#include "test_util.h"

namespace ontorew {
namespace {

TEST(CanonicalTest, RenameByFirstOccurrence) {
  Vocabulary vocab;
  std::vector<Atom> atoms = {MustAtom("r(B, A)", &vocab),
                             MustAtom("s(A, C)", &vocab)};
  std::vector<Atom> renamed = RenameByFirstOccurrence(atoms);
  EXPECT_EQ(renamed[0].term(0), Term::Var(0));  // B -> 0
  EXPECT_EQ(renamed[0].term(1), Term::Var(1));  // A -> 1
  EXPECT_EQ(renamed[1].term(0), Term::Var(1));  // A again
  EXPECT_EQ(renamed[1].term(1), Term::Var(2));  // C -> 2
}

TEST(CanonicalTest, RenamingPreservesConstants) {
  Vocabulary vocab;
  std::vector<Atom> atoms = {MustAtom("r(X, a)", &vocab)};
  std::vector<Atom> renamed = RenameByFirstOccurrence(atoms);
  EXPECT_TRUE(renamed[0].term(1).is_constant());
}

TEST(CanonicalTest, KeyInvariantUnderVariableRenaming) {
  Vocabulary vocab;
  ConjunctiveQuery a = MustQuery("q(X) :- r(X, Y), s(Y, Z).", &vocab);
  ConjunctiveQuery b = MustQuery("q(U) :- r(U, V), s(V, W).", &vocab);
  EXPECT_EQ(CanonicalCqKey(a), CanonicalCqKey(b));
}

TEST(CanonicalTest, FormKeyRendersTheCanonicalFormAsIs) {
  Vocabulary vocab;
  ConjunctiveQuery cq = MustQuery("q(X) :- r(X, Y), s(Y, \"a\").", &vocab);
  const ConjunctiveQuery canonical = CanonicalizeCq(cq);
  EXPECT_EQ(CanonicalFormKey(canonical), CanonicalCqKey(cq));
  // No labeling search: a non-canonical spelling renders as written.
  ConjunctiveQuery renamed = MustQuery("q(B) :- r(B, A), s(A, \"a\").", &vocab);
  EXPECT_EQ(CanonicalCqKey(renamed), CanonicalCqKey(cq));
  const PredicateId r = vocab.MustPredicate("r", 2);
  const ConjunctiveQuery shifted(
      std::vector<VariableId>{7}, {Atom(r, {Term::Var(7), Term::Var(9)})});
  EXPECT_EQ(CanonicalFormKey(shifted),
            StrCat("h1[v7,]|p", r, "(v7,v9,)"));
}

TEST(CanonicalTest, KeyInvariantUnderAtomPermutation) {
  Vocabulary vocab;
  ConjunctiveQuery a = MustQuery("q(X) :- r(X, Y), s(Y, Z).", &vocab);
  ConjunctiveQuery b = MustQuery("q(X) :- s(Y, Z), r(X, Y).", &vocab);
  EXPECT_EQ(CanonicalCqKey(a), CanonicalCqKey(b));
}

TEST(CanonicalTest, DistinguishesDifferentJoins) {
  Vocabulary vocab;
  ConjunctiveQuery chain = MustQuery("q(X) :- r(X, Y), r(Y, Z).", &vocab);
  ConjunctiveQuery fork = MustQuery("q(X) :- r(X, Y), r(X, Z).", &vocab);
  EXPECT_NE(CanonicalCqKey(chain), CanonicalCqKey(fork));
}

TEST(CanonicalTest, DistinguishesAnswerArity) {
  Vocabulary vocab;
  ConjunctiveQuery one = MustQuery("q(X) :- r(X, Y).", &vocab);
  ConjunctiveQuery two = MustQuery("q(X, Y) :- r(X, Y).", &vocab);
  EXPECT_NE(CanonicalCqKey(one), CanonicalCqKey(two));
}

TEST(CanonicalTest, DistinguishesRepeatedAnswerVariables) {
  Vocabulary vocab;
  ConjunctiveQuery ab = MustQuery("q(X, Y) :- r(X, Y).", &vocab);
  ConjunctiveQuery aa = MustQuery("q(X, X) :- r(X, X).", &vocab);
  EXPECT_NE(CanonicalCqKey(ab), CanonicalCqKey(aa));
}

TEST(CanonicalTest, ConstantsKeptInKey) {
  Vocabulary vocab;
  ConjunctiveQuery a = MustQuery("q(X) :- r(X, alice).", &vocab);
  ConjunctiveQuery b = MustQuery("q(X) :- r(X, bob).", &vocab);
  EXPECT_NE(CanonicalCqKey(a), CanonicalCqKey(b));
}

// Property sweep: random CQs keep their key under random variable
// renaming + atom shuffling.
class CanonicalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalPropertyTest, KeyStableUnderIsomorphism) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1000003);
  Vocabulary vocab;
  PredicateId r = vocab.MustPredicate("r", 2);
  PredicateId s = vocab.MustPredicate("s", 3);

  for (int round = 0; round < 50; ++round) {
    int num_atoms = rng.UniformIn(1, 5);
    int num_vars = rng.UniformIn(1, 6);
    std::vector<Atom> body;
    for (int i = 0; i < num_atoms; ++i) {
      if (rng.Bernoulli(0.5)) {
        body.push_back(
            Atom(r, {Term::Var(rng.Uniform(num_vars)),
                     Term::Var(rng.Uniform(num_vars))}));
      } else {
        body.push_back(Atom(s, {Term::Var(rng.Uniform(num_vars)),
                                Term::Var(rng.Uniform(num_vars)),
                                Term::Var(rng.Uniform(num_vars))}));
      }
    }
    std::vector<VariableId> answer = {body.front().term(0).id()};
    ConjunctiveQuery original(answer, body);

    // Isomorphic copy: shift variable ids and shuffle atoms.
    const VariableId shift = 100;
    std::vector<Atom> shifted;
    for (const Atom& atom : body) {
      std::vector<Term> terms;
      for (Term t : atom.terms()) terms.push_back(Term::Var(t.id() + shift));
      shifted.emplace_back(atom.predicate(), std::move(terms));
    }
    for (int i = static_cast<int>(shifted.size()) - 1; i > 0; --i) {
      std::swap(shifted[static_cast<std::size_t>(i)],
                shifted[static_cast<std::size_t>(rng.Uniform(i + 1))]);
    }
    ConjunctiveQuery copy(std::vector<VariableId>{answer[0] + shift},
                          shifted);

    EXPECT_EQ(CanonicalCqKey(original), CanonicalCqKey(copy))
        << "round " << round;
    // Rendering a canonical form is the whole key: labeling once and
    // rendering gives exactly CanonicalCqKey's key.
    EXPECT_EQ(CanonicalFormKey(CanonicalizeCq(copy)), CanonicalCqKey(original))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ontorew
