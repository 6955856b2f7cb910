#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <unordered_set>
#include <vector>

#include "base/deadline.h"
#include "base/rng.h"
#include "base/strings.h"
#include "gtest/gtest.h"
#include "logic/canonical.h"
#include "rewriting/containment.h"
#include "rewriting/dag_rewriter.h"
#include "rewriting/datalog.h"
#include "rewriting/rewriter.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/university.h"

// Property: factoring is lossless. For any saturated union U,
// UnfoldDatalog(FactorUcq(U)) must be CQ-for-CQ equivalent to U — every
// unfolded disjunct hom-equivalent (rewriting/containment.h) to some
// input disjunct and vice versa. Run over seeded random programs with
// the rewriter's eager-subsumption pruning both on and off, so the
// factoring sees both minimized and redundant unions.

namespace ontorew {
namespace {

// True iff every disjunct of `a` is CqEquivalent to some disjunct of `b`.
bool EachDisjunctHasEquivalent(const UnionOfCqs& a, const UnionOfCqs& b,
                               std::string* missing) {
  for (const ConjunctiveQuery& cq : a.disjuncts()) {
    bool found = false;
    for (const ConjunctiveQuery& other : b.disjuncts()) {
      if (CqEquivalent(cq, other)) {
        found = true;
        break;
      }
    }
    if (!found) {
      *missing = CanonicalCqKey(cq);
      return false;
    }
  }
  return true;
}

// Factors `ucq` and checks the unfolding round-trips. Returns false (with
// a gtest failure) on any violation.
void CheckRoundTrip(const UnionOfCqs& ucq, const std::string& label) {
  StatusOr<DatalogProgram> factored = FactorUcq(ucq);
  ASSERT_TRUE(factored.ok()) << label << ": " << factored.status().ToString();
  ASSERT_TRUE(factored->Validate().ok())
      << label << ": " << factored->Validate().ToString();
  StatusOr<UnionOfCqs> unfolded = UnfoldDatalog(*factored);
  ASSERT_TRUE(unfolded.ok()) << label << ": " << unfolded.status().ToString();
  std::string missing;
  EXPECT_TRUE(EachDisjunctHasEquivalent(*unfolded, ucq, &missing))
      << label << ": unfolded disjunct not covered by input: " << missing;
  EXPECT_TRUE(EachDisjunctHasEquivalent(ucq, *unfolded, &missing))
      << label << ": input disjunct lost by factoring: " << missing;
}

// Mirrors the differential harness's generator recipe so the factoring
// sees the same input space the cross-backend check runs on.
UnionOfCqs SaturatedUnion(std::uint64_t seed, bool eager_subsumption,
                          bool* rewrote) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + seed);
  Vocabulary vocab;
  TgdProgram program;
  if (seed % 2 == 0) {
    program = RandomLinearProgram(rng.UniformIn(3, 6), rng.UniformIn(3, 5),
                                  rng.UniformIn(1, 3), 0.4, &rng, &vocab);
  } else {
    RandomProgramOptions options;
    options.num_rules = rng.UniformIn(3, 7);
    options.num_predicates = rng.UniformIn(3, 5);
    options.max_arity = 3;
    options.max_body_atoms = 2;
    options.max_head_atoms = 1;
    options.existential_prob = 0.3;
    options.repeat_prob = 0.2;
    options.constant_prob = 0.15;
    options.num_constants = 3;
    program = RandomProgram(options, &rng, &vocab);
  }
  ConjunctiveQuery query = RandomCq(program, rng.UniformIn(1, 3),
                                    rng.UniformIn(0, 2), &rng, &vocab);
  RewriterOptions options;
  options.max_cqs = 3000;
  options.cancel = CancelScope(Deadline::AfterMillis(2000));
  options.eager_subsumption = eager_subsumption;
  StatusOr<RewriteResult> result = RewriteCq(query, program, options);
  *rewrote = result.ok();
  return result.ok() ? result->ucq : UnionOfCqs(query);
}

TEST(DatalogFactoringTest, UnfoldingRoundTripsOverSeededPrograms) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 110; ++seed) {
    for (bool eager : {false, true}) {
      bool rewrote = false;
      UnionOfCqs ucq = SaturatedUnion(seed, eager, &rewrote);
      if (!rewrote) continue;  // Budget skip, counted below.
      ++compared;
      CheckRoundTrip(ucq, StrCat("seed ", seed, " eager=", eager));
      if (::testing::Test::HasFailure()) return;
    }
  }
  RecordProperty("compared", compared);
  // >= 100 programs must actually exercise the factoring (both
  // subsumption modes count: the unions genuinely differ).
  EXPECT_GE(compared, 100) << "too few seeds saturated within budget";
}

// university_q3 is the motivating workload: 1000 flat disjuncts must
// collapse to a program whose unfolding is the same union. Also pins the
// compression itself so a factoring regression (back to the flat form)
// fails loudly, not just slowly.
TEST(DatalogFactoringTest, UniversityQ3CollapsesAndRoundTrips) {
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  ConjunctiveQuery q3 = MustQuery(
      "q(X0) :- person(X0), knows(X0, X1), person(X1), knows(X1, X2), "
      "person(X2).",
      &vocab);
  RewriterOptions options;
  options.max_cqs = 300000;
  StatusOr<RewriteResult> result = RewriteCq(q3, ontology, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->ucq.size(), 1000);

  StatusOr<DatalogProgram> factored = FactorUcq(result->ucq);
  ASSERT_TRUE(factored.ok()) << factored.status().ToString();
  EXPECT_GE(factored->cte_count(), 1);
  EXPECT_LT(factored->total_rules(), 100)
      << "factoring stopped compressing:\n"
      << DatalogToString(*factored, vocab);
  EXPECT_LT(static_cast<int>(factored->output.size()), 50);

  StatusOr<UnionOfCqs> unfolded = UnfoldDatalog(*factored);
  ASSERT_TRUE(unfolded.ok()) << unfolded.status().ToString();
  // The factoring is exact (not just hom-equivalent) here: unfolding
  // reproduces the identical canonical disjunct set.
  std::unordered_set<std::string> input_keys;
  for (const ConjunctiveQuery& cq : result->ucq.disjuncts()) {
    input_keys.insert(CanonicalCqKey(cq));
  }
  std::unordered_set<std::string> unfolded_keys;
  for (const ConjunctiveQuery& cq : unfolded->disjuncts()) {
    unfolded_keys.insert(CanonicalCqKey(cq));
  }
  EXPECT_EQ(input_keys, unfolded_keys);
}

// Unions with nothing shared must pass through unfactored: the program
// degenerates to one output rule per disjunct and no aux predicates.
TEST(DatalogFactoringTest, UnsharedUnionIsLeftFlat) {
  Vocabulary vocab;
  UnionOfCqs ucq;
  ucq.Add(MustQuery("q(X) :- p(X).", &vocab));
  ucq.Add(MustQuery("q(X) :- r(X, Y).", &vocab));
  StatusOr<DatalogProgram> factored = FactorUcq(ucq);
  ASSERT_TRUE(factored.ok()) << factored.status().ToString();
  EXPECT_EQ(factored->cte_count(), 0);
  EXPECT_EQ(static_cast<int>(factored->output.size()), 2);
}

// A shared single-atom slot across two join positions (the q2 shape in
// miniature): the 4-arm product must collapse to ONE output rule over at
// most two auxes (which factorization the greedy picks first is not
// pinned — both fully compress).
TEST(DatalogFactoringTest, SharedSlotReusesOneAux) {
  Vocabulary vocab;
  UnionOfCqs ucq;
  for (const char* a : {"p", "r"}) {
    for (const char* b : {"p", "r"}) {
      ucq.Add(MustQuery(
          StrCat("q(X) :- ", a, "(X), knows(X, Y), ", b, "(Y).", ""), &vocab));
    }
  }
  StatusOr<DatalogProgram> factored = FactorUcq(ucq);
  ASSERT_TRUE(factored.ok()) << factored.status().ToString();
  EXPECT_GE(factored->cte_count(), 1) << DatalogToString(*factored, vocab);
  EXPECT_LE(factored->cte_count(), 2) << DatalogToString(*factored, vocab);
  EXPECT_EQ(static_cast<int>(factored->output.size()), 1)
      << DatalogToString(*factored, vocab);
  StatusOr<UnionOfCqs> unfolded = UnfoldDatalog(*factored);
  ASSERT_TRUE(unfolded.ok());
  EXPECT_EQ(unfolded->size(), 4);
}

// Boolean (0-ary) queries and constants survive the round-trip.
TEST(DatalogFactoringTest, BooleanAndConstantUnionsRoundTrip) {
  Vocabulary vocab;
  UnionOfCqs boolean;
  boolean.Add(MustQuery("q() :- p(X), edge(X, Y).", &vocab));
  boolean.Add(MustQuery("q() :- r(X), edge(X, Y).", &vocab));
  CheckRoundTrip(boolean, "boolean");

  // A 0-ary shared slot: the merged aux itself is propositional.
  UnionOfCqs propositional;
  propositional.Add(MustQuery("q() :- p(X), m1().", &vocab));
  propositional.Add(MustQuery("q() :- p(X), m2().", &vocab));
  StatusOr<DatalogProgram> factored = FactorUcq(propositional);
  ASSERT_TRUE(factored.ok()) << factored.status().ToString();
  EXPECT_EQ(factored->cte_count(), 1);
  EXPECT_EQ(factored->aux[0].arity, 0);
  CheckRoundTrip(propositional, "propositional");

  UnionOfCqs constants;
  constants.Add(MustQuery("q(X) :- p(X), edge(X, a).", &vocab));
  constants.Add(MustQuery("q(X) :- r(X), edge(X, a).", &vocab));
  CheckRoundTrip(constants, "constants");
}

// UnfoldDatalog counts before it builds: ProductQuery(k) over
// ProductFamily(8) implies 9^k disjuncts, so k = 7 and k = 8 fail with
// ResourceExhausted at once, and a 21-fold product of a 9-rule aux
// (9^21 > INT64_MAX) saturates the count instead of overflowing it.
TEST(DatalogFactoringTest, UnfoldPastTheCapFailsBeforeBuilding) {
  auto expect_exhausted = [](const DatalogProgram& program) {
    StatusOr<UnionOfCqs> unfolded = UnfoldDatalog(program);
    ASSERT_FALSE(unfolded.ok());
    EXPECT_EQ(unfolded.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(unfolded.status().message(),
              "unfolding exceeds 1048576 disjuncts");
  };
  Vocabulary vocab;
  TgdProgram program = ProductFamily(8, &vocab);
  for (const auto& [k, implied] :
       {std::pair<int, std::int64_t>{7, 4782969}, {8, 43046721}}) {
    SCOPED_TRACE(StrCat("k=", k));
    StatusOr<DagRewriteResult> dag =
        RewriteToDatalog(UnionOfCqs(ProductQuery(k, &vocab)), program);
    ASSERT_TRUE(dag.ok()) << dag.status();
    EXPECT_EQ(UnfoldedDisjuncts(dag->program), implied);
    expect_exhausted(dag->program);
  }

  DatalogProgram wide;
  wide.arity = 0;
  DatalogAux hub{1, {}};
  for (int j = 0; j < 9; ++j) {
    hub.rules.push_back(DatalogRule{
        {Term::Var(0)},
        {Atom(vocab.MustPredicate(StrCat("s", j), 1), {Term::Var(0)})}});
  }
  wide.aux.push_back(std::move(hub));
  DatalogRule product;
  for (int i = 0; i < 21; ++i) {
    product.body.push_back(Atom(AuxPredicate(0), {Term::Var(i)}));
  }
  wide.output.push_back(std::move(product));
  ASSERT_TRUE(wide.Validate().ok()) << wide.Validate();
  EXPECT_EQ(UnfoldedDisjuncts(wide), std::numeric_limits<std::int64_t>::max());
  expect_exhausted(wide);
}

// Under the cap the count is exact and the unfolding is unchanged:
// CQ-for-CQ the flat rewriting, nested aux predicates included.
TEST(DatalogFactoringTest, UnfoldUnderTheCapIsExact) {
  Vocabulary vocab;
  TgdProgram program = ProductFamily(3, &vocab);
  const ConjunctiveQuery query = ProductQuery(4, &vocab);
  StatusOr<DagRewriteResult> dag =
      RewriteToDatalog(UnionOfCqs(query), program);
  ASSERT_TRUE(dag.ok()) << dag.status();
  EXPECT_EQ(UnfoldedDisjuncts(dag->program), 256);
  StatusOr<UnionOfCqs> unfolded = UnfoldDatalog(dag->program);
  ASSERT_TRUE(unfolded.ok()) << unfolded.status();
  EXPECT_EQ(unfolded->size(), 256);
  StatusOr<RewriteResult> flat = RewriteCq(query, program);
  ASSERT_TRUE(flat.ok()) << flat.status();
  std::string missing;
  EXPECT_TRUE(EachDisjunctHasEquivalent(*unfolded, flat->ucq, &missing))
      << missing;
  EXPECT_TRUE(EachDisjunctHasEquivalent(flat->ucq, *unfolded, &missing))
      << missing;

  // orw1 nests orw0 twice (3 * 3) beside one base rule: width 10; the
  // output rules contribute 10 * 3 + 1.
  const PredicateId a = vocab.MustPredicate("a", 1);
  const PredicateId b = vocab.MustPredicate("b", 1);
  const PredicateId c = vocab.MustPredicate("c", 1);
  const Term x = Term::Var(0);
  DatalogProgram nested;
  nested.arity = 1;
  nested.aux.push_back(DatalogAux{
      1, {DatalogRule{{x}, {Atom(a, {x})}}, DatalogRule{{x}, {Atom(b, {x})}},
          DatalogRule{{x}, {Atom(c, {x})}}}});
  const Atom orw0(AuxPredicate(0), {x});
  const Atom orw1(AuxPredicate(1), {x});
  nested.aux.push_back(DatalogAux{1,
                                  {DatalogRule{{x}, {orw0, orw0}},
                                   DatalogRule{{x}, {Atom(c, {x})}}}});
  nested.output.push_back(DatalogRule{{x}, {orw1, orw0}});
  nested.output.push_back(DatalogRule{{x}, {Atom(a, {x})}});
  ASSERT_TRUE(nested.Validate().ok()) << nested.Validate();
  EXPECT_EQ(UnfoldedDisjuncts(nested), 31);
  StatusOr<UnionOfCqs> nested_unfolded = UnfoldDatalog(nested);
  ASSERT_TRUE(nested_unfolded.ok()) << nested_unfolded.status();
  EXPECT_EQ(nested_unfolded->size(), 31);
}

}  // namespace
}  // namespace ontorew
