#include "backend/backend.h"

#include <memory>
#include <string>
#include <vector>

#include "backend/sqlite_backend.h"
#include "base/deadline.h"
#include "base/fault_point.h"
#include "base/rng.h"
#include "base/strings.h"
#include "base/trace.h"
#include "db/eval.h"
#include "gtest/gtest.h"
#include "rewriting/dag_rewriter.h"
#include "rewriting/datalog.h"
#include "rewriting/rewriter.h"
#include "rewriting/sql.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/university.h"

// Round-trip tests: the emitted SQL is *executed* on real SQLite and the
// decoded answers compared against the in-memory evaluator — asserting
// results, not strings. Every historical emission bug class (reserved
// words, quote escaping, boolean queries, repeated variables, 0-ary DDL)
// gets an executed regression here.

namespace ontorew {
namespace {

// Loads `db` into both backends and checks that they agree with the
// reference evaluator on `ucq`; returns the answers.
std::vector<Tuple> ExpectBackendsAgree(const TgdProgram& program,
                                       const Database& db,
                                       const UnionOfCqs& ucq,
                                       Vocabulary* vocab) {
  EvalOptions reference_options{.drop_tuples_with_nulls = true, .cancel = {}};
  std::vector<Tuple> reference = Evaluate(ucq, db, reference_options);

  InMemoryBackend memory;
  EXPECT_TRUE(memory.Load(program, db).ok());
  SqliteBackend sqlite(vocab);
  Status load = sqlite.Load(program, db);
  EXPECT_TRUE(load.ok()) << load;

  BackendExecOptions exec;
  StatusOr<std::vector<Tuple>> from_memory = memory.Execute(ucq, exec);
  StatusOr<std::vector<Tuple>> from_sqlite = sqlite.Execute(ucq, exec);
  EXPECT_TRUE(from_memory.ok()) << from_memory.status();
  EXPECT_TRUE(from_sqlite.ok()) << from_sqlite.status();
  if (from_memory.ok() && from_sqlite.ok()) {
    EXPECT_EQ(*from_memory, reference);
    EXPECT_EQ(*from_sqlite, reference);
  }
  return reference;
}

// Constant c<i>.
Value PathNode(Vocabulary* vocab, int i) {
  return Value::Constant(vocab->InternConstant(StrCat("c", i)));
}

TEST(BackendTest, SingleTableProjectionExecutes) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  Database db;
  PredicateId r = vocab.FindPredicate("r");
  auto c = [&](const char* name) {
    return Value::Constant(vocab.InternConstant(name));
  };
  db.Insert(r, {c("a"), c("b")});
  db.Insert(r, {c("b"), c("c")});

  UnionOfCqs q(MustQuery("q(X, Y) :- r(X, Y).", &vocab));
  std::vector<Tuple> answers = ExpectBackendsAgree(program, db, q, &vocab);
  EXPECT_EQ(answers.size(), 2u);
}

TEST(BackendTest, ReservedWordPredicatesExecute) {
  // Every one of these predicate names is a SQL keyword; executing the
  // DDL and the query on real SQLite is the only honest test that the
  // quoting sweep in SqlIdentifier is complete enough.
  Vocabulary vocab;
  for (const char* keyword :
       {"order", "select", "group", "distinct", "limit", "index", "primary",
        "between", "exists", "join", "union", "check", "default", "left",
        "natural", "transaction", "values", "offset", "cast"}) {
    TgdProgram program;
    PredicateId p = vocab.MustPredicate(keyword, 2);
    Database db;
    auto c = [&](const char* name) {
      return Value::Constant(vocab.InternConstant(name));
    };
    db.Insert(p, {c("a"), c("b")});
    db.Insert(p, {c("b"), c("b")});

    ConjunctiveQuery q(
        std::vector<Term>{Term::Var(vocab.InternVariable("X"))},
        {Atom(p, {Term::Var(vocab.InternVariable("X")),
                  Term::Const(vocab.InternConstant("b"))})});
    std::vector<Tuple> answers =
        ExpectBackendsAgree(program, db, UnionOfCqs(q), &vocab);
    EXPECT_EQ(answers.size(), 2u) << "predicate '" << keyword << "'";
  }
}

TEST(BackendTest, EmbeddedQuotesRoundTrip) {
  // Constants with interior single and double quotes survive insert,
  // comparison and decode.
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 2);
  ConstantId ohara = vocab.InternConstant("\"o'hara\"");
  ConstantId tall = vocab.InternConstant("\"5\" tall\"");
  ConstantId plain = vocab.InternConstant("plain");
  Database db;
  db.Insert(r, {Value::Constant(plain), Value::Constant(ohara)});
  db.Insert(r, {Value::Constant(ohara), Value::Constant(tall)});

  // q(X) :- r(X, "o'hara"): matches exactly the first tuple.
  ConjunctiveQuery q(std::vector<Term>{Term::Var(vocab.InternVariable("X"))},
                     {Atom(r, {Term::Var(vocab.InternVariable("X")),
                               Term::Const(ohara)})});
  std::vector<Tuple> answers =
      ExpectBackendsAgree(program, db, UnionOfCqs(q), &vocab);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], Tuple{Value::Constant(plain)});

  // The decoded answer value round-trips through the interner: asking
  // for the tuple whose *answer* is the quoted constant works too.
  ConjunctiveQuery q2(std::vector<Term>{Term::Var(vocab.InternVariable("Y"))},
                      {Atom(r, {Term::Const(ohara),
                                Term::Var(vocab.InternVariable("Y"))})});
  std::vector<Tuple> answers2 =
      ExpectBackendsAgree(program, db, UnionOfCqs(q2), &vocab);
  ASSERT_EQ(answers2.size(), 1u);
  EXPECT_EQ(answers2[0], Tuple{Value::Constant(tall)});
}

TEST(BackendTest, BooleanQueryExecutes) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  Database db;
  PredicateId r = vocab.FindPredicate("r");
  db.Insert(r, {Value::Constant(vocab.InternConstant("a")),
                Value::Constant(vocab.InternConstant("b"))});

  // True: one empty tuple, not a tuple containing the literal 1.
  UnionOfCqs yes(MustQuery("q() :- r(X, Y).", &vocab));
  std::vector<Tuple> truthy = ExpectBackendsAgree(program, db, yes, &vocab);
  ASSERT_EQ(truthy.size(), 1u);
  EXPECT_TRUE(truthy[0].empty());

  // False: no rows at all (s holds no facts).
  UnionOfCqs no(MustQuery("q() :- s(X).", &vocab));
  EXPECT_TRUE(ExpectBackendsAgree(program, db, no, &vocab).empty());

  // A union of boolean disjuncts still collapses to a single empty tuple.
  UnionOfCqs both;
  both.Add(MustQuery("q() :- r(X, Y).", &vocab));
  both.Add(MustQuery("q() :- r(Y, X).", &vocab));
  EXPECT_EQ(ExpectBackendsAgree(program, db, both, &vocab).size(), 1u);
}

TEST(BackendTest, RepeatedVariableInOneAtomExecutes) {
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 3);
  auto c = [&](const char* name) {
    return Value::Constant(vocab.InternConstant(name));
  };
  Database db;
  db.Insert(r, {c("a"), c("a"), c("b")});
  db.Insert(r, {c("a"), c("b"), c("b")});
  db.Insert(r, {c("c"), c("c"), c("c")});

  // q(X, Z) :- r(X, X, Z): only the diagonal-in-the-first-two tuples.
  VariableId x = vocab.InternVariable("X");
  VariableId z = vocab.InternVariable("Z");
  ConjunctiveQuery q(std::vector<Term>{Term::Var(x), Term::Var(z)},
                     {Atom(r, {Term::Var(x), Term::Var(x), Term::Var(z)})});
  std::vector<Tuple> answers =
      ExpectBackendsAgree(program, db, UnionOfCqs(q), &vocab);
  ASSERT_EQ(answers.size(), 2u);
}

TEST(BackendTest, ZeroAryPredicateExecutes) {
  // CREATE TABLE p () is a SQL syntax error; the sentinel-column DDL from
  // TableToSql must make propositional predicates executable.
  Vocabulary vocab;
  TgdProgram program;
  PredicateId marked = vocab.MustPredicate("marked", 0);
  PredicateId unmarked = vocab.MustPredicate("unmarked", 0);
  Database db;
  db.Insert(marked, {});

  ConjunctiveQuery q_true(std::vector<Term>{}, {Atom(marked, {})});
  std::vector<Tuple> truthy =
      ExpectBackendsAgree(program, db, UnionOfCqs(q_true), &vocab);
  ASSERT_EQ(truthy.size(), 1u);
  EXPECT_TRUE(truthy[0].empty());

  ConjunctiveQuery q_false(std::vector<Term>{}, {Atom(unmarked, {})});
  EXPECT_TRUE(
      ExpectBackendsAgree(program, db, UnionOfCqs(q_false), &vocab).empty());
}

TEST(BackendTest, ConstantAnswerTermRoundTrips) {
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 1);
  ConstantId tag = vocab.InternConstant("tag");
  Database db;
  db.Insert(r, {Value::Constant(vocab.InternConstant("a"))});

  VariableId x = vocab.InternVariable("X");
  ConjunctiveQuery q(std::vector<Term>{Term::Const(tag), Term::Var(x)},
                     {Atom(r, {Term::Var(x)})});
  std::vector<Tuple> answers =
      ExpectBackendsAgree(program, db, UnionOfCqs(q), &vocab);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0][0], Value::Constant(tag));
}

TEST(BackendTest, NullsJoinByIdentityAndAreDroppedFromAnswers) {
  // A chase-produced database stores labeled nulls; the SQL encoding must
  // equate a null only with itself, and certain-answer execution must
  // drop tuples that still contain one.
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 2);
  PredicateId s = vocab.MustPredicate("s", 1);
  Database db;
  Value a = Value::Constant(vocab.InternConstant("a"));
  Value n0 = db.FreshNull();
  Value n1 = db.FreshNull();
  db.Insert(r, {a, n0});
  db.Insert(r, {n1, a});
  db.Insert(s, {n0});

  // q(X) :- r(X, Y), s(Y): Y must bind the same null in both atoms, so
  // only (a, n0) joins — and the answer `a` is null-free.
  UnionOfCqs q(MustQuery("q(X) :- r(X, Y), s(Y).", &vocab));
  std::vector<Tuple> certain =
      ExpectBackendsAgree(program, db, q, &vocab);
  ASSERT_EQ(certain.size(), 1u);
  EXPECT_EQ(certain[0], Tuple{a});

  // With drop_tuples_with_nulls off, the null answers come back — and
  // decode to the same null ids the in-memory path reports.
  UnionOfCqs all(MustQuery("q(X) :- r(X, Y).", &vocab));
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, db).ok());
  BackendExecOptions keep_nulls;
  keep_nulls.drop_tuples_with_nulls = false;
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(all, keep_nulls);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, (std::vector<Tuple>{{a}, {n1}}));
}

TEST(BackendTest, AmbiguousConstantEncodingRejectedAtLoad) {
  // `a` and `"a"` are distinct constants in-memory but identical TEXT in
  // SQL; silently loading them would make the backends disagree, so Load
  // must refuse.
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 1);
  Database db;
  db.Insert(r, {Value::Constant(vocab.InternConstant("a"))});
  db.Insert(r, {Value::Constant(vocab.InternConstant("\"a\""))});

  SqliteBackend sqlite(&vocab);
  Status load = sqlite.Load(program, db);
  EXPECT_EQ(load.code(), StatusCode::kInvalidArgument) << load;
}

TEST(BackendTest, UnknownPredicateIsEmptyNotError) {
  // The in-memory evaluator treats a relation with no facts as empty;
  // SQLite must not answer "no such table" instead.
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  Database db;

  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, db).ok());
  // `fresh` is not in the program or the data: interned after Load.
  UnionOfCqs q(MustQuery("q(X) :- fresh(X, Y).", &vocab));
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(q, {});
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_TRUE(answers->empty());
}

TEST(BackendTest, ExecuteBeforeLoadFails) {
  Vocabulary vocab;
  UnionOfCqs q(MustQuery("q(X) :- r(X).", &vocab));
  SqliteBackend sqlite(&vocab);
  EXPECT_EQ(sqlite.Execute(q, {}).status().code(),
            StatusCode::kFailedPrecondition);
  InMemoryBackend memory;
  EXPECT_EQ(memory.Execute(q, {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BackendTest, EmptyUcqIsRejectedNotEmptyAnswer) {
  // An empty union must keep failing with InvalidArgument (as UcqToSql
  // reports), not slip through the chunking loop as zero statements and
  // come back as an empty answer set.
  Vocabulary vocab;
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(TgdProgram(), Database()).ok());
  EXPECT_EQ(sqlite.Execute(UnionOfCqs(), {}).status().code(),
            StatusCode::kInvalidArgument);
}

// Five single-atom disjuncts over distinct predicates: nothing to
// factor, so FactorUcq yields one output rule per disjunct. Every
// predicate holds a shared constant (exercising cross-chunk dedup) plus
// one of its own.
UnionOfCqs MakeUnsharedUnion(int disjuncts, Database* db, Vocabulary* vocab) {
  UnionOfCqs ucq;
  for (int i = 0; i < disjuncts; ++i) {
    const std::string name = "p" + std::to_string(i);
    PredicateId p = vocab->MustPredicate(name, 1);
    db->Insert(p, {Value::Constant(vocab->InternConstant("shared"))});
    db->Insert(p, {Value::Constant(
                      vocab->InternConstant("only" + std::to_string(i)))});
    ucq.Add(MustQuery("q(X) :- " + name + "(X).", vocab));
  }
  return ucq;
}

TEST(BackendTest, OversizedUnionChunksAcrossCompoundLimit) {
  // With SQLITE_LIMIT_COMPOUND_SELECT lowered to 2, a 5-disjunct union
  // cannot be prepared as one statement; Execute must chunk it and merge
  // (sort + dedup) the per-chunk answer sets.
  Vocabulary vocab;
  Database db;
  UnionOfCqs ucq = MakeUnsharedUnion(5, &db, &vocab);
  EvalOptions reference_options{.drop_tuples_with_nulls = true, .cancel = {}};
  std::vector<Tuple> reference = Evaluate(ucq, db, reference_options);
  ASSERT_EQ(reference.size(), 6u);  // "shared" deduped across chunks.

  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(TgdProgram(), db).ok());
  ASSERT_TRUE(sqlite.SetCompoundSelectLimitForTest(2).ok());
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(ucq, {});
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, reference);
}

TEST(BackendTest, WideDatalogProgramSplitsAcrossCompoundLimit) {
  // A factored program whose output union is wider than
  // SQLITE_LIMIT_COMPOUND_SELECT cannot be emitted as one statement;
  // ExecuteDatalog splits the output union into statements, as Execute
  // does for a UCQ (it is the same path), and merges their answers.
  Vocabulary vocab;
  Database db;
  UnionOfCqs ucq = MakeUnsharedUnion(5, &db, &vocab);
  StatusOr<DatalogProgram> factored = FactorUcq(ucq);
  ASSERT_TRUE(factored.ok()) << factored.status();
  EXPECT_EQ(factored->cte_count(), 0);  // No shareable structure.
  ASSERT_GT(factored->output.size(), 2u);

  EvalOptions reference_options{.drop_tuples_with_nulls = true, .cancel = {}};
  std::vector<Tuple> reference = Evaluate(ucq, db, reference_options);

  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(TgdProgram(), db).ok());
  ASSERT_TRUE(sqlite.SetCompoundSelectLimitForTest(2).ok());
  Trace trace;
  BackendExecOptions exec;
  exec.trace = TraceContext(&trace);
  StatusOr<std::vector<Tuple>> answers =
      sqlite.ExecuteDatalog(*factored, exec);
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, reference);
  bool split = false;
  for (const SpanRecord& span : trace.Snapshot()) {
    if (span.name != "emit") continue;
    for (const auto& [key, value] : span.attributes) {
      if (key == "chunks") split = value == "3";
    }
  }
  EXPECT_TRUE(split) << "5 output rules at limit 2 are 3 statements";
}

// ProductFamily(8) data on a path c0 -> c1 -> ... -> c11 whose members
// (all but c3) are spread over p and s0..s7: ProductQuery(k) answers
// with the X0 that start k consecutive members avoiding c3 — c4 and c5
// for k = 7, c4 alone for k = 8.
Database ProductPath(Vocabulary* vocab) {
  Database db;
  for (int i = 0; i < 12; ++i) {
    if (i + 1 < 12) {
      db.Insert(vocab->FindPredicate("r"), {PathNode(vocab, i),
                                            PathNode(vocab, i + 1)});
    }
    if (i == 3) continue;
    const std::string hub = i % 9 == 8 ? "p" : StrCat("s", i % 9);
    db.Insert(vocab->FindPredicate(hub), {PathNode(vocab, i)});
  }
  return db;
}

TEST(BackendTest, WideAuxBodyNestsUnderCompoundLimit) {
  // ProductQuery(7) over ProductFamily(8) implies 9^7 disjuncts, past the
  // unfolder's cap (1 << 20), so only native execution can answer it. Its
  // one aux predicate has 9 rules: under a compound limit of 4 the CTE
  // body nests as compound sub-selects, and the answers must equal
  // SQLite's at the default limit.
  Vocabulary vocab;
  TgdProgram program = ProductFamily(8, &vocab);
  StatusOr<DagRewriteResult> dag =
      RewriteToDatalog(UnionOfCqs(ProductQuery(7, &vocab)), program);
  ASSERT_TRUE(dag.ok()) << dag.status();
  ASSERT_EQ(dag->program.aux.size(), 1u);
  ASSERT_EQ(dag->program.aux[0].rules.size(), 9u);
  EXPECT_GT(dag->implied_disjuncts, std::int64_t{1} << 20);
  const Database db = ProductPath(&vocab);

  SqliteBackend wide(&vocab);
  ASSERT_TRUE(wide.Load(program, db).ok());
  StatusOr<std::vector<Tuple>> expected =
      wide.ExecuteDatalog(dag->program, {});
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(*expected, (std::vector<Tuple>{{PathNode(&vocab, 4)},
                                           {PathNode(&vocab, 5)}}));

  SqliteBackend narrow(&vocab);
  ASSERT_TRUE(narrow.Load(program, db).ok());
  ASSERT_TRUE(narrow.SetCompoundSelectLimitForTest(4).ok());
  StatusOr<std::vector<Tuple>> answers =
      narrow.ExecuteDatalog(dag->program, {});
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(*answers, *expected);
}

TEST(BackendTest, InMemoryDatalogAnswersPastTheUnfoldCap) {
  // 9^7 and 9^8 implied disjuncts: the in-memory backend materializes the
  // one 9-rule aux predicate instead of unfolding, and answers exactly
  // what SQLite's WITH-CTE statement does.
  Vocabulary vocab;
  TgdProgram program = ProductFamily(8, &vocab);
  const Database db = ProductPath(&vocab);
  InMemoryBackend memory;
  ASSERT_TRUE(memory.Load(program, db).ok());
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, db).ok());
  const struct {
    int k;
    std::vector<Tuple> expected;
  } cases[] = {{7, {{PathNode(&vocab, 4)}, {PathNode(&vocab, 5)}}},
               {8, {{PathNode(&vocab, 4)}}}};
  for (const auto& [k, expected] : cases) {
    SCOPED_TRACE(StrCat("k=", k));
    StatusOr<DagRewriteResult> dag =
        RewriteToDatalog(UnionOfCqs(ProductQuery(k, &vocab)), program);
    ASSERT_TRUE(dag.ok()) << dag.status();
    StatusOr<std::vector<Tuple>> native =
        memory.ExecuteDatalog(dag->program, {});
    StatusOr<std::vector<Tuple>> cte = sqlite.ExecuteDatalog(dag->program, {});
    ASSERT_TRUE(native.ok()) << native.status();
    ASSERT_TRUE(cte.ok()) << cte.status();
    EXPECT_EQ(*native, expected);
    EXPECT_EQ(*cte, expected);
  }
}

TEST(BackendTest, InMemoryDatalogDeadlineDuringAuxReturnsNoAnswers) {
  // An aux rule over 2000 s0 facts scans past the cancel stride: an
  // expired deadline stops the materialization with DeadlineExceeded,
  // the output rules never run, and no partial answer set comes back.
  Vocabulary vocab;
  TgdProgram program = ProductFamily(8, &vocab);
  Database db = ProductPath(&vocab);
  for (int i = 100; i < 2100; ++i) {
    db.Insert(vocab.FindPredicate("s0"), {PathNode(&vocab, i)});
  }
  StatusOr<DagRewriteResult> dag =
      RewriteToDatalog(UnionOfCqs(ProductQuery(3, &vocab)), program);
  ASSERT_TRUE(dag.ok()) << dag.status();
  ASSERT_FALSE(dag->program.aux.empty());
  InMemoryBackend memory;
  ASSERT_TRUE(memory.Load(program, db).ok());
  ASSERT_TRUE(memory.ExecuteDatalog(dag->program, {}).ok());

  Trace trace;
  BackendExecOptions exec;
  exec.cancel = CancelScope(Deadline::AfterMillis(0));
  exec.trace = TraceContext(&trace);
  EvalStats stats;
  StatusOr<std::vector<Tuple>> answers =
      memory.ExecuteDatalog(dag->program, exec, &stats);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kDeadlineExceeded)
      << answers.status();
  int aux_spans = 0;
  for (const SpanRecord& span : trace.Snapshot()) {
    EXPECT_NE(span.name, "disjunct") << "output rules ran after the deadline";
    if (span.name != "aux") continue;
    ++aux_spans;
    bool deadline = false;
    for (const auto& [key, value] : span.attributes) {
      if (key == "status") deadline = value == "DeadlineExceeded";
    }
    EXPECT_TRUE(deadline) << "the aux span records why it stopped";
  }
  EXPECT_EQ(aux_spans, 1);
  EXPECT_GT(stats.tuples_examined, 0);
}

TEST(BackendTest, InMemoryDatalogNullsJoinOnlyWithThemselvesInAux) {
  // Chased data carries labeled nulls. Inside an aux relation they stay
  // (a null-bearing aux tuple may still join its way to a certain
  // answer), join only with the same null, and an output tuple that still
  // holds one is dropped. Both backends agree.
  Vocabulary vocab;
  const PredicateId r = vocab.MustPredicate("r", 2);
  const PredicateId t = vocab.MustPredicate("t", 2);
  const PredicateId s = vocab.MustPredicate("s", 1);
  Database db;
  const Value a = Value::Constant(vocab.InternConstant("a"));
  const Value b = Value::Constant(vocab.InternConstant("b"));
  const Value n0 = db.FreshNull();
  const Value n1 = db.FreshNull();
  const Value n2 = db.FreshNull();
  db.Insert(r, {a, n0});
  db.Insert(t, {b, n1});
  db.Insert(r, {n2, a});
  db.Insert(s, {n0});

  // orw0(X, Y) :- r(X, Y).  orw0(X, Y) :- t(X, Y).
  const Term x = Term::Var(0);
  const Term y = Term::Var(1);
  const Atom orw0(AuxPredicate(0), {x, y});
  auto program_with = [&](DatalogRule output) {
    DatalogProgram program;
    program.arity = 1;
    program.aux.push_back(DatalogAux{2,
                                     {DatalogRule{{x, y}, {Atom(r, {x, y})}},
                                      DatalogRule{{x, y}, {Atom(t, {x, y})}}}});
    program.output.push_back(std::move(output));
    return program;
  };
  // q(X) :- orw0(X, Y), s(Y): only (a, n0) meets s(n0); (b, n1) does not.
  const DatalogProgram join =
      program_with(DatalogRule{{x}, {orw0, Atom(s, {y})}});
  // q(X) :- orw0(X, Y): n2 is not a certain answer.
  const DatalogProgram project = program_with(DatalogRule{{x}, {orw0}});

  InMemoryBackend memory;
  ASSERT_TRUE(memory.Load(TgdProgram(), db).ok());
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(TgdProgram(), db).ok());
  BackendExecOptions keep_nulls;
  keep_nulls.drop_tuples_with_nulls = false;
  const struct {
    const DatalogProgram& program;
    BackendExecOptions exec;
    std::vector<Tuple> expected;
  } cases[] = {{join, {}, {{a}}},
               {project, {}, {{a}, {b}}},
               {project, keep_nulls, {{a}, {b}, {n2}}}};
  for (const auto& c : cases) {
    StatusOr<std::vector<Tuple>> native =
        memory.ExecuteDatalog(c.program, c.exec);
    StatusOr<std::vector<Tuple>> cte = sqlite.ExecuteDatalog(c.program, c.exec);
    ASSERT_TRUE(native.ok()) << native.status();
    ASSERT_TRUE(cte.ok()) << cte.status();
    EXPECT_EQ(*native, c.expected);
    EXPECT_EQ(*cte, c.expected);
  }
}

TEST(BackendTest, DeadlineMapsToProgressHandler) {
  // A cartesian product far too large to finish: the progress handler
  // must notice the deadline mid-statement and interrupt, returning
  // DeadlineExceeded promptly instead of scanning to completion.
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 2);
  Database db;
  for (int i = 0; i < 300; ++i) {
    db.Insert(r, {Value::Constant(vocab.InternConstant("x" +
                                                       std::to_string(i))),
                  Value::Constant(vocab.InternConstant("y" +
                                                       std::to_string(i)))});
  }
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, db).ok());

  UnionOfCqs q(MustQuery("q() :- r(A, B), r(C, D), r(E, F), r(G, H).",
                         &vocab));
  BackendExecOptions exec;
  exec.cancel = CancelScope(Deadline::AfterMillis(50));
  const auto start = Deadline::Clock::now();
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(q, exec);
  const auto elapsed = Deadline::Clock::now() - start;
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kDeadlineExceeded)
      << answers.status();
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(BackendTest, CancelledTokenInterruptsExecution) {
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 1);
  Database db;
  db.Insert(r, {Value::Constant(vocab.InternConstant("a"))});
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, db).ok());

  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  BackendExecOptions exec;
  exec.cancel = CancelScope(Deadline::Infinite(), token);
  UnionOfCqs q(MustQuery("q(X) :- r(X).", &vocab));
  EXPECT_EQ(sqlite.Execute(q, exec).status().code(), StatusCode::kCancelled);
}

TEST(BackendTest, InjectedBackendFaultSurfaces) {
  Vocabulary vocab;
  TgdProgram program;
  PredicateId r = vocab.MustPredicate("r", 1);
  Database db;
  db.Insert(r, {Value::Constant(vocab.InternConstant("a"))});
  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, db).ok());

  ScopedFault fault("backend.exec", {});
  UnionOfCqs q(MustQuery("q(X) :- r(X).", &vocab));
  EXPECT_EQ(sqlite.Execute(q, {}).status().code(), StatusCode::kInternal);
}

TEST(BackendTest, ReloadReplacesAllData) {
  Vocabulary vocab;
  TgdProgram program = MustProgram("r(X, Y) -> s(X).", &vocab);
  PredicateId r = vocab.FindPredicate("r");
  auto c = [&](const char* name) {
    return Value::Constant(vocab.InternConstant(name));
  };
  Database first;
  first.Insert(r, {c("a"), c("b")});
  first.Insert(r, {c("c"), c("d")});
  Database second;
  second.Insert(r, {c("e"), c("f")});

  SqliteBackend sqlite(&vocab);
  ASSERT_TRUE(sqlite.Load(program, first).ok());
  StatusOr<std::int64_t> stored = sqlite.StoredTuples();
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, 2);

  ASSERT_TRUE(sqlite.Load(program, second).ok());
  stored = sqlite.StoredTuples();
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, 1);

  UnionOfCqs q(MustQuery("q(X) :- r(X, Y).", &vocab));
  StatusOr<std::vector<Tuple>> answers = sqlite.Execute(q, {});
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, std::vector<Tuple>{{c("e")}});
}

TEST(BackendTest, UniversityRewritingAgreesAcrossBackends) {
  // The acceptance workload: every rewritten university query returns
  // identical certain-answer sets on both backends.
  Vocabulary vocab;
  TgdProgram ontology = UniversityOntology(&vocab);
  Rng rng(20240806);
  UniversityInstanceOptions options;
  options.num_professors = 5;
  options.num_lecturers = 5;
  options.num_students = 40;
  options.num_phd_students = 6;
  options.num_courses = 10;
  Database db = UniversityInstance(options, &rng, &vocab);

  for (const char* text :
       {"q(X) :- person(X).", "q(X) :- faculty(X).", "q(X) :- course(X).",
        "q(X, Y) :- teaches(X, Y).", "q(X) :- advises(X, Y), student(Y).",
        "q() :- phd(X)."}) {
    StatusOr<RewriteResult> rewriting =
        RewriteCq(MustQuery(text, &vocab), ontology);
    ASSERT_TRUE(rewriting.ok()) << text << ": " << rewriting.status();
    ExpectBackendsAgree(ontology, db, rewriting->ucq, &vocab);
  }
}

// --- SQLITE_BUSY retry/backoff ----------------------------------------------

// A tiny instance shared by the busy tests.
struct BusyFixture {
  Vocabulary vocab;
  TgdProgram program;
  Database db;
  UnionOfCqs query;

  BusyFixture()
      : program(MustProgram("r(X, Y) -> s(X).", &vocab)),
        query(MustQuery("q(X, Y) :- r(X, Y).", &vocab)) {
    PredicateId r = vocab.FindPredicate("r");
    auto c = [&](const char* name) {
      return Value::Constant(vocab.InternConstant(name));
    };
    db.Insert(r, {c("a"), c("b")});
  }
};

TEST(BackendTest, BusyRetriesExhaustToRetryableUnavailable) {
  FaultQuiesce quiesce;
  BusyFixture fx;
  SqliteBackendOptions options;
  options.busy_max_retries = 3;
  options.busy_initial_backoff = std::chrono::microseconds(50);
  options.busy_max_backoff = std::chrono::microseconds(200);
  SqliteBackend backend(&fx.vocab, options);
  ASSERT_TRUE(backend.Load(fx.program, fx.db).ok());

  // Permanent contention: every attempt reports SQLITE_BUSY. After
  // busy_max_retries backoffs the backend gives up with the RETRYABLE
  // Unavailable — the caller (or the server's client) decides whether to
  // come back, the backend never spins forever.
  FaultRegistry::Global().Arm("backend.busy", {.probability = 1.0});
  BackendExecOptions exec;
  StatusOr<std::vector<Tuple>> result = backend.Execute(fx.query, exec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryableStatusCode(result.status().code()));
  // busy_retries() counts busy HITS: three absorbed by backoff plus the
  // fourth that exhausted the cap.
  EXPECT_EQ(backend.busy_retries(), 4);
}

TEST(BackendTest, BusyBurstIsAbsorbedByBackoff) {
  FaultQuiesce quiesce;
  BusyFixture fx;
  SqliteBackendOptions options;
  options.busy_initial_backoff = std::chrono::microseconds(50);
  options.busy_max_backoff = std::chrono::microseconds(200);
  SqliteBackend backend(&fx.vocab, options);
  ASSERT_TRUE(backend.Load(fx.program, fx.db).ok());

  // A finite busy burst (three hits, then the lock clears): the bounded
  // backoff rides it out and the caller sees only a successful result.
  int busy_left = 3;
  FaultPointConfig burst;
  burst.probability = 1.0;
  burst.handler = [&busy_left](std::string_view) {
    if (busy_left > 0) {
      --busy_left;
      return InternalError("synthetic SQLITE_BUSY");
    }
    return Status::Ok();
  };
  FaultRegistry::Global().Arm("backend.busy", burst);

  BackendExecOptions exec;
  StatusOr<std::vector<Tuple>> result = backend.Execute(fx.query, exec);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 1u);
  EXPECT_EQ(busy_left, 0);
  EXPECT_GE(backend.busy_retries(), 3);
}

TEST(BackendTest, BusyBackoffRespectsRequestDeadline) {
  FaultQuiesce quiesce;
  BusyFixture fx;
  SqliteBackendOptions options;
  options.busy_max_retries = 1000;
  options.busy_initial_backoff = std::chrono::milliseconds(5);
  options.busy_max_backoff = std::chrono::milliseconds(5);
  SqliteBackend backend(&fx.vocab, options);
  ASSERT_TRUE(backend.Load(fx.program, fx.db).ok());

  FaultRegistry::Global().Arm("backend.busy", {.probability = 1.0});
  BackendExecOptions exec;
  exec.cancel = CancelScope(Deadline::AfterMillis(20));
  StatusOr<std::vector<Tuple>> result = backend.Execute(fx.query, exec);
  // The backoff loop must not sleep past the caller's budget: with a
  // 20ms deadline and 1000 permitted retries the loop stops on the
  // deadline, not the retry cap.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(backend.busy_retries(), 100);
}

}  // namespace
}  // namespace ontorew
