#include "inputs.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>

#include "base/rng.h"
#include "base/strings.h"
#include "chase/chase.h"
#include "db/eval.h"
#include "db/facts_io.h"
#include "db/value.h"
#include "logic/canonical.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/query.h"
#include "measure.h"
#include "workload/generators.h"
#include "workload/university.h"

namespace ontobench {

using ontorew::Atom;
using ontorew::ConjunctiveQuery;
using ontorew::Database;
using ontorew::PredicateId;
using ontorew::Rng;
using ontorew::StatusOr;
using ontorew::StrCat;
using ontorew::Term;
using ontorew::TgdProgram;
using ontorew::Tuple;
using ontorew::UnionOfCqs;
using ontorew::Value;
using ontorew::VariableId;
using ontorew::Vocabulary;

namespace {

ontorew::ConstantId Constant(Vocabulary* vocab, const std::string& name) {
  return vocab->InternConstant(name);
}

// Parses a program the generator itself printed; failure is a bug here.
TgdProgram MustParseProgram(const std::string& text, Vocabulary* vocab) {
  StatusOr<TgdProgram> program = ontorew::ParseProgram(text, vocab);
  OREW_CHECK(program.ok()) << program.status();
  return std::move(program).value();
}

bool Connected(const ConjunctiveQuery& cq) {
  const std::vector<Atom>& body = cq.body();
  std::vector<bool> reached(body.size(), false);
  std::vector<std::size_t> frontier = {0};
  reached[0] = true;
  while (!frontier.empty()) {
    const std::size_t a = frontier.back();
    frontier.pop_back();
    for (std::size_t b = 0; b < body.size(); ++b) {
      if (reached[b]) continue;
      for (const Term& t : body[a].terms()) {
        if (t.is_variable() && body[b].ContainsTerm(t)) {
          reached[b] = true;
          frontier.push_back(b);
          break;
        }
      }
    }
  }
  for (bool r : reached) {
    if (!r) return false;
  }
  return true;
}

template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1],
              (*items)[static_cast<std::size_t>(rng->Uniform(static_cast<int>(i)))]);
  }
}

// A random connected CQ over `preds` in the spirit of RandomCq, but
// connected by construction: every atom after the first reuses one
// variable already in the body. One or two answer variables.
ConjunctiveQuery ConnectedCq(const std::vector<PredicateId>& preds, int atoms,
                             Rng* rng, Vocabulary* vocab) {
  std::vector<Term> used;
  std::vector<Atom> body;
  for (int a = 0; a < atoms; ++a) {
    const PredicateId pred = preds[static_cast<std::size_t>(
        rng->Uniform(static_cast<int>(preds.size())))];
    const int arity = vocab->PredicateArity(pred);
    const int shared = used.empty() ? -1 : rng->Uniform(arity);
    std::vector<Term> terms;
    for (int i = 0; i < arity; ++i) {
      if (i == shared) {
        terms.push_back(used[static_cast<std::size_t>(
            rng->Uniform(static_cast<int>(used.size())))]);
      } else {
        terms.push_back(Term::Var(
            vocab->InternVariable(StrCat("X", static_cast<int>(used.size()) +
                                                   i))));
      }
    }
    used.insert(used.end(), terms.begin(), terms.end());
    body.emplace_back(pred, std::move(terms));
  }
  std::vector<VariableId> vars = ontorew::DistinctVariables(body);
  vars.resize(std::min<std::size_t>(
      vars.size(), static_cast<std::size_t>(rng->UniformIn(1, 2))));
  return ConjunctiveQuery(vars, std::move(body));
}

}  // namespace

std::string UniversityProgram() {
  Vocabulary vocab;
  return ontorew::ToString(ontorew::UniversityOntology(&vocab), vocab) + "\n";
}

std::string ProductProgram(int d) {
  Vocabulary vocab;
  return ontorew::ToString(ontorew::ProductFamily(d, &vocab), vocab) + "\n";
}

std::string CompositionProgram(int n) {
  Vocabulary vocab;
  return ontorew::ToString(ontorew::CompositionFamily(n, &vocab), vocab) +
         "\n";
}

std::string ChainProgram(int n, int arity) {
  Vocabulary vocab;
  return ontorew::ToString(ontorew::ChainFamily(n, arity, &vocab), vocab) +
         "\n";
}

std::string UniversityFacts(std::uint64_t seed) {
  Vocabulary vocab;
  Rng rng(seed);
  ontorew::UniversityInstanceOptions options;
  options.num_professors = 4;
  options.num_lecturers = 6;
  options.num_students = 48;
  options.num_phd_students = 6;
  options.num_courses = 12;
  Database db = ontorew::UniversityInstance(options, &rng, &vocab);

  // The instance stores no acquaintance. Every person knows the next two
  // in a seeded shuffle of the population: a ring, the same shape for
  // every seed, so the person/knows chains cost the same work each run.
  std::vector<std::string> people;
  for (int i = 0; i < options.num_professors; ++i) {
    people.push_back(StrCat("prof", i));
  }
  for (int i = 0; i < options.num_lecturers; ++i) {
    people.push_back(StrCat("lect", i));
  }
  for (int i = 0; i < options.num_students; ++i) {
    people.push_back(StrCat("stud", i));
  }
  for (int i = 0; i < options.num_phd_students; ++i) {
    people.push_back(StrCat("phd", i));
  }
  Shuffle(&people, &rng);
  const PredicateId knows = vocab.MustPredicate("knows", 2);
  const std::size_t n = people.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t hop = 1; hop <= 2; ++hop) {
      db.Insert(knows, {Value::Constant(Constant(&vocab, people[i])),
                        Value::Constant(Constant(&vocab, people[(i + hop) % n]))});
    }
  }
  return ontorew::FactsToString(db, vocab);
}

std::string ProductFacts(int d, int nodes, std::uint64_t seed) {
  Vocabulary vocab;
  ontorew::ProductFamily(d, &vocab);
  Rng rng(seed);
  Database db;
  const PredicateId p = vocab.MustPredicate("p", 1);
  const PredicateId r = vocab.MustPredicate("r", 2);
  // A seeded shuffle of the nodes laid on a ring: each links to the next
  // one and the one five further on, the same shape for every seed. Node
  // j of the ring carries s_{j mod d}, and every sixth node also a direct
  // p fact, so every rule of the program has data and every k answers.
  std::vector<int> ring(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) ring[static_cast<std::size_t>(i)] = i;
  Shuffle(&ring, &rng);
  auto node = [&vocab, &ring, nodes](int j) {
    return Value::Constant(Constant(
        &vocab, StrCat("n", ring[static_cast<std::size_t>(j % nodes)])));
  };
  for (int j = 0; j < nodes; ++j) {
    db.Insert(vocab.MustPredicate(StrCat("s", j % d), 1), {node(j)});
    if (j % 6 == 0) db.Insert(p, {node(j)});
    db.Insert(r, {node(j), node(j + 1)});
    db.Insert(r, {node(j), node(j + 5)});
  }
  return ontorew::FactsToString(db, vocab);
}

std::string RandomFacts(const std::string& program_text,
                        int tuples_per_predicate, int domain,
                        std::uint64_t seed) {
  Vocabulary vocab;
  const TgdProgram program = MustParseProgram(program_text, &vocab);
  Rng rng(seed);
  const Database db = ontorew::RandomDatabase(program, tuples_per_predicate,
                                              domain, &rng, &vocab);
  return ontorew::FactsToString(db, vocab);
}

std::vector<std::string> UniversityQueryPool(std::uint64_t seed, int count) {
  Vocabulary vocab;
  MustParseProgram(UniversityProgram(), &vocab);
  const std::vector<PredicateId> preds = {
      vocab.FindPredicate("professor"), vocab.FindPredicate("lecturer"),
      vocab.FindPredicate("phd"),       vocab.FindPredicate("faculty"),
      vocab.FindPredicate("person"),    vocab.FindPredicate("student"),
      vocab.FindPredicate("course"),    vocab.FindPredicate("teaches"),
      vocab.FindPredicate("enrolled"),  vocab.FindPredicate("advises"),
      vocab.MustPredicate("knows", 2)};

  std::vector<std::string> pool = {
      "q(X0) :- person(X0), knows(X0, X1), person(X1).",
      "q(X0) :- person(X0), knows(X0, X1), person(X1), knows(X1, X2), "
      "person(X2)."};
  std::set<std::string> keys;
  for (const std::string& text : pool) {
    StatusOr<ConjunctiveQuery> cq = ontorew::ParseQuery(text, &vocab);
    OREW_CHECK(cq.ok()) << cq.status();
    keys.insert(ontorew::CanonicalCqKey(*cq));
  }
  Rng rng(seed);
  for (int attempt = 0;
       static_cast<int>(pool.size()) < count && attempt < 100 * count;
       ++attempt) {
    const ConjunctiveQuery cq =
        ConnectedCq(preds, rng.UniformIn(1, 3), &rng, &vocab);
    if (!keys.insert(ontorew::CanonicalCqKey(cq)).second) continue;
    pool.push_back(ontorew::ToString(cq, vocab));
  }
  return pool;
}

std::string ProductQueryText(int k) {
  Vocabulary vocab;
  ontorew::ProductFamily(1, &vocab);
  return ontorew::ToString(ontorew::ProductQuery(k, &vocab), vocab);
}

struct ShapeGenerator::State {
  Vocabulary vocab;
  std::vector<PredicateId> preds;  // The program's.
  int min_atoms = 1;
  int max_atoms = 1;
  Rng rng{0};
  std::vector<ontorew::ConstantId> constants;  // Those of the facts.
  // Renaming-invariant hashes of every query handed out. Isomorphic
  // queries hash equally, so a fresh hash is a fresh cache key (a rare
  // collision only skips a draw).
  std::unordered_set<std::uint64_t> hashes;
};

ShapeGenerator::ShapeGenerator(const std::string& program_text,
                               const std::string& facts_text, int min_atoms,
                               int max_atoms, std::uint64_t seed)
    : state_(std::make_unique<State>()) {
  state_->preds =
      MustParseProgram(program_text, &state_->vocab).Predicates();
  StatusOr<Database> facts = ontorew::ParseFacts(facts_text, &state_->vocab);
  OREW_CHECK(facts.ok()) << facts.status();
  std::set<ontorew::ConstantId> constants;
  for (PredicateId p : facts->PredicatesPresent()) {
    for (const Tuple& tuple : facts->Find(p)->tuples()) {
      for (const Value& v : tuple) {
        if (v.is_constant()) constants.insert(v.id());
      }
    }
  }
  state_->constants.assign(constants.begin(), constants.end());
  OREW_CHECK(!state_->constants.empty());
  state_->min_atoms = min_atoms;
  state_->max_atoms = max_atoms;
  state_->rng = Rng(seed);
}

ShapeGenerator::ShapeGenerator(ShapeGenerator&&) noexcept = default;
ShapeGenerator::~ShapeGenerator() = default;

std::string ShapeGenerator::Next() {
  State& s = *state_;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    const int atoms = s.rng.UniformIn(s.min_atoms, s.max_atoms);
    const ConjunctiveQuery shape = ConnectedCq(s.preds, atoms, &s.rng, &s.vocab);
    // Bind one existential variable to a constant of the data: the shape
    // keeps its rewriting cost, and the constant makes the cache key new.
    const std::vector<VariableId> existential = shape.ExistentialVariables();
    if (existential.empty()) continue;
    const Term bound = Term::Var(existential[static_cast<std::size_t>(
        s.rng.Uniform(static_cast<int>(existential.size())))]);
    const Term constant = Term::Const(s.constants[static_cast<std::size_t>(
        s.rng.Uniform(static_cast<int>(s.constants.size())))]);
    std::vector<Atom> body;
    for (const Atom& atom : shape.body()) {
      std::vector<Term> terms = atom.terms();
      std::replace(terms.begin(), terms.end(), bound, constant);
      body.emplace_back(atom.predicate(), std::move(terms));
    }
    const ConjunctiveQuery cq(shape.answer_terms(), std::move(body));
    if (!Connected(cq)) continue;
    if (!s.hashes.insert(ontorew::InvariantCqHash(cq)).second) continue;
    return ontorew::ToString(cq, s.vocab);
  }
  return "";
}

StatusOr<std::unique_ptr<Oracle>> Oracle::Build(
    const std::string& program_text, const std::string& facts_text) {
  std::unique_ptr<Oracle> oracle(new Oracle());
  OREW_ASSIGN_OR_RETURN(oracle->program_,
                        ontorew::ParseProgram(program_text, &oracle->vocab_));
  OREW_ASSIGN_OR_RETURN(oracle->input_,
                        ontorew::ParseFacts(facts_text, &oracle->vocab_));
  ontorew::ChaseResult chase =
      ontorew::RunChase(oracle->program_, oracle->input_);
  OREW_RETURN_IF_ERROR(chase.status);
  if (!chase.terminated) {
    return ontorew::ResourceExhaustedError(
        "oracle chase did not terminate; certain answers are unknown");
  }
  oracle->chased_ = std::move(chase.db);
  return oracle;
}

StatusOr<Expected> Oracle::Answers(const std::string& query_text) {
  auto it = memo_.find(query_text);
  if (it != memo_.end()) return it->second;
  OREW_ASSIGN_OR_RETURN(ConjunctiveQuery cq,
                        ontorew::ParseQuery(query_text, &vocab_));
  const UnionOfCqs query(std::move(cq));
  ontorew::EvalOptions eval;
  eval.drop_tuples_with_nulls = true;
  OREW_ASSIGN_OR_RETURN(std::vector<Tuple> answers,
                        ontorew::TryEvaluate(query, chased_, eval));
  if (cross_checks_left_ > 0) {
    --cross_checks_left_;
    OREW_ASSIGN_OR_RETURN(
        std::vector<Tuple> direct,
        ontorew::CertainAnswersViaChase(query, program_, input_));
    if (direct != answers) {
      return ontorew::InternalError(
          StrCat("oracle disagrees with CertainAnswersViaChase on ",
                 query_text));
    }
  }
  std::vector<std::string> rows;
  rows.reserve(answers.size());
  for (const Tuple& tuple : answers) {
    rows.push_back(ontorew::ToString(tuple, vocab_));
  }
  Expected expected{DigestRows(std::move(rows)), answers.size()};
  memo_.emplace(query_text, expected);
  return expected;
}

}  // namespace ontobench
