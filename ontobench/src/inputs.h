#ifndef ONTOBENCH_INPUTS_H_
#define ONTOBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "db/database.h"
#include "logic/program.h"
#include "logic/vocabulary.h"

// Seeded inputs and the answer oracle. Everything the program under test
// receives is text generated here from the run's seed: parser-syntax
// programs, ground facts and query lines, exactly what a tenant operator
// and a client would send. The same seed always gives the same text.

namespace ontobench {

// One tenant as the server's AddTenant receives it.
struct TenantInput {
  std::string name;
  std::string program_text;
  std::string facts_text;
  bool use_sqlite = false;
};

// --- Programs ---------------------------------------------------------------

std::string UniversityProgram();
// d rules s_j(Y) -> p(Y) around the hub p (ProductFamily).
std::string ProductProgram(int d);
// r_i(X, Y), r_i(Y, Z) -> r_{i+1}(X, Z) for i < n (CompositionFamily).
std::string CompositionProgram(int n);
// p_i(X..) -> p_{i+1}(X..) for i < n (ChainFamily).
std::string ChainProgram(int n, int arity);

// --- Data -------------------------------------------------------------------

// The synthetic university instance (4 professors, 6 lecturers, 48
// students, 6 PhD students, 12 courses) plus seeded acquaintance facts:
// every person knows the next two of a seeded ring, so the person/knows
// chains have answers.
std::string UniversityFacts(std::uint64_t seed);
// Facts for ProductProgram(d) over `nodes` constants on a seeded ring:
// every node carries one s_j fact, every sixth a direct p fact, and each
// has two outgoing r links, so ProductQuery(k) has answers for every k.
std::string ProductFacts(int d, int nodes, std::uint64_t seed);
// RandomDatabase over the program's predicates.
std::string RandomFacts(const std::string& program_text,
                        int tuples_per_predicate, int domain,
                        std::uint64_t seed);

// --- Queries ----------------------------------------------------------------

// `count` distinct queries over the university predicates and knows: the
// q2 and q3 person/knows chains (q3 is 1000 disjuncts flat, one CTE
// factored), then seeded connected 1-3-atom queries with one or two
// answer variables.
std::vector<std::string> UniversityQueryPool(std::uint64_t seed, int count);
// q(X0) :- p(X0), r(X0, X1), p(X1), ... with k hub atoms.
std::string ProductQueryText(int k);

// Fresh-key query generator over one program: random connected queries
// over the program's predicates (like RandomCq, but connected by
// construction) with `min_atoms`..`max_atoms` atoms and one or two answer
// variables, one
// existential variable bound to a constant of the facts, kept only when
// connected and when no earlier draw was isomorphic to it (checked in a
// vocabulary built like the tenant's: program, then facts, so the ids
// match the server's). Each Next() is a query no earlier Next() on this
// generator shares a cache key with; the constants make that supply large
// while the shapes, and so the rewriting costs, stay the same mix.
class ShapeGenerator {
 public:
  ShapeGenerator(const std::string& program_text,
                 const std::string& facts_text, int min_atoms, int max_atoms,
                 std::uint64_t seed);
  ShapeGenerator(ShapeGenerator&&) noexcept;
  ~ShapeGenerator();
  // The next query text; empty when the shape space looks exhausted.
  std::string Next();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// --- Oracle -----------------------------------------------------------------

// Expected answers of one query: the rendered rows' digest and count.
struct Expected {
  std::uint64_t digest = 0;
  std::size_t rows = 0;
};

// Certain answers by materialization, never through the engine under
// test: the tenant's program and facts are parsed into the oracle's own
// vocabulary and chased once; each query is then evaluated over the chase
// with null-carrying tuples dropped, which is exactly what
// CertainAnswersViaChase computes. The first queries of every oracle are
// also answered by CertainAnswersViaChase itself and must agree.
class Oracle {
 public:
  static ontorew::StatusOr<std::unique_ptr<Oracle>> Build(
      const std::string& program_text, const std::string& facts_text);

  // Memoized by query text.
  ontorew::StatusOr<Expected> Answers(const std::string& query_text);

 private:
  Oracle() = default;

  ontorew::Vocabulary vocab_;
  ontorew::TgdProgram program_;
  ontorew::Database input_;
  ontorew::Database chased_;
  std::map<std::string, Expected> memo_;
  int cross_checks_left_ = 2;
};

}  // namespace ontobench

#endif  // ONTOBENCH_INPUTS_H_
