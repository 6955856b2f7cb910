#ifndef ONTOREW_CORE_PNODE_GRAPH_H_
#define ONTOREW_CORE_PNODE_GRAPH_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "core/pnode.h"
#include "graph/digraph.h"
#include "logic/program.h"
#include "logic/vocabulary.h"

// The P-node graph of a set of single-head TGDs — the refinement of the
// position graph that handles constants and repeated variables (paper,
// Section 6). The paper defers the formal definition to an unpublished
// manuscript; this is the documented reconstruction of DESIGN.md Section 3,
// validated against Examples 1–3 and Figure 3:
//
//   * Initial nodes: ⟨canon(α), {canon(α)}⟩ for each TGD head atom α.
//   * From ⟨σ, Σ⟩ and TGD R : body → α, unify σ with a fresh copy of α.
//     The application is admissible iff no existential head variable of R
//     is identified with a constant, with another head variable, or with a
//     σ-term that is repeated in σ or occurs elsewhere in the context Σ
//     (an existential witness can only absorb an unbound, non-shared
//     query variable — this is what terminates Example 3's apparent
//     recursion).
//   * Each body atom β of the instantiated body B yields successors:
//     (a) ⟨canon(β), canon(B)⟩ with no trace; (b) one trace successor per
//     existential body variable of R occurring in β (marked z); (c) the
//     trace-continuation successor when σ's z survives into β.
//   * Labels: m on edges to β if some distinguished variable of R (after
//     unification) misses β; s on all edges of the application if the
//     traced or a fresh existential variable occurs in >= 2 body atoms;
//     d on all edges if some body atom drops one of σ's bounded terms
//     (constants / generic x-variables); i on edges to β if β is isolated
//     in R (shares no variable with the head or the rest of the body).
//
// The node space is finite (P-atoms over X_P plus bounded contexts), so
// the saturation terminates; it can be exponential (the paper conjectures
// PSPACE membership for WR), hence the configurable node cap.

namespace ontorew {

struct PNodeGraphOptions {
  // Abort with ResourceExhausted beyond this many nodes.
  int max_nodes = 200000;
};

class PNodeGraph {
 public:
  // Which backward application produced an edge, and which successor kind
  // it is: 'a' generic, 'b' fresh trace, 'c' trace continuation.
  struct EdgeProvenance {
    int rule_index = -1;
    int body_atom_index = -1;
    char kind = 'a';
  };

  // Requires a single-head program (the scope of the paper's first
  // generalization step); FailedPrecondition otherwise.
  static StatusOr<PNodeGraph> Build(const TgdProgram& program,
                                    const PNodeGraphOptions& options = {});

  // As Build, but saturates from the given seed P-nodes instead of the
  // rule heads — the basis of the per-query safety analysis
  // (core/query_analysis.h): only the rewriting behaviour *reachable from
  // a particular query shape* is explored.
  static StatusOr<PNodeGraph> BuildFromSeeds(const TgdProgram& program,
                                             const std::vector<PNode>& seeds,
                                             const PNodeGraphOptions& options
                                             = {});

  const LabeledDigraph& graph() const { return graph_; }
  const std::vector<PNode>& nodes() const { return nodes_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Provenance of edge `e` (aligned with graph().edges()).
  const EdgeProvenance& edge_provenance(int e) const {
    return edge_provenance_[static_cast<std::size_t>(e)];
  }

  std::vector<std::string> NodeNames(const Vocabulary& vocab) const;
  std::string ToDot(const Vocabulary& vocab) const;

 private:
  LabeledDigraph graph_;
  std::vector<PNode> nodes_;
  std::vector<EdgeProvenance> edge_provenance_;
};

}  // namespace ontorew

#endif  // ONTOREW_CORE_PNODE_GRAPH_H_
