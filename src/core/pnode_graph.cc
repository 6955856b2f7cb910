#include "core/pnode_graph.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/strings.h"
#include "core/labels.h"
#include "logic/substitution.h"
#include "logic/unification.h"

namespace ontorew {
namespace {

// Rule variables are renamed into an id space disjoint from the canonical
// P-node variables (which are small: 0 = z, then 1, 2, ...).
constexpr VariableId kRuleVarBase = 1 << 20;

// A TGD with its variables renamed into the rule id space and its
// per-application facts precomputed.
struct PreparedRule {
  Atom head;
  std::vector<Atom> body;
  std::vector<VariableId> distinguished;
  std::vector<VariableId> existential_head;
  std::vector<VariableId> existential_body;
  std::vector<VariableId> head_variables;
  // isolated[j]: body atom j shares no variable with the head nor with any
  // other body atom.
  std::vector<bool> isolated;
};

Atom RenameIntoRuleSpace(
    const Atom& atom, std::unordered_map<VariableId, VariableId>* rename) {
  std::vector<Term> terms;
  terms.reserve(atom.terms().size());
  for (Term t : atom.terms()) {
    if (t.is_constant()) {
      terms.push_back(t);
      continue;
    }
    auto [it, inserted] = rename->emplace(
        t.id(), kRuleVarBase + static_cast<VariableId>(rename->size()));
    terms.push_back(Term::Var(it->second));
  }
  return Atom(atom.predicate(), std::move(terms));
}

PreparedRule PrepareRule(const Tgd& tgd) {
  std::unordered_map<VariableId, VariableId> rename;
  PreparedRule rule;
  rule.head = RenameIntoRuleSpace(tgd.head().front(), &rename);
  for (const Atom& beta : tgd.body()) {
    rule.body.push_back(RenameIntoRuleSpace(beta, &rename));
  }
  auto map_vars = [&rename](const std::vector<VariableId>& vars) {
    std::vector<VariableId> result;
    result.reserve(vars.size());
    for (VariableId v : vars) result.push_back(rename.at(v));
    return result;
  };
  rule.distinguished = map_vars(tgd.DistinguishedVariables());
  rule.existential_head = map_vars(tgd.ExistentialHeadVariables());
  rule.existential_body = map_vars(tgd.ExistentialBodyVariables());
  rule.head_variables = map_vars(tgd.HeadVariables());

  rule.isolated.resize(rule.body.size(), false);
  for (std::size_t j = 0; j < rule.body.size(); ++j) {
    bool isolated = true;
    for (Term t : rule.body[j].terms()) {
      if (!t.is_variable()) continue;
      if (rule.head.ContainsTerm(t)) {
        isolated = false;
        break;
      }
      for (std::size_t l = 0; l < rule.body.size() && isolated; ++l) {
        if (l != j && rule.body[l].ContainsTerm(t)) isolated = false;
      }
      if (!isolated) break;
    }
    rule.isolated[j] = isolated;
  }
  return rule;
}

int CountAtomsContainingTerm(const std::vector<Atom>& atoms, Term t) {
  int count = 0;
  for (const Atom& atom : atoms) {
    if (atom.ContainsTerm(t)) ++count;
  }
  return count;
}

// Number of positions across the node (σ plus context) whose resolved
// image equals `value`.
int CountResolvedOccurrences(const Atom& atom, const Substitution& subst,
                             Term value) {
  int count = 0;
  for (Term t : atom.terms()) {
    if (subst.Resolve(t) == value) ++count;
  }
  return count;
}

// Checks the admissibility of unifying node σ with the rule head: no
// existential head variable may be identified with a constant, with
// another head variable, or with a node term that is repeated in σ or
// occurs elsewhere in the context.
bool IsAdmissible(const PNode& node, const PreparedRule& rule,
                  const Substitution& subst) {
  for (VariableId y : rule.existential_head) {
    Term ty = subst.Resolve(Term::Var(y));
    if (ty.is_constant()) return false;
    for (VariableId h : rule.head_variables) {
      if (h == y) continue;
      if (subst.Resolve(Term::Var(h)) == ty) return false;
    }
    // The absorbed query term must occur exactly once in σ and nowhere in
    // the rest of the context.
    if (CountResolvedOccurrences(node.sigma, subst, ty) != 1) return false;
    for (const Atom& other : node.others) {
      if (CountResolvedOccurrences(other, subst, ty) != 0) return false;
    }
  }
  return true;
}

void DedupTerms(std::vector<Term>* terms) {
  std::sort(terms->begin(), terms->end());
  terms->erase(std::unique(terms->begin(), terms->end()), terms->end());
}

}  // namespace

StatusOr<PNodeGraph> PNodeGraph::Build(const TgdProgram& program,
                                       const PNodeGraphOptions& options) {
  // Initial nodes: the canonicalized head atom of each rule, with itself
  // as the whole context.
  std::vector<PNode> seeds;
  for (const Tgd& tgd : program.tgds()) {
    OREW_RETURN_IF_ERROR(tgd.Validate());
    if (tgd.head().size() == 1) {
      seeds.push_back(
          CanonicalizePNode({tgd.head().front()}, 0, std::nullopt));
    }
  }
  return BuildFromSeeds(program, seeds, options);
}

StatusOr<PNodeGraph> PNodeGraph::BuildFromSeeds(
    const TgdProgram& program, const std::vector<PNode>& seeds,
    const PNodeGraphOptions& options) {
  if (!program.IsSingleHead()) {
    return FailedPreconditionError(
        "the P-node graph construction covers single-head TGDs (the paper's "
        "first generalization step); normalize or split multi-head TGDs "
        "first");
  }
  for (const Tgd& tgd : program.tgds()) {
    OREW_RETURN_IF_ERROR(tgd.Validate());
  }

  std::vector<PreparedRule> rules;
  rules.reserve(program.tgds().size());
  for (const Tgd& tgd : program.tgds()) rules.push_back(PrepareRule(tgd));

  PNodeGraph result;
  std::unordered_map<std::string, int> node_index;  // Canonical key -> node.
  std::deque<int> worklist;
  bool exhausted = false;

  auto get_or_add_node = [&result, &node_index, &worklist, &options,
                          &exhausted](PNode node) {
    std::string key = node.Key();
    auto it = node_index.find(key);
    if (it != node_index.end()) return it->second;
    if (result.num_nodes() >= options.max_nodes) {
      exhausted = true;
      return -1;
    }
    int index = result.graph_.AddNode();
    result.nodes_.push_back(std::move(node));
    node_index.emplace(std::move(key), index);
    worklist.push_back(index);
    return index;
  };

  for (const PNode& seed : seeds) {
    get_or_add_node(seed);
    if (exhausted) break;
  }

  while (!worklist.empty() && !exhausted) {
    int node_index = worklist.front();
    worklist.pop_front();
    // nodes_ may reallocate while successors are added; copy the node.
    const PNode node = result.nodes_[static_cast<std::size_t>(node_index)];

    for (int rule_index = 0; rule_index < static_cast<int>(rules.size());
         ++rule_index) {
      const PreparedRule& rule = rules[static_cast<std::size_t>(rule_index)];
      Substitution subst;
      if (!UnifyAtoms(node.sigma, rule.head, &subst)) continue;
      if (!IsAdmissible(node, rule, subst)) continue;

      std::vector<Atom> body_image = subst.Apply(rule.body);

      // Trace bookkeeping: σ's z survives if it still resolves to a
      // variable (absorption by an existential head variable removes it
      // from the body image altogether).
      bool trace_alive = node.has_trace;
      Term trace_image;
      if (trace_alive) {
        trace_image = subst.Resolve(Term::Var(kTraceVariable));
        if (!trace_image.is_variable()) trace_alive = false;
      }

      // s: the traced variable or a fresh existential body variable occurs
      // in at least two atoms of the body image.
      bool s_application = false;
      if (trace_alive &&
          CountAtomsContainingTerm(body_image, trace_image) >= 2) {
        s_application = true;
      }
      for (VariableId w : rule.existential_body) {
        if (s_application) break;
        if (CountAtomsContainingTerm(body_image, Term::Var(w)) >= 2) {
          s_application = true;
        }
      }

      // d: some body atom drops one of σ's bounded terms (constants and
      // generic x-variables).
      std::vector<Term> bounded_images;
      for (Term t : node.sigma.terms()) {
        if (t.is_variable() && t.id() == kTraceVariable) continue;
        bounded_images.push_back(subst.Resolve(t));
      }
      DedupTerms(&bounded_images);
      bool d_application = false;
      for (const Atom& beta : body_image) {
        for (Term bound : bounded_images) {
          if (!beta.ContainsTerm(bound)) {
            d_application = true;
            break;
          }
        }
        if (d_application) break;
      }

      // m is per body atom: some distinguished value misses the atom.
      std::vector<Term> distinguished_values;
      for (VariableId d : rule.distinguished) {
        distinguished_values.push_back(subst.Resolve(Term::Var(d)));
      }
      DedupTerms(&distinguished_values);

      for (std::size_t j = 0; j < body_image.size(); ++j) {
        const Atom& beta = body_image[j];
        bool m_edge = false;
        for (Term v : distinguished_values) {
          if (!beta.ContainsTerm(v)) {
            m_edge = true;
            break;
          }
        }
        LabelMask labels = 0;
        if (m_edge) labels |= kLabelM;
        if (s_application) labels |= kLabelS;
        if (d_application) labels |= kLabelD;
        if (rule.isolated[j]) labels |= kLabelI;

        auto add_edge_to = [&](PNode successor, char kind) {
          int target = get_or_add_node(std::move(successor));
          if (target < 0) return;
          if (!result.graph_.HasEdge(node_index, target, labels)) {
            result.graph_.AddEdge(node_index, target, labels);
            result.edge_provenance_.push_back(EdgeProvenance{
                rule_index, static_cast<int>(j), kind});
          }
        };

        // (a) generic successor.
        add_edge_to(CanonicalizePNode(body_image, static_cast<int>(j),
                                      std::nullopt),
                    'a');
        // (b) fresh-trace successors.
        for (VariableId w : rule.existential_body) {
          if (beta.ContainsTerm(Term::Var(w))) {
            add_edge_to(CanonicalizePNode(body_image, static_cast<int>(j),
                                          Term::Var(w)),
                        'b');
          }
        }
        // (c) trace continuation.
        if (trace_alive && beta.ContainsTerm(trace_image)) {
          add_edge_to(CanonicalizePNode(body_image, static_cast<int>(j),
                                        trace_image),
                      'c');
        }
        if (exhausted) break;
      }
      if (exhausted) break;
    }
  }

  if (exhausted) {
    return ResourceExhaustedError(
        StrCat("P-node graph exceeded the node cap of ", options.max_nodes,
               " nodes"));
  }
  return result;
}

std::vector<std::string> PNodeGraph::NodeNames(const Vocabulary& vocab) const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const PNode& node : nodes_) names.push_back(ToString(node, vocab));
  return names;
}

std::string PNodeGraph::ToDot(const Vocabulary& vocab) const {
  return ontorew::ToDot(graph_, NodeNames(vocab), LabelLegend());
}

}  // namespace ontorew
