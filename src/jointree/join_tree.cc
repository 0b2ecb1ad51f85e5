#include "jointree/join_tree.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <numeric>
#include <sstream>

namespace lmfao {
namespace {

/// Union-find used by Kruskal's spanning-tree construction.
class DisjointSet {
 public:
  explicit DisjointSet(int n) : parent_(static_cast<size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  bool Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[static_cast<size_t>(a)] = b;
    return true;
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

StatusOr<JoinTree> JoinTree::FromEdges(
    const Catalog& catalog,
    const std::vector<std::pair<RelationId, RelationId>>& edges) {
  const int n = catalog.num_relations();
  if (n == 0) return Status::InvalidArgument("empty catalog");
  if (static_cast<int>(edges.size()) != n - 1) {
    return Status::InvalidArgument(
        "a join tree over " + std::to_string(n) + " relations needs " +
        std::to_string(n - 1) + " edges, got " + std::to_string(edges.size()));
  }
  DisjointSet ds(n);
  for (const auto& [a, b] : edges) {
    if (a < 0 || a >= n || b < 0 || b >= n) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (!ds.Union(a, b)) {
      return Status::InvalidArgument("edges contain a cycle");
    }
  }
  JoinTree tree;
  tree.num_nodes_ = n;
  tree.edges_ = edges;
  tree.BuildIndexes(catalog);
  LMFAO_RETURN_NOT_OK(tree.VerifyRip(catalog));
  return tree;
}

StatusOr<JoinTree> JoinTree::Construct(const Catalog& catalog) {
  const int n = catalog.num_relations();
  if (n == 0) return Status::InvalidArgument("empty catalog");
  Hypergraph graph(catalog);
  if (!graph.IsConnected()) {
    return Status::InvalidArgument("join graph is disconnected");
  }
  // Kruskal: heavier separators first; weight = #shared attributes, with
  // domain sizes as tie-break (prefer joining on smaller domains last).
  struct Candidate {
    RelationId a, b;
    int weight;
  };
  std::vector<Candidate> candidates;
  for (RelationId a = 0; a < n; ++a) {
    for (RelationId b = a + 1; b < n; ++b) {
      const int w = static_cast<int>(graph.SharedAttrs(a, b).size());
      if (w > 0) candidates.push_back({a, b, w});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& x, const Candidate& y) {
                     return x.weight > y.weight;
                   });
  DisjointSet ds(n);
  std::vector<std::pair<RelationId, RelationId>> edges;
  for (const Candidate& c : candidates) {
    if (ds.Union(c.a, c.b)) edges.emplace_back(c.a, c.b);
  }
  if (static_cast<int>(edges.size()) != n - 1) {
    return Status::InvalidArgument("could not build a spanning tree");
  }
  return FromEdges(catalog, edges);
}

void JoinTree::BuildIndexes(const Catalog& catalog) {
  separators_.clear();
  incident_.assign(static_cast<size_t>(num_nodes_), {});
  node_attrs_.resize(static_cast<size_t>(num_nodes_));
  for (RelationId r = 0; r < num_nodes_; ++r) {
    node_attrs_[static_cast<size_t>(r)] =
        SortedUnique(catalog.relation(r).schema().attrs());
  }
  for (EdgeId e = 0; e < static_cast<EdgeId>(edges_.size()); ++e) {
    const auto& [a, b] = edges_[static_cast<size_t>(e)];
    separators_.push_back(
        SetIntersection(node_attrs_[static_cast<size_t>(a)],
                        node_attrs_[static_cast<size_t>(b)]));
    incident_[static_cast<size_t>(a)].push_back(e);
    incident_[static_cast<size_t>(b)].push_back(e);
  }
  // Subtree attribute sets: for each edge and side, the union of node
  // attributes in that component. Computed by DFS from each side endpoint
  // with the edge removed.
  subtree_attrs_.assign(edges_.size(), {});
  for (EdgeId e = 0; e < static_cast<EdgeId>(edges_.size()); ++e) {
    for (int side = 0; side < 2; ++side) {
      const RelationId start = side == 0 ? edges_[static_cast<size_t>(e)].first
                                         : edges_[static_cast<size_t>(e)].second;
      std::vector<AttrId> attrs;
      std::vector<bool> seen(static_cast<size_t>(num_nodes_), false);
      std::deque<RelationId> frontier{start};
      seen[static_cast<size_t>(start)] = true;
      while (!frontier.empty()) {
        const RelationId r = frontier.front();
        frontier.pop_front();
        const auto& rattrs = node_attrs_[static_cast<size_t>(r)];
        attrs.insert(attrs.end(), rattrs.begin(), rattrs.end());
        for (EdgeId e2 : incident_[static_cast<size_t>(r)]) {
          if (e2 == e) continue;
          const RelationId other = NeighborAcross(r, e2);
          if (!seen[static_cast<size_t>(other)]) {
            seen[static_cast<size_t>(other)] = true;
            frontier.push_back(other);
          }
        }
      }
      subtree_attrs_[static_cast<size_t>(e)][static_cast<size_t>(side)] =
          SortedUnique(std::move(attrs));
    }
  }
}

RelationId JoinTree::NeighborAcross(RelationId n, EdgeId e) const {
  const auto& [a, b] = edges_[static_cast<size_t>(e)];
  LMFAO_CHECK(n == a || n == b);
  return n == a ? b : a;
}

const std::vector<AttrId>& JoinTree::SubtreeAttrs(RelationId n,
                                                  EdgeId e) const {
  const auto& [a, b] = edges_[static_cast<size_t>(e)];
  const RelationId neighbor = n == a ? b : a;
  const int side = neighbor == a ? 0 : 1;
  return subtree_attrs_[static_cast<size_t>(e)][static_cast<size_t>(side)];
}

std::vector<std::pair<RelationId, EdgeId>> JoinTree::Path(
    RelationId from, RelationId to) const {
  // BFS parent pointers from `to`, then walk from `from`.
  std::vector<EdgeId> via(static_cast<size_t>(num_nodes_), -1);
  std::vector<bool> seen(static_cast<size_t>(num_nodes_), false);
  std::deque<RelationId> frontier{to};
  seen[static_cast<size_t>(to)] = true;
  while (!frontier.empty()) {
    const RelationId r = frontier.front();
    frontier.pop_front();
    for (EdgeId e : incident_[static_cast<size_t>(r)]) {
      const RelationId other = NeighborAcross(r, e);
      if (!seen[static_cast<size_t>(other)]) {
        seen[static_cast<size_t>(other)] = true;
        via[static_cast<size_t>(other)] = e;
        frontier.push_back(other);
      }
    }
  }
  std::vector<std::pair<RelationId, EdgeId>> path;
  RelationId cur = from;
  while (cur != to) {
    const EdgeId e = via[static_cast<size_t>(cur)];
    LMFAO_CHECK_GE(e, 0);
    path.emplace_back(cur, e);
    cur = NeighborAcross(cur, e);
  }
  return path;
}

Status JoinTree::VerifyRip(const Catalog& catalog) const {
  // For each attribute, the set of nodes containing it must induce a
  // connected subgraph of the tree.
  for (AttrId a = 0; a < catalog.num_attrs(); ++a) {
    std::vector<RelationId> holders;
    for (RelationId r = 0; r < num_nodes_; ++r) {
      if (SetContains(node_attrs_[static_cast<size_t>(r)], a)) {
        holders.push_back(r);
      }
    }
    if (holders.size() <= 1) continue;
    // BFS within holder-induced subgraph.
    std::vector<bool> is_holder(static_cast<size_t>(num_nodes_), false);
    for (RelationId r : holders) is_holder[static_cast<size_t>(r)] = true;
    std::vector<bool> seen(static_cast<size_t>(num_nodes_), false);
    std::deque<RelationId> frontier{holders[0]};
    seen[static_cast<size_t>(holders[0])] = true;
    size_t count = 1;
    while (!frontier.empty()) {
      const RelationId r = frontier.front();
      frontier.pop_front();
      for (EdgeId e : incident_[static_cast<size_t>(r)]) {
        const RelationId other = NeighborAcross(r, e);
        if (is_holder[static_cast<size_t>(other)] &&
            !seen[static_cast<size_t>(other)]) {
          seen[static_cast<size_t>(other)] = true;
          frontier.push_back(other);
          ++count;
        }
      }
    }
    if (count != holders.size()) {
      return Status::FailedPrecondition(
          "running intersection property violated for attribute " +
          catalog.attr(a).name);
    }
  }
  return Status::OK();
}

std::string JoinTree::ToString(const Catalog& catalog) const {
  std::ostringstream out;
  for (EdgeId e = 0; e < num_edges(); ++e) {
    const auto& [a, b] = edges_[static_cast<size_t>(e)];
    out << catalog.relation(a).name() << " -- " << catalog.relation(b).name()
        << " on {";
    const auto& sep = separators_[static_cast<size_t>(e)];
    for (size_t i = 0; i < sep.size(); ++i) {
      if (i > 0) out << ", ";
      out << catalog.attr(sep[i]).name;
    }
    out << "}\n";
  }
  return out.str();
}

}  // namespace lmfao
