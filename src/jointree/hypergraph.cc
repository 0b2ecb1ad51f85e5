#include "jointree/hypergraph.h"

#include <deque>

namespace lmfao {

Hypergraph::Hypergraph(const Catalog& catalog) {
  node_attrs_.resize(static_cast<size_t>(catalog.num_relations()));
  attr_to_relations_.resize(static_cast<size_t>(catalog.num_attrs()));
  for (RelationId r = 0; r < catalog.num_relations(); ++r) {
    node_attrs_[static_cast<size_t>(r)] =
        SortedUnique(catalog.relation(r).schema().attrs());
    for (AttrId a : node_attrs_[static_cast<size_t>(r)]) {
      attr_to_relations_[static_cast<size_t>(a)].push_back(r);
    }
  }
}

std::vector<AttrId> Hypergraph::SharedAttrs(RelationId a, RelationId b) const {
  return SetIntersection(attrs(a), attrs(b));
}

bool Hypergraph::IsConnected() const {
  const int n = num_nodes();
  if (n <= 1) return true;
  std::vector<bool> seen(static_cast<size_t>(n), false);
  std::deque<RelationId> frontier{0};
  seen[0] = true;
  int count = 1;
  while (!frontier.empty()) {
    const RelationId r = frontier.front();
    frontier.pop_front();
    for (AttrId a : attrs(r)) {
      for (RelationId other : RelationsWith(a)) {
        if (!seen[static_cast<size_t>(other)]) {
          seen[static_cast<size_t>(other)] = true;
          frontier.push_back(other);
          ++count;
        }
      }
    }
  }
  return count == n;
}

}  // namespace lmfao
