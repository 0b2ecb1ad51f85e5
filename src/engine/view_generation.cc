#include "engine/view_generation.h"

#include <algorithm>

#include "util/hash.h"

namespace lmfao {
namespace {

/// Builder holding the registry used for view merging.
class ViewGenerator {
 public:
  ViewGenerator(const Catalog& catalog, const JoinTree& tree,
                const ViewGenerationOptions& options)
      : catalog_(catalog), tree_(tree), options_(options) {}

  StatusOr<Workload> Run(const QueryBatch& batch) {
    LMFAO_RETURN_NOT_OK(batch.Validate(catalog_));
    for (const Query& q : batch.queries()) {
      const RelationId root = AssignRoot(q, catalog_, tree_);
      LMFAO_RETURN_NOT_OK(LowerQuery(q, root));
    }
    return std::move(workload_);
  }

 private:
  /// Key of the merge registry: direction plus group-by set.
  struct DirectionKey {
    RelationId origin;
    RelationId target;
    std::vector<AttrId> key;
    bool operator==(const DirectionKey& o) const {
      return origin == o.origin && target == o.target && key == o.key;
    }
  };
  struct DirectionKeyHash {
    size_t operator()(const DirectionKey& k) const {
      uint64_t h = Mix64(static_cast<uint64_t>(k.origin) * 1000003u +
                         static_cast<uint64_t>(k.target) + 7u);
      for (AttrId a : k.key) h = HashCombine(h, static_cast<uint64_t>(a));
      return static_cast<size_t>(h);
    }
  };

  Status LowerQuery(const Query& q, RelationId root) {
    if (!options_.merge_views) {
      // "No sharing" ablation: fresh views per query. Views are still
      // shared *within* one query — every aggregate of an output must
      // reference the same carrier view for the query's group-by
      // attributes.
      registry_.clear();
      agg_signatures_.clear();
    }
    workload_.roots.push_back(root);
    ViewInfo output;
    output.origin = root;
    output.target = kInvalidRelation;
    output.query_id = q.id;
    output.key = q.group_by;
    for (const Aggregate& agg : q.aggregates) {
      LMFAO_ASSIGN_OR_RETURN(
          ViewAggregate lowered,
          LowerAggregate(root, /*parent_edge=*/-1, agg, q.group_by));
      output.aggregates.push_back(std::move(lowered));
    }
    output.id = static_cast<ViewId>(workload_.views.size());
    workload_.query_outputs.push_back(output.id);
    workload_.views.push_back(std::move(output));
    return Status::OK();
  }

  /// Lowers the restriction of one aggregate to the subtree rooted at
  /// `node` when coming from `parent_edge` (-1 at the query root).
  /// Returns the ViewAggregate computed at `node`.
  StatusOr<ViewAggregate> LowerAggregate(RelationId node, EdgeId parent_edge,
                                         const Aggregate& restriction,
                                         const std::vector<AttrId>& group_by) {
    const std::vector<AttrId>& node_attrs = tree_.NodeAttrs(node);
    ViewAggregate out;
    // Factors on attributes of this node's relation are evaluated here.
    std::vector<Factor> below;
    for (const Factor& f : restriction.factors()) {
      if (SetContains(node_attrs, f.attr)) {
        out.local_factors.push_back(f);
      } else {
        below.push_back(f);
      }
    }
    // Recurse into every child edge; each child contributes exactly one
    // aggregate slot (its COUNT when no factor lives below it).
    for (EdgeId e : tree_.IncidentEdges(node)) {
      if (e == parent_edge) continue;
      const RelationId child = tree_.NeighborAcross(node, e);
      const std::vector<AttrId>& subtree = tree_.SubtreeAttrs(node, e);
      std::vector<Factor> child_factors;
      for (const Factor& f : below) {
        if (SetContains(subtree, f.attr)) child_factors.push_back(f);
      }
      LMFAO_ASSIGN_OR_RETURN(
          auto ref, RequireViewSlot(child, node, e, Aggregate(child_factors),
                                    group_by));
      out.child_refs.push_back(ref);
    }
    // Every non-local factor must have been routed to some child.
    size_t routed = 0;
    for (EdgeId e : tree_.IncidentEdges(node)) {
      if (e == parent_edge) continue;
      const std::vector<AttrId>& subtree = tree_.SubtreeAttrs(node, e);
      for (const Factor& f : below) {
        if (SetContains(subtree, f.attr)) ++routed;
      }
    }
    if (routed < below.size()) {
      return Status::Internal(
          "aggregate factor could not be routed to any subtree (broken join "
          "tree?)");
    }
    std::sort(out.child_refs.begin(), out.child_refs.end());
    return out;
  }

  /// Ensures a view `child -> node` carrying the given aggregate restriction
  /// exists; returns (view id, slot index).
  StatusOr<std::pair<ViewId, int>> RequireViewSlot(
      RelationId child, RelationId node, EdgeId edge,
      const Aggregate& restriction, const std::vector<AttrId>& group_by) {
    // View key: edge separator plus the query's group-by attributes living
    // in the child's subtree.
    const std::vector<AttrId>& subtree = tree_.SubtreeAttrs(node, edge);
    std::vector<AttrId> key =
        SetUnion(tree_.separator(edge), SetIntersection(group_by, subtree));
    if (static_cast<int>(key.size()) > TupleKey::kMaxArity) {
      return Status::InvalidArgument(
          "view key arity exceeds TupleKey::kMaxArity; raise kMaxArity");
    }

    ViewId vid;
    DirectionKey dk{child, node, key};
    auto it = registry_.find(dk);
    if (it != registry_.end()) {
      vid = it->second;
    } else {
      vid = NewView(child, node, std::move(key));
      registry_.emplace(std::move(dk), vid);
    }

    LMFAO_ASSIGN_OR_RETURN(ViewAggregate lowered,
                           LowerAggregate(child, edge, restriction, group_by));
    const int slot = AddAggregate(vid, std::move(lowered));
    return std::make_pair(vid, slot);
  }

  ViewId NewView(RelationId origin, RelationId target,
                 std::vector<AttrId> key) {
    ViewInfo v;
    v.id = static_cast<ViewId>(workload_.views.size());
    v.origin = origin;
    v.target = target;
    v.key = std::move(key);
    workload_.views.push_back(std::move(v));
    return workload_.views.back().id;
  }

  /// Adds an aggregate slot, deduplicating structurally (within the current
  /// registry scope: globally when merging, per query otherwise).
  int AddAggregate(ViewId vid, ViewAggregate agg) {
    ViewInfo& view = workload_.views[static_cast<size_t>(vid)];
    const uint64_t sig = agg.Signature();
    SignatureIndex& index = agg_signatures_[vid];
    const int found = index.Find(sig, [&view, &agg](int slot) {
      return view.aggregates[static_cast<size_t>(slot)] == agg;
    });
    if (found >= 0) return found;
    const int slot = static_cast<int>(view.aggregates.size());
    view.aggregates.push_back(std::move(agg));
    index.Add(sig, slot);
    return slot;
  }

  const Catalog& catalog_;
  const JoinTree& tree_;
  ViewGenerationOptions options_;
  Workload workload_;
  std::unordered_map<DirectionKey, ViewId, DirectionKeyHash> registry_;
  std::unordered_map<ViewId, SignatureIndex> agg_signatures_;
};

}  // namespace

RelationId AssignRoot(const Query& query, const Catalog& catalog,
                      const JoinTree& tree) {
  if (query.root_hint != kInvalidRelation) return query.root_hint;
  RelationId best = 0;
  double best_score = -1.0;
  size_t best_rows = 0;
  for (RelationId r = 0; r < tree.num_nodes(); ++r) {
    const std::vector<AttrId>& attrs = tree.NodeAttrs(r);
    double score = 1.0;
    for (AttrId g : query.group_by) {
      if (SetContains(attrs, g)) {
        const int64_t dom = catalog.attr(g).domain_size;
        score *= static_cast<double>(dom > 0 ? dom : 2);
      }
    }
    const size_t rows = catalog.CommittedRows(r);
    if (score > best_score ||
        (score == best_score && rows > best_rows)) {
      best = r;
      best_score = score;
      best_rows = rows;
    }
  }
  return best;
}

StatusOr<Workload> GenerateViews(const QueryBatch& batch,
                                 const Catalog& catalog, const JoinTree& tree,
                                 const ViewGenerationOptions& options) {
  ViewGenerator generator(catalog, tree, options);
  return generator.Run(batch);
}

}  // namespace lmfao
