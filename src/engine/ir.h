/// \file ir.h
/// \brief Intermediate representation shared by the engine layers.
///
/// The View Generation layer lowers a QueryBatch into a *workload*: a DAG of
/// directional views over the join tree plus one output view per query. The
/// Multi-Output Optimization layer partitions the workload into view groups;
/// the Code Generation layer lowers each group into a register program
/// (plan.h) executed by the interpreter (executor.h).

#ifndef LMFAO_ENGINE_IR_H_
#define LMFAO_ENGINE_IR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "jointree/join_tree.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace lmfao {

/// \brief Identifier of a view within a workload.
using ViewId = int32_t;

/// \brief One aggregate slot of a view.
///
/// Denotes SUM over the join of the view's subtree of
///   prod(local_factors) * prod(child payload slots),
/// where each child reference names one aggregate slot of one incoming view
/// (exactly one reference per incoming view of the producing node — joining
/// with a view multiplies in its multiplicity even when the aggregate has no
/// factors below that child, in which case the referenced slot is the
/// child's COUNT).
struct ViewAggregate {
  /// Factors over attributes of the producing node's relation.
  std::vector<Factor> local_factors;
  /// (incoming view, aggregate slot) pairs, sorted by view id.
  std::vector<std::pair<ViewId, int>> child_refs;

  /// Structural signature for deduplication within a view.
  uint64_t Signature() const;

  bool operator==(const ViewAggregate& o) const {
    return local_factors == o.local_factors && child_refs == o.child_refs;
  }
};

/// \brief A directional view (or a query output) in the workload DAG.
struct ViewInfo {
  ViewId id = -1;
  /// Node at which the view is computed.
  RelationId origin = kInvalidRelation;
  /// Node that consumes the view; kInvalidRelation for query outputs.
  RelationId target = kInvalidRelation;
  /// For query outputs: the query this view answers. -1 for inner views.
  QueryId query_id = -1;
  /// Sorted group-by attributes (the view's key).
  std::vector<AttrId> key;
  /// Aggregate slots.
  std::vector<ViewAggregate> aggregates;

  bool IsQueryOutput() const { return query_id >= 0; }

  /// Renders e.g. "V3[Sales->Items](item | SUM(units), SUM(1))".
  std::string ToString(const Catalog& catalog) const;
};

/// \brief The lowered batch: all views plus the query-output mapping.
struct Workload {
  std::vector<ViewInfo> views;
  /// Per query: the view id of its output.
  std::vector<ViewId> query_outputs;
  /// Per query: its assigned root node.
  std::vector<RelationId> roots;

  const ViewInfo& view(ViewId v) const {
    return views[static_cast<size_t>(v)];
  }
  int num_views() const { return static_cast<int>(views.size()); }

  /// Number of non-output (directional) views.
  int NumInnerViews() const;

  /// Inner views grouped by (origin, target) edge direction, for reporting
  /// (the per-edge arrow widths of the demo UI).
  std::unordered_map<uint64_t, int> ViewsPerDirection() const;

  std::string ToString(const Catalog& catalog) const;
};

/// \brief A group of outputs computed in one pass over a node's relation
/// (Multi-Output Optimization layer).
struct ViewGroup {
  int id = -1;
  /// The node whose relation the group scans.
  RelationId node = kInvalidRelation;
  /// Views/queries produced by this group.
  std::vector<ViewId> outputs;
  /// Views consumed by this group (sorted, deduplicated).
  std::vector<ViewId> incoming;
  /// Ids of groups that must run before this one.
  std::vector<int> depends_on;

  std::string ToString(const Workload& workload,
                       const Catalog& catalog) const;
};

/// \brief The grouped workload plus its dependency structure.
struct GroupedWorkload {
  std::vector<ViewGroup> groups;
  /// For each view id, the group producing it.
  std::vector<int> producer_group;

  /// Group ids in a valid topological execution order.
  std::vector<int> TopologicalOrder() const;

  std::string ToString(const Workload& workload,
                       const Catalog& catalog) const;
};

}  // namespace lmfao

#endif  // LMFAO_ENGINE_IR_H_
