/// \file query.h
/// \brief Group-by aggregate queries and query batches.
///
/// A Query is `SELECT G, SUM(p_1), ..., SUM(p_m) FROM D GROUP BY G` where D
/// is the natural join of all catalog relations and each p_i is a product of
/// unary functions (see aggregate.h). A QueryBatch is the unit of input to
/// the engine: hundreds to thousands of such queries (Section 1).

#ifndef LMFAO_QUERY_QUERY_H_
#define LMFAO_QUERY_QUERY_H_

#include <string>
#include <vector>

#include "query/aggregate.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/view.h"
#include "util/status.h"

namespace lmfao {

/// \brief Index of a query within its batch.
using QueryId = int32_t;

/// \brief One group-by aggregate query over the join of the database.
struct Query {
  QueryId id = -1;
  std::string name;
  /// Sorted set of group-by attributes (int-typed).
  std::vector<AttrId> group_by;
  /// Aggregates computed for each group.
  std::vector<Aggregate> aggregates;
  /// Optional root override: the join-tree node at which the query is
  /// evaluated. kInvalidRelation means "let the engine choose".
  RelationId root_hint = kInvalidRelation;

  /// All attributes referenced by the query (group-by plus factor attrs).
  std::vector<AttrId> ReferencedAttributes() const;

  /// Renders SQL-ish text.
  std::string ToString(const Catalog* catalog = nullptr) const;
};

/// \brief A batch of queries evaluated together.
class QueryBatch {
 public:
  QueryBatch() = default;

  /// Adds a query, assigning its id. Returns the id.
  QueryId Add(Query query);

  int size() const { return static_cast<int>(queries_.size()); }
  bool empty() const { return queries_.empty(); }

  const Query& query(QueryId id) const {
    return queries_[static_cast<size_t>(id)];
  }
  Query& mutable_query(QueryId id) { return queries_[static_cast<size_t>(id)]; }

  const std::vector<Query>& queries() const { return queries_; }

  /// Total number of aggregates across all queries.
  int TotalAggregates() const;

  /// Sorted, deduplicated parameter slots referenced by any aggregate.
  /// `PreparedBatch::Execute` requires exactly these slots bound.
  std::vector<ParamId> RequiredParams() const;

  /// Returns a copy of the batch with every parameterized function
  /// resolved against `params` — the literal batch a one-shot consumer
  /// (the scan baselines) evaluates. Fails if a referenced slot is unbound.
  StatusOr<QueryBatch> Bind(const ParamPack& params) const;

  /// Validates the batch against a catalog: group-by attributes exist, are
  /// int-typed, and every referenced attribute occurs in some relation.
  Status Validate(const Catalog& catalog) const;

 private:
  std::vector<Query> queries_;
};

/// \brief Result of one query: a view keyed by the group-by attributes.
struct QueryResult {
  QueryId query_id = -1;
  /// Group-by attributes in key order.
  std::vector<AttrId> group_by;
  /// Map from group-by key to aggregate payload (one slot per aggregate).
  ViewMap data{0, 1};

  /// Sum of a payload column across all keys (useful in tests).
  double TotalOf(int agg_index) const;
};

}  // namespace lmfao

#endif  // LMFAO_QUERY_QUERY_H_
