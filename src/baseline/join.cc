#include "baseline/join.h"

#include <functional>
#include <unordered_map>

#include "util/hash.h"

namespace lmfao {

StatusOr<Relation> HashJoin(const Relation& left, const Relation& right,
                            const Catalog& catalog) {
  const std::vector<AttrId> shared =
      SetIntersection(SortedUnique(left.schema().attrs()),
                      SortedUnique(right.schema().attrs()));
  if (shared.empty()) {
    return Status::InvalidArgument("hash join requires shared attributes (" +
                                   left.name() + " vs " + right.name() + ")");
  }
  if (static_cast<int>(shared.size()) > TupleKey::kMaxArity) {
    return Status::InvalidArgument("join key too wide");
  }
  std::vector<int> left_key_cols;
  std::vector<int> right_key_cols;
  for (AttrId a : shared) {
    if (catalog.attr(a).type != AttrType::kInt) {
      return Status::InvalidArgument("join attribute " + catalog.attr(a).name +
                                     " must be int-typed");
    }
    left_key_cols.push_back(left.ColumnIndex(a));
    right_key_cols.push_back(right.ColumnIndex(a));
  }

  // Build side: right. Key -> row indexes.
  std::unordered_map<TupleKey, std::vector<uint32_t>> build;
  build.reserve(right.num_rows());
  for (size_t r = 0; r < right.num_rows(); ++r) {
    TupleKey key(static_cast<int>(right_key_cols.size()));
    for (size_t i = 0; i < right_key_cols.size(); ++i) {
      key.set(static_cast<int>(i), right.column(right_key_cols[i]).AsInt(r));
    }
    build[key].push_back(static_cast<uint32_t>(r));
  }

  // Probe side: left. Collect matching row-index pairs.
  std::vector<uint32_t> left_rows;
  std::vector<uint32_t> right_rows;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    TupleKey key(static_cast<int>(left_key_cols.size()));
    for (size_t i = 0; i < left_key_cols.size(); ++i) {
      key.set(static_cast<int>(i), left.column(left_key_cols[i]).AsInt(l));
    }
    auto it = build.find(key);
    if (it == build.end()) continue;
    for (uint32_t r : it->second) {
      left_rows.push_back(static_cast<uint32_t>(l));
      right_rows.push_back(r);
    }
  }

  // Output schema: left attrs + right's non-shared attrs.
  std::vector<AttrId> out_attrs = left.schema().attrs();
  std::vector<AttrType> out_types;
  for (AttrId a : out_attrs) out_types.push_back(catalog.attr(a).type);
  std::vector<int> right_extra_cols;
  for (int c = 0; c < right.schema().arity(); ++c) {
    const AttrId a = right.schema().attr(c);
    if (!SetContains(shared, a)) {
      out_attrs.push_back(a);
      out_types.push_back(catalog.attr(a).type);
      right_extra_cols.push_back(c);
    }
  }
  Relation out(left.name() + "_x_" + right.name(),
               RelationSchema(out_attrs), out_types);

  // Column-wise gather.
  auto gather = [](const Column& src, const std::vector<uint32_t>& rows,
                   Column* dst) {
    if (src.type() == AttrType::kInt) {
      auto& d = dst->mutable_ints();
      d.reserve(rows.size());
      const auto& s = src.ints();
      for (uint32_t r : rows) d.push_back(s[r]);
    } else {
      auto& d = dst->mutable_doubles();
      d.reserve(rows.size());
      const auto& s = src.doubles();
      for (uint32_t r : rows) d.push_back(s[r]);
    }
  };
  for (int c = 0; c < left.num_columns(); ++c) {
    gather(left.column(c), left_rows, &out.mutable_column(c));
  }
  for (size_t i = 0; i < right_extra_cols.size(); ++i) {
    gather(right.column(right_extra_cols[i]), right_rows,
           &out.mutable_column(left.num_columns() + static_cast<int>(i)));
  }
  out.FinalizeRowCount();
  return out;
}

StatusOr<Relation> MaterializeJoin(const Catalog& catalog,
                                   const JoinTree& tree, RelationId root) {
  // Post-order: join children into their parent, bottom-up.
  std::function<StatusOr<Relation>(RelationId, EdgeId)> materialize =
      [&](RelationId node, EdgeId parent_edge) -> StatusOr<Relation> {
    Relation acc = catalog.relation(node);
    for (EdgeId e : tree.IncidentEdges(node)) {
      if (e == parent_edge) continue;
      const RelationId child = tree.NeighborAcross(node, e);
      LMFAO_ASSIGN_OR_RETURN(Relation child_rel, materialize(child, e));
      LMFAO_ASSIGN_OR_RETURN(acc, HashJoin(acc, child_rel, catalog));
    }
    return acc;
  };
  return materialize(root, -1);
}

}  // namespace lmfao
