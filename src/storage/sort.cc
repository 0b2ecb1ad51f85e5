#include "storage/sort.h"

#include <numeric>

namespace lmfao {
namespace {

/// Resolves attribute ids to int-column pointers, validating types.
StatusOr<std::vector<const std::vector<int64_t>*>> ResolveIntColumns(
    const Relation& rel, const std::vector<AttrId>& order) {
  std::vector<const std::vector<int64_t>*> cols;
  cols.reserve(order.size());
  for (AttrId a : order) {
    const int idx = rel.ColumnIndex(a);
    if (idx < 0) {
      return Status::InvalidArgument("sort attribute " + std::to_string(a) +
                                     " not in relation " + rel.name());
    }
    if (rel.column(idx).type() != AttrType::kInt) {
      return Status::InvalidArgument("sort attribute " + std::to_string(a) +
                                     " is not an int column in " + rel.name());
    }
    cols.push_back(&rel.column(idx).ints());
  }
  return cols;
}

}  // namespace

StatusOr<std::vector<uint32_t>> SortPermutation(
    const Relation& rel, const std::vector<AttrId>& order) {
  LMFAO_ASSIGN_OR_RETURN(auto cols, ResolveIntColumns(rel, order));
  std::vector<uint32_t> perm(rel.num_rows());
  std::iota(perm.begin(), perm.end(), 0u);
  LexicographicArgsort(&perm, static_cast<int>(cols.size()),
                       [&cols](uint32_t row, int c) {
                         return (*cols[static_cast<size_t>(c)])[row];
                       });
  return perm;
}

Status SortRelation(Relation* rel, const std::vector<AttrId>& order) {
  LMFAO_ASSIGN_OR_RETURN(auto perm, SortPermutation(*rel, order));
  rel->Permute(perm);
  return Status::OK();
}

StatusOr<Relation> MergeSortedRelations(const Relation& a, const Relation& b,
                                        const std::vector<AttrId>& order) {
  if (a.schema().attrs() != b.schema().attrs()) {
    return Status::InvalidArgument("MergeSortedRelations: schema mismatch");
  }
  LMFAO_ASSIGN_OR_RETURN(auto cols_a, ResolveIntColumns(a, order));
  LMFAO_ASSIGN_OR_RETURN(auto cols_b, ResolveIntColumns(b, order));

  const size_t na = a.num_rows();
  const size_t nb = b.num_rows();
  // merged[i] = row index into a (if < na) or b (offset by na).
  std::vector<uint32_t> merged;
  merged.reserve(na + nb);
  size_t ia = 0;
  size_t ib = 0;
  auto b_less_than_a = [&](size_t rb, size_t ra) {
    for (size_t k = 0; k < order.size(); ++k) {
      const int64_t va = (*cols_a[k])[ra];
      const int64_t vb = (*cols_b[k])[rb];
      if (va != vb) return vb < va;
    }
    return false;  // Ties take from `a` first (stability).
  };
  while (ia < na && ib < nb) {
    if (b_less_than_a(ib, ia)) {
      merged.push_back(static_cast<uint32_t>(na + ib++));
    } else {
      merged.push_back(static_cast<uint32_t>(ia++));
    }
  }
  while (ia < na) merged.push_back(static_cast<uint32_t>(ia++));
  while (ib < nb) merged.push_back(static_cast<uint32_t>(na + ib++));

  std::vector<AttrType> types;
  types.reserve(static_cast<size_t>(a.num_columns()));
  for (int c = 0; c < a.num_columns(); ++c) {
    if (a.column(c).type() != b.column(c).type()) {
      return Status::InvalidArgument(
          "MergeSortedRelations: column type mismatch at " + std::to_string(c));
    }
    types.push_back(a.column(c).type());
  }
  Relation out(a.name(), a.schema(), std::move(types));
  for (int c = 0; c < a.num_columns(); ++c) {
    Column& dst = out.mutable_column(c);
    if (dst.type() == AttrType::kInt) {
      const auto& sa = a.column(c).ints();
      const auto& sb = b.column(c).ints();
      auto& d = dst.mutable_ints();
      d.resize(na + nb);
      for (size_t i = 0; i < merged.size(); ++i) {
        const uint32_t m = merged[i];
        d[i] = m < na ? sa[m] : sb[m - na];
      }
    } else {
      const auto& sa = a.column(c).doubles();
      const auto& sb = b.column(c).doubles();
      auto& d = dst.mutable_doubles();
      d.resize(na + nb);
      for (size_t i = 0; i < merged.size(); ++i) {
        const uint32_t m = merged[i];
        d[i] = m < na ? sa[m] : sb[m - na];
      }
    }
  }
  out.FinalizeRowCount();
  return out;
}

}  // namespace lmfao
