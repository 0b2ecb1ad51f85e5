/// \file sort.h
/// \brief Lexicographic sorting of relations by attribute orders.
///
/// The Multi-Output Optimization layer organizes each node relation
/// "logically as a trie": the relation is sorted by the group's attribute
/// order; trie levels are then ranges of equal prefixes discovered during
/// iteration.

#ifndef LMFAO_STORAGE_SORT_H_
#define LMFAO_STORAGE_SORT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "storage/relation.h"
#include "util/status.h"

namespace lmfao {

/// \brief Sorts the row indices `rows` lexicographically by their `arity`
/// key components, read as `component(row, c)`. Ties break by row index,
/// so the order is deterministic and equals a stable sort of ascending
/// indices; rows with distinct keys never reach the tie-break.
template <typename ComponentFn>
void LexicographicArgsort(std::vector<uint32_t>* rows, int arity,
                          ComponentFn&& component) {
  std::sort(rows->begin(), rows->end(),
            [&component, arity](uint32_t a, uint32_t b) {
              for (int c = 0; c < arity; ++c) {
                const int64_t va = component(a, c);
                const int64_t vb = component(b, c);
                if (va != vb) return va < vb;
              }
              return a < b;
            });
}

/// \brief Computes the permutation that sorts `rel` lexicographically by the
/// given attributes (which must be int columns in rel's schema).
StatusOr<std::vector<uint32_t>> SortPermutation(
    const Relation& rel, const std::vector<AttrId>& order);

/// \brief Sorts `rel` in place by the given attribute order.
Status SortRelation(Relation* rel, const std::vector<AttrId>& order);

/// \brief Stable merge of two relations that are each sorted by `order`
/// (same schema and column types). On equal keys, rows of `a` come first.
///
/// Because SortPermutation breaks ties by original row index, merging
/// sort(base) with sort(delta) — base first on ties — is bit-identical to
/// sorting the concatenation base+delta from scratch. This is what lets the
/// engine extend a cached sorted snapshot by a sorted delta run instead of
/// re-sorting the whole relation. An empty `order` degenerates to
/// concatenation.
StatusOr<Relation> MergeSortedRelations(const Relation& a, const Relation& b,
                                        const std::vector<AttrId>& order);

}  // namespace lmfao

#endif  // LMFAO_STORAGE_SORT_H_
