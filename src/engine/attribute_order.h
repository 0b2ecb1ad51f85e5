/// \file attribute_order.h
/// \brief Per-group total orders on join attributes.
///
/// The Multi-Output Optimization layer constructs, for each view group, a
/// total order on the attributes over which the group's relation and
/// incoming views are organized as tries (Section 2). The order decides at
/// which trie level each incoming view's lookup completes and each output
/// is written, and so how often their registers run (Fig. 3). It is chosen
/// by one cost model: the estimated number of payload touches of the
/// order a_1..a_L over node relation R,
///
///   cost = sum over l = 1..L of N_l * (1 + sum of width(v) over the views
///          and outputs v that bind or are written at level l)
///
/// where
///   - N_l = min(|R|, d(a_1) * ... * d(a_l)) estimates the trie nodes at
///     level l, with d(a) the catalog's domain_size of a, or |R| when that
///     is unknown or larger;
///   - a view or output binds or is written at level l when l is the
///     deepest position of its key attributes that are relation attributes
///     (level-0 terms are the same for every order and are left out);
///   - width(v) is the view's aggregate count.
///
/// Each step's cost depends only on the set of attributes already placed
/// and the one added, so the exact minimum is a dynamic program over
/// attribute subsets. Ties go to the lexicographically smallest AttrId
/// sequence, so the choice is deterministic.

#ifndef LMFAO_ENGINE_ATTRIBUTE_ORDER_H_
#define LMFAO_ENGINE_ATTRIBUTE_ORDER_H_

#include <cstdint>
#include <vector>

#include "engine/ir.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace lmfao {

/// \brief Computes the trie attribute order for one group: the order of
/// least EstimateOrderCost, lexicographically smallest among equals.
///
/// The order contains exactly the union of the incoming-view and output key
/// attributes that are attributes of the node relation; attributes used
/// only inside local factors are handled at the leaf (per-tuple) level by
/// the executor. Fails for a non-int trie attribute and for groups with
/// more than kMaxTrieAttrs of them (the search is exponential in that
/// count).
StatusOr<std::vector<AttrId>> ComputeAttributeOrder(
    const Workload& workload, const ViewGroup& group, const Catalog& catalog);

/// \brief The cost model above for one candidate `order`, which must be a
/// permutation of the group's trie attributes.
StatusOr<int64_t> EstimateOrderCost(const Workload& workload,
                                    const ViewGroup& group,
                                    const Catalog& catalog,
                                    const std::vector<AttrId>& order);

/// \brief Largest number of trie attributes a group may have.
inline constexpr int kMaxTrieAttrs = 20;

}  // namespace lmfao

#endif  // LMFAO_ENGINE_ATTRIBUTE_ORDER_H_
