/// \file plan.h
/// \brief Register programs: the multi-output execution plan of a view group.
///
/// This is the "Decompose Aggregates" + "Factorize Computation" step of the
/// Multi-Output Optimization layer, producing exactly the structure of
/// Fig. 3 of the paper:
///
///   - the group's node relation is organized as a trie over a total order
///     of its join attributes (levels 1..L, plus a *leaf* level scanning the
///     relation tuples agreeing with the bound attributes);
///   - incoming views are sorted compatibly; a view whose key contains only
///     relation attributes narrows to a single entry once bound, while a
///     view carrying *extra* attributes (group-by values travelling through
///     the node) narrows to a contiguous *entry range*: consumers iterate
///     the range (when the extra attributes are output key components) or
///     sum the payloads over it (marginalization);
///   - every output aggregate is decomposed into *parts* available at
///     specific levels; parts at levels <= the output's write level form
///     its head (alpha register chain, shared across equal prefixes = loop
///     invariant code motion); parts below form its tail, folded bottom-up
///     through shared beta running sums; per-tuple content is accumulated
///     by shared leaf sums.
///
/// Because every trie level is driven by the relation, multiplicities come
/// solely from relation tuples (the leaf counts); sibling outputs' views
/// can only intersect away tuples that do not join, never multiply.
///
/// With factorization disabled (ablation), each output aggregate is instead
/// evaluated per tuple at the leaf with no register sharing, which mirrors
/// how a scan engine would compute it inside the same join.

#ifndef LMFAO_ENGINE_PLAN_H_
#define LMFAO_ENGINE_PLAN_H_

#include <string>
#include <vector>

#include "engine/ir.h"
#include "storage/catalog.h"
#include "storage/view.h"
#include "util/status.h"

namespace lmfao {

/// \brief Options of plan construction.
struct PlanOptions {
  /// Factorized aggregate computation with shared alpha/beta registers.
  /// When false, every output aggregate is computed per tuple at the leaf.
  bool factorize = true;
};

/// \brief One multiplicative part of an aggregate, available at a level.
struct PlanPart {
  enum class Kind {
    kFactor,        ///< Unary function of the level's attribute.
    kViewPayload,   ///< Payload slot of a single-entry view.
    kViewRangeSum,  ///< Sum of a payload slot over a multi-entry view range.
  };
  Kind kind = Kind::kFactor;
  /// For kFactor: the function and source attribute.
  Factor factor;
  /// For view parts: index into GroupPlan::incoming and the slot.
  int view_index = -1;
  int slot = -1;
  /// 1-based trie level at which the part becomes available.
  int level = 0;
  /// For kViewRangeSum: dense id of the distinct (view_index, slot) range
  /// sum within the plan (see GroupPlan::num_range_sums), assigned by
  /// BuildGroupPlan so the executor memoizes the sum per bind — a range
  /// referenced by several registers is summed once, not once per
  /// reference. -1 (hand-built parts) disables memoization.
  int range_sum_id = -1;

  bool is_view() const { return kind != Kind::kFactor; }
  uint64_t Signature() const;

  bool operator==(const PlanPart& o) const {
    return kind == o.kind && factor == o.factor &&
           view_index == o.view_index && slot == o.slot && level == o.level &&
           range_sum_id == o.range_sum_id;
  }
};

/// \brief Whether an input closure (GroupPlan::source_relation_mask) may
/// contain relation `r`. Exact for ids below 64; for higher ids only a
/// saturated mask answers yes (which a closure of all of 0..63 also is).
inline bool ClosureContains(uint64_t mask, RelationId r) {
  return r >= 64 ? mask == ~0ull : ((mask >> r) & 1) != 0;
}

/// \brief The compiled plan of one view group.
struct GroupPlan {
  RelationId node = kInvalidRelation;
  int group_id = -1;
  bool factorized = true;

  /// Bitmask of the base relations in this group's input closure: the
  /// group's own node plus every relation reachable through its incoming
  /// views' producers (bit = RelationId, relations beyond 63 saturate the
  /// whole mask). Set by AssignLayoutsAndClosures. Read it through
  /// ClosureContains. ExecuteDelta counts the groups whose closure
  /// contains a changed relation (ExecutionStats::delta_dirty_groups), and
  /// MakeShardedPlan (dist/shard_plan.h) picks the relation to partition
  /// from the closures; neither skips a group.
  uint64_t source_relation_mask = ~0ull;

  /// The trie attribute order (levels 1..L); all are relation attributes.
  std::vector<AttrId> attr_order;
  /// Per level: column index in the node relation.
  std::vector<int> level_column;

  /// \brief An incoming view as consumed by this group.
  ///
  /// The consumed form is sorted by the relation-attribute components in
  /// trie-level order, then by the extra components; entries sharing the
  /// bound relation attributes are therefore contiguous.
  struct IncomingView {
    ViewId view = -1;
    /// Canonical-key positions of the relation-attribute components, in
    /// trie-level order.
    std::vector<int> key_perm;
    /// Level of each relation-attribute component (parallel to key_perm).
    std::vector<int> key_levels;
    /// Canonical-key positions of the extra components (ascending attr id).
    std::vector<int> extra_perm;
    /// key_perm followed by extra_perm: consumed component c is canonical
    /// component consumed_perm[c]. The `perm` of SortView::Permuted for a
    /// non-identity consumer; required (GroupExecutor rejects a plan
    /// without it).
    std::vector<int> consumed_perm;
    /// Level at which the last relation component binds; the view's entry
    /// range is final from this level on (single entry iff extra_perm is
    /// empty).
    int bound_level = 0;
    /// Payload width (number of aggregate slots).
    int width = 0;
    /// True when the consumed key order equals the view's canonical key
    /// order (key_perm then extra_perm is the identity permutation). Such a
    /// consumer reads the stored frozen view itself; any other reads a
    /// copy permuted into consumed order (SortView::Permuted) in
    /// CopyLayout().
    bool identity_perm = false;

    bool IsMultiEntry() const { return !extra_perm.empty(); }
    /// The payload layout this consumer wants: columnar when it
    /// marginalizes or iterates entry ranges (the range-sum and
    /// entry-iteration kernels scan payload columns), row-major when it
    /// binds single entries (one match's slot reads share cache lines).
    PayloadLayout CopyLayout() const {
      return IsMultiEntry() ? PayloadLayout::kColumnar
                            : PayloadLayout::kRowMajor;
    }
  };
  std::vector<IncomingView> incoming;

  /// \brief Alpha register: value = alpha[prev] * prod(parts), computed on
  /// entry of `level`.
  struct AlphaReg {
    int prev = -1;
    int level = 0;
    std::vector<PlanPart> parts;
  };
  std::vector<AlphaReg> alphas;
  /// Per level (1-based; index 0 unused): alphas computed on entry.
  std::vector<std::vector<int>> alphas_at_level;

  /// \brief Shared per-tuple sum: sum over tuples of prod(fn(column)).
  /// An empty factor list is the tuple count.
  struct LeafSum {
    /// (relation column index, function) pairs.
    std::vector<std::pair<int, Function>> factors;
    /// Indices into leaf_factor_table, parallel to `factors`. Lowered by
    /// BuildGroupPlan; GroupExecutor rejects a plan whose ids are missing
    /// or out of range.
    std::vector<int> factor_ids;
  };
  std::vector<LeafSum> leaf_sums;

  /// Distinct (relation column index, function) leaf factors across all
  /// leaf sums and leaf writes. The executor lowers each entry once per
  /// leaf run into a scratch column via a kind-specialized batched kernel
  /// (leaf_kernels.h); LeafSum::factor_ids / LeafWrite::factor_ids index
  /// into this table.
  std::vector<std::pair<int, Function>> leaf_factor_table;

  /// Number of distinct (view, slot) range-sum parts
  /// (PlanPart::range_sum_id takes values in [0, num_range_sums)).
  int num_range_sums = 0;

  enum class SuffixKind { kOne, kLeaf, kBeta };
  struct Suffix {
    SuffixKind kind = SuffixKind::kOne;
    int index = -1;
  };

  /// \brief Beta running sum at `level`: accumulated on exit of each value
  /// of `level` as beta += prod(parts) * value(next).
  struct BetaReg {
    int level = 0;
    std::vector<PlanPart> parts;
    Suffix next;
  };
  std::vector<BetaReg> betas;
  /// Per level: betas summing over that level's values.
  std::vector<std::vector<int>> betas_at_level;

  /// \brief Source of one output key component.
  struct KeySource {
    /// True: the bound value of `level`; false: component `comp` of the
    /// current entry of multi-entry view `view_index`.
    bool from_level = true;
    int level = 0;
    int view_index = -1;
    /// Index into the consumed entry's TupleKey (relation components first,
    /// then extras).
    int comp = 0;
  };

  /// \brief An output (inner view or query output) produced by the group.
  struct OutputInfo {
    ViewId view = -1;
    /// Level at which the write fires: all level-sourced key components and
    /// all key views are bound (0 for purely global outputs).
    int write_level = 0;
    /// Per canonical key component: where its value comes from.
    std::vector<KeySource> key_sources;
    /// Multi-entry views iterated by the write (ascending view index).
    std::vector<int> key_views;
    /// Number of aggregate slots.
    int width = 0;
    /// Payload layout of the frozen view (query outputs stay ViewMaps and
    /// ignore it): columnar when some identity-order consumer, which reads
    /// the frozen view itself, wants columnar payloads
    /// (IncomingView::CopyLayout), else row-major. Set by
    /// AssignLayoutsAndClosures.
    PayloadLayout payload_layout = PayloadLayout::kColumnar;
    /// Estimated number of result entries, from the catalog's cardinality
    /// constraints (domain sizes of the key attributes, capped by the node
    /// relation size for purely level-sourced keys). 0 = unknown. Used to
    /// preallocate the output ViewMap before the group scan starts.
    size_t estimated_entries = 0;
  };
  std::vector<OutputInfo> outputs;

  /// \brief One aggregate write:
  ///   for each entry combination of the output's key_views:
  ///     output[key] += prod(entry payloads) * alpha * suffix.
  struct Write {
    int output = -1;
    int slot = -1;
    int alpha = -1;  ///< -1 means head == 1.
    Suffix suffix;
    /// Payload slots taken from the current entries of the output's
    /// key_views (parallel to OutputInfo::key_views).
    std::vector<int> entry_slots;
  };
  /// Writes performed on exit of each level's values; index 0 = after the
  /// top-level loop (outputs with write_level 0).
  std::vector<std::vector<Write>> writes_at_level;

  /// \brief Non-factorized per-tuple write (ablation mode only).
  struct LeafWrite {
    int output = -1;
    int slot = -1;
    std::vector<PlanPart> parts;
    std::vector<std::pair<int, Function>> leaf_factors;
    /// Indices into leaf_factor_table, parallel to `leaf_factors` (see
    /// LeafSum::factor_ids).
    std::vector<int> factor_ids;
    /// Entry payload slots, parallel to the output's key_views.
    std::vector<int> entry_slots;
  };
  std::vector<LeafWrite> leaf_writes;

  int num_levels() const { return static_cast<int>(attr_order.size()); }

  /// Renders the plan in the style of Fig. 3 (nested foreach with alpha/beta
  /// statements).
  std::string ToString(const Workload& workload, const Catalog& catalog) const;
};

/// \brief Compiles one view group into a register program.
StatusOr<GroupPlan> BuildGroupPlan(const Workload& workload,
                                   const ViewGroup& group,
                                   const Catalog& catalog,
                                   const std::vector<AttrId>& attr_order,
                                   const PlanOptions& options = {});

/// \brief Links the group plans through their views: records each plan's
/// input closure (source_relation_mask) and the payload layout each inner
/// view freezes in (OutputInfo::payload_layout). Every inner view is
/// frozen into a SortView at publish; its layout serves the consumers that
/// read it in canonical key order, while the others read permuted copies
/// in their own layout. `plans` must be parallel to `grouped.groups`.
void AssignLayoutsAndClosures(const GroupedWorkload& grouped,
                              std::vector<GroupPlan>* plans);

}  // namespace lmfao

#endif  // LMFAO_ENGINE_PLAN_H_
