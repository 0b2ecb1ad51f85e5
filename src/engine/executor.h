/// \file executor.h
/// \brief Interpreter of group register programs.
///
/// Executes one GroupPlan over the (sorted) node relation and the consumed
/// incoming views: a multiway sorted intersection (leapfrog style) drives
/// the trie iteration level by level; alpha/beta/leaf registers are
/// evaluated exactly where the plan placed them; multi-entry views (those
/// carrying group-by attributes that are not relation attributes) expose
/// contiguous entry ranges that writes iterate and marginalizing parts sum
/// over. The interpreter's inner loops are column-at-a-time: leaf factors
/// are lowered once per leaf run into scratch columns by kind-specialized
/// kernels (leaf_kernels.h), leaf sums are unit-stride products over those
/// columns, and range sums are unit-stride scans of contiguous payload
/// columns memoized per bind. This interpreter and the C++ code generator
/// (codegen.h) lower the same plan, so they produce identical results.

#ifndef LMFAO_ENGINE_EXECUTOR_H_
#define LMFAO_ENGINE_EXECUTOR_H_

#include <array>
#include <memory>
#include <vector>

#include "engine/leaf_kernels.h"
#include "engine/parallel.h"
#include "engine/plan.h"
#include "storage/key_columns.h"
#include "storage/payload_columns.h"
#include "storage/relation.h"
#include "storage/view.h"
#include "util/cancel.h"
#include "util/status.h"

namespace lmfao {

/// \brief An incoming view re-sorted for consumption by one group, keys
/// exposed as per-component columns, payloads in the layout matching the
/// consumption pattern.
///
/// Keys are permuted into (relation components in trie-level order, then
/// extra components) and sorted lexicographically, so entries agreeing on
/// the bound relation components are contiguous and each consumed key
/// component is one contiguous int64 column — the executor's merge-join
/// cursors seek over plain columns instead of strided key objects.
/// Payloads follow the consumption pattern: *multi-entry* views (whose
/// entry ranges are marginalized over or iterated by writes) are columnar
/// — a range sum over one slot is a unit-stride scan of one payload
/// column — while *single-entry* views (bound to one entry per match,
/// many slots read together) stay row-major so one match's register reads
/// share cache lines. The executor requires multi-entry views to be
/// columnar (Validate); single-entry views may be either (a borrowed
/// frozen view carries its producer's layout).
///
/// The consumed form either owns a permuted copy (built by
/// BuildConsumedView via an index argsort + per-column gather) or borrows
/// the arrays of a frozen SortView when the consumed order equals the
/// canonical order (GroupPlan::IncomingView::identity_perm) — the
/// zero-copy path the ViewStore takes for frozen views.
struct ConsumedView {
  int arity = 0;
  int width = 0;
  size_t size = 0;
  /// Per consumed component: a contiguous sorted column. Points into
  /// `owned_keys` or into a borrowed SortView that must outlive this
  /// object.
  std::array<const int64_t*, TupleKey::kMaxArity> cols{};
  /// Payload base in `payload_layout` order (strides below); points into
  /// `owned_payloads` or a borrowed SortView.
  const double* payload_base = nullptr;
  PayloadLayout payload_layout = PayloadLayout::kColumnar;
  /// Distance (in doubles) between consecutive entries of one slot /
  /// consecutive slots of one entry.
  size_t payload_entry_stride = 0;
  size_t payload_slot_stride = 0;

  ConsumedView() = default;
  ConsumedView(const ConsumedView&) = delete;
  ConsumedView& operator=(const ConsumedView&) = delete;
  ConsumedView(ConsumedView&&) = default;
  ConsumedView& operator=(ConsumedView&&) = default;

  /// Borrows the columns of a frozen view (canonical order == consumed
  /// order); no copy.
  static ConsumedView Borrow(const SortView& frozen);

  const int64_t* col(int c) const { return cols[static_cast<size_t>(c)]; }

  /// Contiguous payload column of aggregate slot `s` (columnar layout —
  /// the multi-entry range-sum / entry-iteration hot paths).
  const double* pcol(int s) const {
    return payload_base + static_cast<size_t>(s) * payload_slot_stride;
  }
  /// Payload slot `s` of entry `i`, any layout (single-entry reads).
  double payload_at(size_t i, int s) const {
    return payload_base[i * payload_entry_stride +
                        static_cast<size_t>(s) * payload_slot_stride];
  }

  KeyColumns owned_keys;
  PayloadMatrix owned_payloads;
};

/// \brief Builds the consumed (trie-ordered, sorted) form of a produced view
/// in hash form.
ConsumedView BuildConsumedView(const ViewMap& produced,
                               const GroupPlan::IncomingView& incoming);

/// \brief Same, from the frozen sorted form (non-identity permutations).
ConsumedView BuildConsumedView(const SortView& produced,
                               const GroupPlan::IncomingView& incoming);

/// \brief Executes one group plan.
///
/// The caller provides the node relation sorted by the plan's attribute
/// order, the consumed incoming views (parallel to plan.incoming), and one
/// result map per plan output (created with the output's key arity and
/// width).
class GroupExecutor {
 public:
  /// `params` supplies the bound values of parameterized functions; they
  /// are resolved ONCE here, at lowering time (leaf kernels, flattened
  /// exec parts), so the interpreter's inner loops are identical for
  /// literal and parameterized batches. May be null when the plan uses no
  /// parameterized functions; all referenced slots must be bound
  /// (validated by PreparedBatch::Execute before any executor is built).
  ///
  /// `cancel` (optional) is polled amortized — once every
  /// kCancelCheckInterval trie matches — charging `charge_base` plus the
  /// current memory of this executor's output maps against the token's
  /// budget. On a trip the iteration unwinds early and Execute returns the
  /// token's status; partially-filled outputs are the caller's
  /// to discard.
  GroupExecutor(const GroupPlan& plan, const Relation& sorted_relation,
                std::vector<const ConsumedView*> views,
                const ParamPack* params = nullptr,
                const CancelToken* cancel = nullptr, size_t charge_base = 0);

  /// Runs the whole group over the whole relation.
  Status Execute(const std::vector<ViewMap*>& outputs) {
    return Execute(outputs, ShardRange{0, relation_.num_rows()});
  }

  /// Runs the whole group over rows [rows.lo, rows.hi) — one scan piece.
  /// The batch is linear in the relation's rows, so the results of any
  /// row partition's pieces MergeAdd to the full result.
  Status Execute(const std::vector<ViewMap*>& outputs, ShardRange rows);

 private:
  struct Range {
    size_t lo = 0;
    size_t hi = 0;
    bool empty() const { return lo >= hi; }
  };

  /// Upper bound on views participating at one trie level (inline cursor
  /// buffers); far above any realistic group.
  static constexpr size_t kMaxLevelViews = 64;

  /// \name Flattened register program.
  ///
  /// The plan's registers are nested heap structures (vectors of registers
  /// of vectors of PlanParts, each part dragging a shared_ptr-carrying
  /// Function through cache); the inner interpreter loop instead runs over
  /// compact contiguous op arrays lowered once at construction: one
  /// ExecPart per multiplicative part (16 bytes + the factor parameter),
  /// one RegOp per (register, level), one WriteOp per write. Evaluating a
  /// level's registers is then a linear scan of one array slice.
  /// @{
  struct ExecPart {
    uint8_t kind;       ///< PlanPart::Kind.
    uint8_t fn_kind;    ///< FunctionKind of a factor part.
    int16_t view_index;
    int32_t slot;
    int32_t level;
    int32_t range_sum_id;
    double threshold;              ///< Indicator threshold.
    const FunctionDict* dict = nullptr;  ///< Dictionary payload (borrowed).
  };
  /// Alpha/beta registers are renumbered to op order (level-major), so
  /// alpha_vals_ / beta_vals_ are indexed by op position: one level's
  /// registers occupy one contiguous value range (zeroing is a fill,
  /// accumulation walks sequentially). All references (prev, beta
  /// suffixes, write alphas) carry the renumbered index.
  ///
  /// The dominant register shape by dynamic count — a single kViewPayload
  /// part (one slot of a bound single-entry view, scaled by the suffix) —
  /// is fused into the op at lowering time (`shape == kPayload`): the
  /// accumulation loop then does two loads and a multiply-add with no
  /// part dispatch at all. Everything else takes the generic part loop.
  enum class RegShape : uint8_t { kGeneric, kPayload };
  /// Fused runs of consecutive kPayload betas (detected once at lowering,
  /// see FuseBetaRuns): `run_len > 1` marks a run head — the next
  /// `run_len` ops read consecutive slots (unit payload stride) of the
  /// same view, so the whole run is one elementwise loop over a contiguous
  /// payload block; members carry `run_len == 0` and are skipped by the
  /// accumulation scan. `run_len == 1` is an ordinary op.
  enum class RunKind : uint8_t {
    kScalarSuffix,  ///< All ops share one suffix: beta[r..] += p[..] * s.
    kPairSuffix,    ///< Suffixes are consecutive betas: += p[i] * suf[i].
  };
  struct RegOp {
    int32_t reg;            ///< alpha_vals_ / beta_vals_ index (op order).
    int32_t prev;           ///< Alphas: chained register, -1 for none.
    uint8_t suffix_kind;    ///< Betas: GroupPlan::SuffixKind.
    RegShape shape = RegShape::kGeneric;
    int16_t view = -1;      ///< kPayload: view index of the fused part.
    int32_t slot = -1;      ///< kPayload: payload slot of the fused part.
    int32_t suffix_index;
    uint32_t part_begin;    ///< [part_begin, part_end) into exec_parts_.
    uint32_t part_end;
    int32_t run_len = 1;    ///< >1: fused run head; 0: run member (skip).
    RunKind run_kind = RunKind::kScalarSuffix;
  };
  struct WriteOp {
    const GroupPlan::Write* write;  ///< Keyed path (entry_slots).
    int32_t output;
    int32_t slot;
    int32_t alpha;
    uint8_t suffix_kind;
    int32_t suffix_index;
    bool keyed;  ///< True when the output iterates key-view entry ranges.
  };
  /// @}

  Status Validate() const;
  void Prepare(const std::vector<ViewMap*>& outputs, ShardRange rows);
  void IterateLevel(int level);
  void ProcessMatch(int level, int64_t value);
  /// Column-at-a-time leaf evaluation of one relation range: lowers each
  /// distinct leaf factor once into a scratch column (kind-specialized
  /// kernels, no per-row Function::Eval dispatch), folds leaf sums as
  /// unit-stride products over those columns, and emits the hoisted
  /// non-factorized leaf writes.
  void LeafLoop(const Range& range);
  void EvalAlphas(int level);
  void AccumulateBetas(int level);
  void WriteOutputs(int level);
  double EvalExecPart(const ExecPart& part);
  double SuffixValue(uint8_t kind, int32_t index) const;
  /// Entry range of a view at (or below) its bound level.
  Range ViewRangeAt(int view_index, int level) const;
  /// Shared tail of keyed WriteOutputs / the batched leaf writes: upserts
  /// `base` (times the key views' entry payload products) into the output,
  /// iterating the cross product of the key views' entry ranges at `level`.
  void EmitKeyedWrite(const GroupPlan::OutputInfo& o, int output, int slot,
                      const std::vector<int>& entry_slots, double base,
                      int level);
  /// Whole-range write of one non-factorized ablation aggregate: the
  /// per-row factor product is pre-summed over the leaf range (scratch
  /// columns), so the write runs once per range instead of once per row.
  void EmitLeafWriteBatch(size_t leaf_write_index, size_t rows);
  /// Sum over the current leaf run of the product of the given scratch
  /// columns (empty = the run length, i.e. the tuple count).
  double ScratchProductSum(const std::vector<int>& kernel_ids, size_t rows);
  /// Detects fused kPayload runs in each level's beta slice (lowering-time
  /// pass over beta_ops_; see RunKind). The fused loops are bit-identical
  /// to the op-at-a-time scan.
  void FuseBetaRuns();

  const GroupPlan& plan_;
  const Relation& relation_;
  std::vector<const ConsumedView*> views_;

  /// Matches between two cancellation checks: frequent enough that a trip
  /// is noticed within microseconds, rare enough to stay invisible in the
  /// overhead bench (<2% with limits enabled but untripped).
  static constexpr int kCancelCheckInterval = 1024;
  const CancelToken* cancel_;
  const size_t charge_base_;
  int cancel_countdown_ = kCancelCheckInterval;
  Status abort_status_;

  // Per-level participation, precomputed.
  std::vector<const int64_t*> level_rel_column_;
  // (view index, key component) pairs participating per level.
  std::vector<std::vector<std::pair<int, int>>> level_views_;
  // Single-entry views whose last key component binds at each level; their
  // entry rows are cached once per match instead of being re-derived for
  // every register evaluation.
  std::vector<std::vector<int>> level_bound_views_;
  // effective_level_[v * level_stride_ + l] = deepest level <= l at which
  // view v's range was narrowed (v participates). Ranges are only written
  // at participation levels; reads indirect through this flat strided table
  // instead of copying every view's range on every match.
  std::vector<int> effective_level_;
  // Rows of the flat per-view tables (levels + 1 entries per view).
  size_t level_stride_ = 0;

  // Execution state.
  std::vector<Range> rel_range_;  // per level 0..L
  // view_range_[v * level_stride_ + l]: view v's range at level l.
  std::vector<Range> view_range_;
  std::vector<int64_t> bound_;                  // per level 1..L
  std::vector<double> alpha_vals_;
  std::vector<double> beta_vals_;
  std::vector<double> leaf_vals_;
  std::vector<ViewMap*> outputs_;
  // Cached payload pointer to the bound entry of each single-entry view
  // (set when it binds): slot s of view v is ptr[s * sstride] — one load
  // off the cached pointer for row-major views (stride 1), a strided read
  // for a borrowed columnar frozen view. Pointer and stride share one
  // 16-byte entry so a kViewPayload eval touches a single cache line.
  struct PayloadRef {
    const double* ptr = nullptr;
    size_t sstride = 0;
  };
  std::vector<PayloadRef> view_payload_cache_;
  // Scratch for key-view entry iteration (no per-write allocation).
  std::vector<size_t> entry_cursor_;
  std::vector<Range> write_ranges_;

  // Memoized range sums: one entry per distinct (view, slot) range-sum
  // part (PlanPart::range_sum_id). Validated by the exact [lo, hi) the sum
  // was computed for, so a range referenced by several registers is summed
  // once per bind.
  struct RangeSumCache {
    size_t lo = static_cast<size_t>(-1);
    size_t hi = static_cast<size_t>(-1);
    double sum = 0.0;
  };
  std::vector<RangeSumCache> range_sum_cache_;

  // Flattened register program (see the struct docs above).
  std::vector<ExecPart> exec_parts_;
  std::vector<RegOp> alpha_ops_;
  std::vector<RegOp> beta_ops_;
  std::vector<WriteOp> write_ops_;
  // Per level 0..L: [begin, end) slices of the op arrays.
  std::vector<uint32_t> alpha_level_begin_;
  std::vector<uint32_t> beta_level_begin_;
  std::vector<uint32_t> write_level_begin_;
  // Per leaf write: its parts as an exec_parts_ slice.
  std::vector<std::pair<uint32_t, uint32_t>> leaf_write_parts_;

  // Batched leaf evaluation: one kind-specialized kernel per distinct
  // (column, function) leaf factor, its scratch column, and per
  // leaf-sum / leaf-write id lists into the kernel table.
  std::vector<LeafKernel> leaf_kernels_;
  std::vector<std::vector<double>> leaf_scratch_;
  size_t leaf_scratch_rows_ = 0;
  std::vector<double> leaf_prod_scratch_;
  std::vector<std::vector<int>> leaf_sum_kernels_;
  std::vector<std::vector<int>> leaf_write_kernels_;
};

}  // namespace lmfao

#endif  // LMFAO_ENGINE_EXECUTOR_H_
