/// \file executor.h
/// \brief Interpreter of group register programs.
///
/// Executes one GroupPlan over the (sorted) node relation and the consumed
/// incoming views: a multiway sorted intersection (leapfrog style) drives
/// the trie iteration level by level; alpha/beta/leaf registers are
/// evaluated exactly where the plan placed them; multi-entry views (those
/// carrying group-by attributes that are not relation attributes) expose
/// contiguous entry ranges that writes iterate and marginalizing parts sum
/// over. The interpreter's inner loops are column-at-a-time: each level's
/// registers and writes are lowered once into a flat level program of
/// fused runs and gathers, leaf factors are lowered once per leaf run into
/// scratch columns by kind-specialized kernels (leaf_kernels.h), leaf sums
/// are unit-stride products over those columns, and range sums are
/// unit-stride scans of contiguous payload columns memoized per bind. The
/// level program (LowerLevelProgram) is the only lowering of a GroupPlan.

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

/// \brief Executes one group plan.
///
/// The caller provides the node relation sorted by the plan's attribute
/// order, the incoming views (parallel to plan.incoming) each as a
/// SortView in its consumed key order (relation components in trie-level
/// order, then the extra components: the stored view itself for an
/// identity-order consumer, else a SortView::Permuted copy), and one
/// result map per plan output (created with the output's key arity and
/// width). Entries agreeing on the bound relation components are then
/// contiguous, and the merge-join cursors seek over plain key columns.
/// Multi-entry views must be columnar (range sums and entry iteration scan
/// payload columns); single-entry views may be either layout. The views
/// must outlive the executor.
class GroupExecutor {
 public:
  /// `params` supplies the bound values of parameterized functions; they
  /// are resolved ONCE here, at lowering time (leaf kernels, the level
  /// program's exec parts), so the interpreter's inner loops are identical
  /// for literal and parameterized batches. May be null when the plan uses no
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
                const std::vector<const SortView*>& views,
                const ParamPack* params = nullptr,
                const CancelToken* cancel = nullptr, size_t charge_base = 0);

  /// Runs the whole group over the whole relation.
  Status Execute(const std::vector<ViewMap*>& outputs) {
    return Execute(outputs, ShardRange{0, relation_.num_rows()});
  }

  /// Runs the whole group over rows [rows.lo, rows.hi) — one scan piece.
  /// The batch is linear in the relation's rows, so the results of any
  /// row partition's pieces MergeAdd to the full result. One executor may
  /// run any number of pieces, one at a time.
  Status Execute(const std::vector<ViewMap*>& outputs, ShardRange rows);

  /// Step counts of the lowered level program, by kind (tests check
  /// which kernels a plan lowers to). Gathers count their registers or
  /// writes; beta gathers are split by the source of their suffix.
  struct ProgramShape {
    int alpha_runs = 0;
    int beta_runs = 0;
    int beta_pair_runs = 0;
    int write_runs = 0;
    int alpha_gathers = 0;
    int beta_gathers_one = 0;
    int beta_gathers_leaf = 0;
    int beta_gathers_beta = 0;
    int write_gathers = 0;
    int generic = 0;
    int keyed_writes = 0;
    int max_key_views = 0;  ///< Most key views one keyed write iterates.
  };
  ProgramShape Shape() const;

 private:
  struct Range {
    size_t lo = 0;
    size_t hi = 0;
    bool empty() const { return lo >= hi; }
  };

  /// Upper bound on views participating at one trie level (inline cursor
  /// buffers); far above any realistic group.
  static constexpr size_t kMaxLevelViews = 64;

  /// \name The level program.
  ///
  /// The plan's registers are nested heap structures (vectors of registers
  /// of vectors of PlanParts, each part dragging a shared_ptr-carrying
  /// Function through cache). The constructor lowers them once into one
  /// flat array of Steps, level by level, and the per-match loops run over
  /// a slice of that array. A step is one fused loop, not one register:
  ///
  /// - a *run* is one elementwise loop over consecutive registers that
  ///   read consecutive payload slots of one bound row-major view (alpha
  ///   runs share their `prev`; beta runs share one suffix or read
  ///   consecutive ones), or consecutive slots of one output written from
  ///   consecutive alphas with one suffix;
  /// - a *gather* is one loop over a level's leftover single-payload
  ///   registers of one view (or an output's leftover writes), its
  ///   operands kept as structure-of-arrays in gather_dst_ / gather_off_ /
  ///   gather_src_;
  /// - a *generic* step evaluates one register's parts (range sums,
  ///   factors, several payloads) through EvalExecPart;
  /// - an *upsert* step probes one non-keyed output once per match, and a
  ///   *keyed write* iterates its output's key-view entries.
  ///
  /// Every value a step reads or writes sits in one value file, vals_:
  /// index 0 holds 1.0, then the leaf sums, then the betas, then the
  /// alphas. Betas and alphas are renumbered level-major, so one level's
  /// registers are one contiguous block. Suffixes, prevs and write alphas
  /// are lowered to vals_ indices (kOne and a missing alpha both to index
  /// 0), so no step dispatches on a suffix kind. Each register keeps its
  /// exact sequence of multiply-adds, so the results are bit-identical to
  /// evaluating the registers one at a time.
  ///
  /// Steps of one level may run in any order because a level never reads
  /// its own registers: an alpha's prev is a shallower alpha and a beta's
  /// suffix is a deeper beta or a leaf sum (BuildGroupPlan's shape;
  /// Validate rejects plans that break it).
  /// @{
  /// One multiplicative part of a generic register (32 bytes).
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
  /// `v` is vals_, `p` the payload source of the step's `view` (the bound
  /// entry of a single-entry view, or vals_ itself for view -1, whose
  /// offset 0 is the 1.0), `o` the current output's payload.
  enum class StepKind : uint8_t {
    kAlphaRun,     ///< v[dst + k] = p[off + k] * v[src], k < len.
    kAlphaGather,  ///< v[gd[i]] = p[go[i]] * v[gs[i]], i in [off, off+len).
    kBetaRun,      ///< v[dst + k] += p[off + k] * v[src].
    kBetaPairRun,  ///< v[dst + k] += p[off + k] * v[src + k].
    kBetaGather,   ///< v[gd[i]] += p[go[i]] * v[gs[i]].
    kAlpha,        ///< v[dst] = v[src] * parts [off, off + len).
    kBeta,         ///< v[dst] += v[src] * parts [off, off + len).
    kUpsert,       ///< o = output dst at the level-bound key.
    kWriteRun,     ///< o[dst + k] += v[off + k] * v[src].
    kWriteGather,  ///< o[gd[i]] += v[go[i]] * v[gs[i]].
    kKeyedWrite,   ///< keyed_writes_[dst] over its key-view entries.
  };
  struct Step {
    StepKind kind;
    int16_t view = -1;
    int32_t dst = 0;
    int32_t src = 0;
    int32_t off = 0;
    int32_t len = 0;
  };
  /// One level's steps: [entry, exit) run when a value binds (alphas),
  /// [exit, end) when it is left (betas, then writes).
  struct LevelSteps {
    uint32_t entry = 0;
    uint32_t exit = 0;
    uint32_t end = 0;
  };
  /// Where one output key component comes from: the bound value of
  /// `level`, or (col != nullptr) column `col` of the key view whose
  /// odometer cursor is `cursor`. Resolved once at lowering.
  struct KeyComp {
    int32_t level = 0;
    int32_t cursor = 0;
    const int64_t* col = nullptr;
  };
  /// A write through its output's key views (also the ablation's leaf
  /// writes); `pcols` indexes keyed_pcols_, one entry payload column per
  /// key view.
  struct KeyedWrite {
    int32_t output;
    int32_t slot;
    int32_t alpha;  ///< vals_ index.
    int32_t suffix; ///< vals_ index.
    uint32_t pcols;
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
  /// Runs steps_[begin, end) at `level`.
  void RunSteps(uint32_t begin, uint32_t end, int level);
  double EvalExecPart(const ExecPart& part);
  /// Entry range of a view at (or below) its bound level.
  Range ViewRangeAt(int view_index, int level) const;
  /// Upserts `base` (times the key views' entry payload products) into
  /// `w`'s output, iterating the cross product of the key views' entry
  /// ranges at `level`.
  void EmitKeyedWrite(const KeyedWrite& w, double base, int level);
  /// Whole-range write of one non-factorized ablation aggregate: the
  /// per-row factor product is pre-summed over the leaf range (scratch
  /// columns), so the write runs once per range instead of once per row.
  void EmitLeafWriteBatch(size_t leaf_write_index, size_t rows);
  /// Sum over the current leaf run of the product of the given scratch
  /// columns (empty = the run length, i.e. the tuple count).
  double ScratchProductSum(const std::vector<int>& kernel_ids, size_t rows);
  /// Lowers the plan's registers and writes into steps_ (constructor).
  void LowerLevelProgram(const ParamPack* params);

  /// An incoming view's arrays, resolved once in the constructor so no
  /// hot loop goes through PayloadMatrix's layout-checked accessors.
  struct ViewArrays {
    int width = 0;
    size_t size = 0;
    /// Per consumed component: a contiguous sorted column.
    std::array<const int64_t*, TupleKey::kMaxArity> cols{};
    /// Payload base, layout and strides (PayloadMatrix's).
    const double* payload_base = nullptr;
    PayloadLayout payload_layout = PayloadLayout::kColumnar;
    size_t payload_entry_stride = 0;
    size_t payload_slot_stride = 0;

    const int64_t* col(int c) const { return cols[static_cast<size_t>(c)]; }
    /// Contiguous payload column of slot `s` (columnar layout).
    const double* pcol(int s) const {
      return payload_base + static_cast<size_t>(s) * payload_slot_stride;
    }
  };

  const GroupPlan& plan_;
  const Relation& relation_;
  std::vector<ViewArrays> views_;

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
  // The value file (see the level program docs).
  std::vector<double> vals_;
  std::vector<ViewMap*> outputs_;
  // Payload of the bound entry of each single-entry view (set when it
  // binds); slot s sits at offset s * payload_slot_stride, which the
  // lowering folds into each step's offsets.
  std::vector<const double*> bound_payload_;
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

  // The level program (see the struct docs above).
  std::vector<ExecPart> exec_parts_;
  std::vector<Step> steps_;
  std::vector<LevelSteps> level_steps_;  // per level 0..L
  // Gather spans' structure-of-arrays operands (StepKind docs).
  std::vector<int32_t> gather_dst_;
  std::vector<int32_t> gather_off_;
  std::vector<int32_t> gather_src_;
  // vals_ layout: leaf sums at [1, beta_base_), betas from beta_base_,
  // alphas from alpha_base_; level l's betas at
  // [beta_level_begin_[l], beta_level_begin_[l + 1]).
  int32_t beta_base_ = 0;
  int32_t alpha_base_ = 0;
  std::vector<int32_t> beta_level_begin_;
  // Per output: its key components at
  // key_comps_[output_key_begin_[o], output_key_begin_[o + 1]).
  std::vector<KeyComp> key_comps_;
  std::vector<uint32_t> output_key_begin_;
  std::vector<KeyedWrite> keyed_writes_;
  std::vector<const double*> keyed_pcols_;
  // Per leaf write: its parts as an exec_parts_ slice, and its keyed write.
  std::vector<std::pair<uint32_t, uint32_t>> leaf_write_parts_;
  std::vector<KeyedWrite> leaf_keyed_writes_;
  // Why the plan cannot run (Validate), found while lowering.
  Status lowering_status_;

  // Batched leaf evaluation: one kind-specialized kernel per distinct
  // (column, function) leaf factor and its scratch column, indexed by the
  // plan's LeafSum / LeafWrite factor_ids.
  std::vector<LeafKernel> leaf_kernels_;
  std::vector<std::vector<double>> leaf_scratch_;
  size_t leaf_scratch_rows_ = 0;
  std::vector<double> leaf_prod_scratch_;
};

}  // namespace lmfao

#endif  // LMFAO_ENGINE_EXECUTOR_H_
