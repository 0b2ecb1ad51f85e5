/// \file execution_context.h
/// \brief The execution runtime of one batch evaluation.
///
/// The ExecutionContext owns the state of one pass — the ViewStore (view
/// ownership, consumer refcounts, eager eviction) and the pass's ledger of
/// occupied threads — and runs the unified task+domain scheduler on a
/// worker pool it borrows from the Engine. One context evaluates one
/// compiled batch:
///
///   1. every workload view is registered in the ViewStore with its
///      consumer count (derived from the group plans) and the payload
///      layout it freezes in (AssignLayoutsAndClosures); a query output
///      consumed by a group is an Internal error, since query outputs stay
///      ViewMaps;
///   2. groups run over the dependency graph via ScheduleGroupsTimed, each
///      scanning row-range pieces of its sorted relation: a large group
///      claims idle thread slots (ChooseShardCount) for domain shards, each
///      scanning every n-th key-aligned block of the relation
///      (KeyAlignedRanges), while other ready groups keep running; a group
///      at a ScanSplit's node shards the same way, in the split's shard
///      count, and folds through the split's exchange;
///   3. per-shard private maps are merged, outputs published into the
///      store (every inner view frozen into a SortView), and consumed views
///      released — the store evicts each view after its last consumer
///      finishes.
///
/// A group reads each incoming view as a SortView in its consumed key
/// order: the stored view itself when that order is canonical
/// (IncomingView::identity_perm), else a SortView::Permuted copy the group
/// owns until its scan ends.

#ifndef LMFAO_ENGINE_EXECUTION_CONTEXT_H_
#define LMFAO_ENGINE_EXECUTION_CONTEXT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "engine/engine.h"
#include "engine/parallel.h"
#include "engine/plan.h"
#include "storage/relation.h"
#include "storage/view_store.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace lmfao {

class ExecutionContext {
 public:
  /// Supplies the node relation sorted by (the relation subsequence of) the
  /// given attribute order; the engine backs this with its sorted-relation
  /// cache. The group holds the returned snapshot while it scans. Must be
  /// thread-safe.
  using SortedRelationProvider =
      std::function<StatusOr<std::shared_ptr<const Relation>>(
          RelationId, const std::vector<AttrId>&)>;

  /// Borrows all compile artifacts, the pool (null: run on the caller) and
  /// the param bindings, when given; they must outlive the context.
  /// `params` resolves parameterized functions at each group's bind time —
  /// the compiled plans themselves are never mutated, which is what makes
  /// one compiled batch safe to execute from many contexts concurrently.
  /// `cancel` (optional, borrowed) governs the pass: checked at group
  /// boundaries, after each publish (charging the store's live bytes), and
  /// amortized inside the interpreter's trie iteration. A budget trip on a
  /// group whose shards ran on the pool (domain or split shards) is
  /// retried once with its shards run one at a time — one shard's private
  /// maps live, the sharded summation order kept — before the pass gives
  /// up; the retry is possible because budget trips are not sticky on the
  /// token (see CancelToken) and an attempt's state lives in its group.
  /// `split` (optional, borrowed) runs the groups at its node in the
  /// split's shard count instead of the cost model's, and folds their
  /// shards through its exchange instead of MergeAdd.
  /// `ranges` (optional, borrowed; indexed by AttrId) are the attribute
  /// value ranges at the pass's epoch: an output whose key box they bound
  /// tightly enough is built as a direct-addressed (dense) ViewMap, and so
  /// is each shard's private map of it.
  ExecutionContext(const Workload& workload, const GroupedWorkload& grouped,
                   const std::vector<GroupPlan>& plans,
                   const SchedulerOptions& options, ThreadPool* pool,
                   SortedRelationProvider sorted_relation,
                   const ParamPack* params = nullptr,
                   const CancelToken* cancel = nullptr,
                   const ScanSplit* split = nullptr,
                   const std::vector<ValueRange>* ranges = nullptr);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Executes every group and adds the pass's share to the call's `stats`:
  /// one GroupStats per group (by group id), the counters, the execute
  /// time, the store peaks (by max) and, with a split, the dist fields.
  Status Run(ExecutionStats* stats);

  /// Moves a query-output map out of the store (call after Run).
  StatusOr<ViewMap> TakeQueryResult(ViewId view);

 private:
  Status RunGroup(int gid, const GroupStart& start, GroupStats* gs);

  const Workload& workload_;
  const GroupedWorkload& grouped_;
  const std::vector<GroupPlan>& plans_;
  const SchedulerOptions& options_;
  ThreadPool* const pool_;
  SortedRelationProvider sorted_relation_;
  const ParamPack* params_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  const ScanSplit* split_ = nullptr;
  const std::vector<ValueRange>* ranges_ = nullptr;
  ViewStore store_;
  /// Groups finished so far — progress reported in the error message when
  /// the pass is cut short (the caller gets no ExecutionStats on error).
  std::atomic<int> groups_completed_{0};
  /// Threads this pass occupies with group runners *and* their shard
  /// helpers — the occupancy the shard cost model divides the thread count
  /// by. Per pass, not per pool, so no pass's shard counts (and bits)
  /// depend on other passes.
  std::atomic<int> busy_threads_{0};
};

}  // namespace lmfao

#endif  // LMFAO_ENGINE_EXECUTION_CONTEXT_H_
