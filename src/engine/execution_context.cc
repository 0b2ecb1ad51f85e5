#include "engine/execution_context.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "engine/executor.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace lmfao {

namespace {

/// Occupies `amount` slots of a busy-thread counter for the current scope.
class BusyScope {
 public:
  BusyScope(std::atomic<int>* counter, int amount)
      : counter_(counter), amount_(amount) {
    counter_->fetch_add(amount_);
  }
  ~BusyScope() { counter_->fetch_sub(amount_); }
  BusyScope(const BusyScope&) = delete;
  BusyScope& operator=(const BusyScope&) = delete;

 private:
  std::atomic<int>* counter_;
  int amount_;
};

/// Releases the acquired incoming views on scope exit (including error
/// returns, so a failed group never strands refcounts in the store).
class AcquiredViews {
 public:
  explicit AcquiredViews(ViewStore* store) : store_(store) {}
  ~AcquiredViews() { ReleaseAll(); }
  AcquiredViews(const AcquiredViews&) = delete;
  AcquiredViews& operator=(const AcquiredViews&) = delete;

  void Add(ViewId view) { views_.push_back(view); }
  void ReleaseAll() {
    for (ViewId v : views_) store_->Release(v);
    views_.clear();
  }

 private:
  ViewStore* store_;
  std::vector<ViewId> views_;
};

/// Moves a failure that a void seam (ViewMap growth) parked on this thread
/// into `*st` unless it already holds one. Parks are thread-local, so each
/// thread harvests its own before its result crosses threads.
void HarvestParked(Status* st) {
  if (!Failpoints::enabled()) return;
  Status parked = Failpoints::TakeParked();
  if (st->ok()) *st = std::move(parked);
}

/// The key box of a direct-addressed output map: each key attribute's
/// value range at the pass's epoch, when all are known and their product
/// is at most twice the output's estimated entries (itself capped, so the
/// box needs no byte cap of its own). False selects hash mode.
bool DenseKeyBox(const std::vector<AttrId>& key,
                 const std::vector<ValueRange>& ranges, size_t estimate,
                 std::vector<ValueRange>* box) {
  if (estimate == 0) return false;
  const uint64_t max_cells = 2 * static_cast<uint64_t>(estimate);
  uint64_t cells = 1;
  for (AttrId a : key) {
    if (static_cast<size_t>(a) >= ranges.size()) return false;
    const ValueRange& r = ranges[static_cast<size_t>(a)];
    if (!r.known()) return false;
    const uint64_t extent =
        static_cast<uint64_t>(r.max) - static_cast<uint64_t>(r.min) + 1;
    if (extent == 0 || extent > max_cells / cells) return false;
    cells *= extent;
    box->push_back(r);
  }
  return true;
}

/// The dist fields of a split pass, derived from the shard records of the
/// groups at the split node: each shard's records summed over those
/// groups, the folds' time as the merge time.
void AddSplitStats(RelationId node, ExecutionStats* stats) {
  std::vector<ShardStats>& shards = stats->dist_shard_stats;
  for (const GroupStats& gs : stats->groups) {
    if (gs.node != node) continue;
    // A group's records are its shards 0, 1, ... in order.
    shards.resize(std::max(shards.size(), gs.shard_stats.size()));
    for (const ShardStats& rec : gs.shard_stats) {
      ShardStats& s = shards[static_cast<size_t>(rec.shard)];
      s.shard = rec.shard;
      s.rows += rec.rows;
      s.seconds += rec.seconds;
      s.fold_seconds += rec.fold_seconds;
      s.exchange_bytes += rec.exchange_bytes;
      stats->exchange_bytes += rec.exchange_bytes;
      stats->merge_seconds += rec.fold_seconds;
    }
  }
  stats->dist_relation = node;
  for (const ShardStats& s : shards) {
    stats->shard_max_seconds = std::max(stats->shard_max_seconds, s.seconds);
    stats->shard_mean_seconds += s.seconds;
  }
  stats->shard_mean_seconds /= std::max<double>(1.0, shards.size());
}

}  // namespace

ExecutionContext::ExecutionContext(const Workload& workload,
                                   const GroupedWorkload& grouped,
                                   const std::vector<GroupPlan>& plans,
                                   const SchedulerOptions& options,
                                   ThreadPool* pool,
                                   SortedRelationProvider sorted_relation,
                                   const ParamPack* params,
                                   const CancelToken* cancel,
                                   const ScanSplit* split,
                                   const std::vector<ValueRange>* ranges)
    : workload_(workload),
      grouped_(grouped),
      plans_(plans),
      options_(options),
      pool_(pool),
      sorted_relation_(std::move(sorted_relation)),
      params_(params),
      cancel_(cancel != nullptr && cancel->armed() ? cancel : nullptr),
      split_(split),
      ranges_(ranges) {
  LMFAO_CHECK_EQ(grouped_.groups.size(), plans_.size());
}

Status ExecutionContext::Run(ExecutionStats* stats) {
  Timer timer;
  // Register every view: consumer refcounts from the plans' incoming
  // lists, the frozen payload layout from the plan layer, query outputs
  // pinned until TakeQueryResult. A query output stays a ViewMap for
  // TakeResult, so none may be an incoming view (the plan layer never
  // makes one).
  std::vector<int> consumers(workload_.views.size(), 0);
  std::vector<PayloadLayout> layouts(workload_.views.size(),
                                     PayloadLayout::kColumnar);
  for (const GroupPlan& plan : plans_) {
    for (const GroupPlan::IncomingView& in : plan.incoming) {
      if (workload_.view(in.view).IsQueryOutput()) {
        return Status::Internal("query output " + std::to_string(in.view) +
                                " is an incoming view");
      }
      ++consumers[static_cast<size_t>(in.view)];
    }
    for (const GroupPlan::OutputInfo& out : plan.outputs) {
      layouts[static_cast<size_t>(out.view)] = out.payload_layout;
    }
  }
  for (size_t v = 0; v < workload_.views.size(); ++v) {
    LMFAO_FAILPOINT("viewstore.register");
    store_.Register(static_cast<ViewId>(v), consumers[v],
                    workload_.views[v].IsQueryOutput(), layouts[v]);
  }

  // This pass's records, indexed by group id after the earlier passes'.
  const size_t first = stats->groups.size();
  stats->groups.resize(first + grouped_.groups.size());
  GroupStats* groups = stats->groups.data() + first;
  ThreadPool* task_pool = options_.task_parallel ? pool_ : nullptr;
  Status sched = ScheduleGroupsTimed(
      grouped_, task_pool, [&](int gid, const GroupStart& start) {
        return RunGroup(gid, start, &groups[gid]);
      });
  if (!sched.ok()) {
    // A cut-short pass yields no ExecutionStats to the caller (StatusOr
    // carries only the Status), so the progress rides in the message.
    if (sched.code() == StatusCode::kDeadlineExceeded ||
        sched.code() == StatusCode::kResourceExhausted) {
      sched = Status(sched.code(),
                     sched.message() + " (after " +
                         std::to_string(groups_completed_.load()) + "/" +
                         std::to_string(grouped_.groups.size()) +
                         " groups completed)");
    }
    return sched;
  }

  // The pass's share of the call's stats.
  stats->execute_seconds += timer.ElapsedSeconds();
  for (size_t g = first; g < stats->groups.size(); ++g) {
    if (stats->groups[g].degraded) ++stats->degraded_groups;
  }
  stats->peak_live_views =
      std::max(stats->peak_live_views, store_.peak_live_views());
  stats->peak_view_bytes =
      std::max(stats->peak_view_bytes, store_.peak_bytes());
  stats->peak_view_key_bytes =
      std::max(stats->peak_view_key_bytes, store_.peak_key_bytes());
  stats->peak_view_payload_bytes =
      std::max(stats->peak_view_payload_bytes, store_.peak_payload_bytes());
  if (split_ != nullptr) AddSplitStats(split_->node, stats);
  return Status::OK();
}

Status ExecutionContext::RunGroup(int gid, const GroupStart& start,
                                  GroupStats* gs) {
  Timer group_timer;
  BusyScope self(&busy_threads_, 1);
  // Workers outlive the pass: drop any park a failed step left behind.
  struct DropParks {
    ~DropParks() { if (Failpoints::enabled()) Failpoints::ClearParked(); }
  } drop_parks;
  // Group boundary: the cheap coarse-grained governance point every group
  // passes through.
  if (cancel_ != nullptr) {
    LMFAO_RETURN_NOT_OK(cancel_->Check(store_.current_bytes()));
  }
  const ViewGroup& group = grouped_.groups[static_cast<size_t>(gid)];
  const GroupPlan& plan = plans_[static_cast<size_t>(gid)];
  const bool split = split_ != nullptr && group.node == split_->node;
  LMFAO_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> rel,
                         sorted_relation_(group.node, plan.attr_order));

  // The incoming views in consumed order: an identity-order consumer reads
  // the stored frozen view itself, any other a permuted copy that this
  // group owns until its scan ends.
  AcquiredViews acquired(&store_);
  std::vector<SortView> permuted;
  permuted.reserve(plan.incoming.size());  // Keeps `views` pointers valid.
  std::vector<const SortView*> views;
  views.reserve(plan.incoming.size());
  for (const GroupPlan::IncomingView& in : plan.incoming) {
    LMFAO_ASSIGN_OR_RETURN(const SortView* stored, store_.Acquire(in.view));
    acquired.Add(in.view);
    if (in.identity_perm) {
      views.push_back(stored);
    } else {
      permuted.push_back(stored->Permuted(in.consumed_perm, in.CopyLayout()));
      views.push_back(&permuted.back());
    }
  }

  // Output maps, preallocated from the plan's cardinality estimates:
  // direct-addressed when the key's value ranges allow (DenseKeyBox), else
  // hashed. A shard's private maps are built by the same rule as the
  // group's outputs. Returns the number of dense maps built.
  auto make_output_maps = [&](std::vector<std::unique_ptr<ViewMap>>* maps,
                              std::vector<ViewMap*>* ptrs) {
    int dense = 0;
    for (const GroupPlan::OutputInfo& out : plan.outputs) {
      const ViewInfo& info = workload_.view(out.view);
      maps->push_back(std::make_unique<ViewMap>(
          static_cast<int>(info.key.size()), out.width));
      ptrs->push_back(maps->back().get());
      if (out.estimated_entries == 0) continue;
      std::vector<ValueRange> box;
      if (ranges_ != nullptr &&
          DenseKeyBox(info.key, *ranges_, out.estimated_entries, &box)) {
        maps->back()->ReserveDense(box, out.estimated_entries + 1);
        ++dense;
      } else {
        maps->back()->Reserve(out.estimated_entries + 1);
      }
    }
    return dense;
  };
  // Baseline the budget charge at the store's live bytes as of this
  // group's start; the executor adds its in-flight output maps on top.
  const size_t charge_base = store_.current_bytes();
  // The interpreter lowers the plan once per shard, and that executor
  // scans all of the shard's pieces.
  auto make_executor = [&]() {
    return std::make_unique<GroupExecutor>(plan, *rel, views, params_,
                                           cancel_, charge_base);
  };
  // One scan piece, rows [range.lo, range.hi) of `rel`.
  auto run_piece = [&](GroupExecutor* executor, ShardRange range,
                       const std::vector<ViewMap*>& ptrs) -> Status {
    Status st = executor->Execute(ptrs, range);
    HarvestParked(&st);
    return st;
  };

  // The group's scan pieces and shards: key-aligned blocks of `rel`, about
  // min_shard_rows rows each and at least one per shard, dealt round-robin
  // (work per row drifts along the key order, so one contiguous range per
  // shard would leave shards far apart). The shard count is the split's at
  // its node, else the cost model's; fewer key blocks run fewer shards.
  const ShardRange whole{0, rel->num_rows()};
  std::vector<ShardRange> pieces{whole};
  size_t shards = 1;
  if (plan.num_levels() > 0) {
    const int64_t rows = static_cast<int64_t>(whole.rows());
    shards = static_cast<size_t>(
        split ? split_->num_shards
              : ChooseShardCount(rows, options_,
                                 std::max(0, options_.ResolvedThreads() -
                                                 busy_threads_.load())));
    if (shards > 1) {
      const int64_t blocks = std::min(
          rows, std::max<int64_t>(
                    static_cast<int64_t>(shards),
                    rows / std::max<int64_t>(1, options_.min_shard_rows)));
      pieces = KeyAlignedRanges(
          rel->column(plan.level_column[0]).ints().data(), whole.rows(),
          static_cast<int>(blocks));
      shards = std::min(shards, pieces.size());
    }
  }
  std::vector<std::unique_ptr<ViewMap>> out_maps;
  std::vector<ViewMap*> out_ptrs;
  int dense_outputs = 0;
  // Scans `pieces` in `n` shards into out_maps/out_ptrs. One unsplit shard
  // scans straight into the outputs. Otherwise shard s scans pieces s,
  // s + n, ... into private maps, concurrently on `pool` when there is
  // one, folded into the outputs (MergeAdd, or the split's exchange) in
  // shard order, a scheduling-independent summation order, and recorded
  // on `gs`. A shard's maps die right after its fold.
  auto scan_all = [&](size_t n, ThreadPool* pool) -> Status {
    out_maps.clear();
    out_ptrs.clear();
    gs->shard_stats.clear();
    dense_outputs = make_output_maps(&out_maps, &out_ptrs);
    if (!split && n == 1) {
      return run_piece(make_executor().get(), pieces[0], out_ptrs);
    }
    std::mutex turn_mu;
    std::condition_variable turn_cv;
    size_t turn = 0;
    Status first_error;
    BusyScope helpers(&busy_threads_,
                      std::min(static_cast<int>(n),
                               options_.ResolvedThreads()) - 1);
    ParallelForShared(pool, n, [&](size_t s) {
      Timer timer;
      ShardStats record;
      record.shard = static_cast<int>(s);
      std::vector<std::unique_ptr<ViewMap>> maps;
      std::vector<ViewMap*> ptrs;
      Status st = [&]() -> Status {
        make_output_maps(&maps, &ptrs);
        const std::unique_ptr<GroupExecutor> executor = make_executor();
        for (size_t i = s; i < pieces.size(); i += n) {
          record.rows += pieces[i].rows();
          LMFAO_RETURN_NOT_OK(run_piece(executor.get(), pieces[i], ptrs));
        }
        return Status::OK();
      }();
      record.seconds = timer.ElapsedSeconds();
      std::unique_lock<std::mutex> lock(turn_mu);
      turn_cv.wait(lock, [&] { return turn == s; });
      if (st.ok() && first_error.ok()) {
        timer.Reset();
        if (split) {
          StatusOr<size_t> bytes = split_->exchange(record.shard, ptrs,
                                                    out_ptrs);
          st = bytes.status();
          if (st.ok()) record.exchange_bytes = bytes.value();
        } else {
          for (size_t o = 0; o < out_ptrs.size(); ++o) {
            out_ptrs[o]->MergeAdd(*ptrs[o]);
          }
        }
        record.fold_seconds = timer.ElapsedSeconds();
        HarvestParked(&st);  // Parks of the fold's rehashes.
        gs->shard_stats.push_back(record);
      }
      if (first_error.ok()) first_error = std::move(st);
      ++turn;
      turn_cv.notify_all();
    });
    HarvestParked(&first_error);  // Parks of the output-map builds.
    return first_error;
  };

  Status scan_st = scan_all(shards, pool_);
  if (scan_st.code() == StatusCode::kResourceExhausted && shards > 1 &&
      pool_ != nullptr && (cancel_ == nullptr || !cancel_->cancelled())) {
    // Graceful degradation: an out-of-memory trip on a scan whose shards
    // ran on the pool (domain shards or a split's) is retried once with
    // the same shards run one at a time: one shard's private maps live at
    // a time, folded in the same order, so the bits are the sharded run's.
    // This must happen while the consumed views are still acquired (a
    // Release below may evict an input this retry needs). Budget trips are
    // not sticky on the token, so the retry's own Checks start clean.
    gs->degraded = true;
    scan_st = scan_all(shards, nullptr);
  }
  LMFAO_RETURN_NOT_OK(scan_st);

  // Release the consumed views and drop the permuted copies *before*
  // publishing: the scan is done, so any input whose last consumer this
  // group was evicts now instead of coexisting with the freshly produced
  // outputs — the input and output frontiers of a group never overlap.
  acquired.ReleaseAll();
  permuted.clear();
  size_t entries = 0;
  for (size_t o = 0; o < plan.outputs.size(); ++o) {
    entries += out_maps[o]->size();
    LMFAO_RETURN_NOT_OK(
        store_.Publish(plan.outputs[o].view, std::move(out_maps[o])));
  }
  // Freeze sorts and ShrinkToFit rehashes run inside Publish with no
  // park-collection point of their own.
  if (Failpoints::enabled()) {
    LMFAO_RETURN_NOT_OK(Failpoints::TakeParked());
  }
  // Publish boundary: precise charge now that outputs are accounted and
  // dead inputs evicted.
  if (cancel_ != nullptr) {
    LMFAO_RETURN_NOT_OK(cancel_->Check(store_.current_bytes()));
  }

  groups_completed_.fetch_add(1);
  gs->group_id = gid;
  gs->node = group.node;
  gs->num_outputs = static_cast<int>(group.outputs.size());
  gs->seconds = group_timer.ElapsedSeconds();
  gs->output_entries = entries;
  gs->dense_outputs = dense_outputs;
  gs->wait_seconds = start.wait_seconds;
  gs->store_key_bytes = store_.current_key_bytes();
  gs->store_payload_bytes = store_.current_payload_bytes();
  return Status::OK();
}

StatusOr<ViewMap> ExecutionContext::TakeQueryResult(ViewId view) {
  return store_.TakeResult(view);
}

}  // namespace lmfao
