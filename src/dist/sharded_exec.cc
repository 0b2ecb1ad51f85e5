/// \file sharded_exec.cc
/// \brief Sharded distributed execution: the PreparedBatch::ExecuteSharded
/// entry point declared in engine/engine.h.
///
/// One execution pass per call, with three stages mirroring a
/// coordinator/worker deployment while keeping every stage an in-process
/// function:
///   1. plan splitting (shard_plan.h) — pick the partitioned relation and
///      the shard count;
///   2. local phase — only the groups at the partitioned node run per
///      shard: each group cuts the cached sorted relation it holds (the
///      snapshot every other pass reads) into level-1 key blocks dealt
///      round-robin to the shards, and scans each shard's blocks into
///      private maps, which the exchange below ViewWire-encodes. Every
///      other group runs once;
///   3. coordinator merge (coordinator.h) — decode each shard's frames and
///      fold them into the group's outputs, in shard order, so the
///      floating-point summation order is deterministic.
/// The engine drives stages 2 and 3 through the pass's ScanSplit
/// (shard_spec.h) and never sees a wire byte.

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dist/coordinator.h"
#include "dist/shard_plan.h"
#include "dist/view_wire.h"
#include "engine/engine.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace lmfao {

StatusOr<BatchResult> PreparedBatch::ExecuteSharded(
    int num_shards, const ParamPack& params, const ExecLimits& limits) const {
  LMFAO_RETURN_NOT_OK(CheckExecutable(params));
  Timer total_timer;
  const EpochSnapshot epoch = engine_->catalog_->SnapshotEpoch();
  LMFAO_ASSIGN_OR_RETURN(ShardedPlan plan,
                         MakeShardedPlan(artifact_->compiled,
                                         *engine_->catalog_, epoch,
                                         ShardSpec{num_shards}));

  // Grows to the shards that ran: a relation with fewer key blocks than
  // requested shards runs fewer.
  std::vector<DistShardStats> shard_stats;
  double merge_seconds = 0.0;
  std::mutex stats_mu;  // Groups at the partitioned node may run at once.

  ScanSplit split;
  split.node = plan.relation;
  split.num_shards = plan.num_shards;
  // The exchange: the shard encodes its partials — only these bytes cross
  // to the coordinator, as any worker's would — and the coordinator folds
  // them into the group's outputs. Frames carry at most kFrameEntries
  // entries, so the transport buffer stays small however large a partial
  // view grows. A failure (real or injected) fails the group and with it
  // the pass, so a failed sharded execution leaks nothing and the handle
  // stays re-executable.
  constexpr size_t kFrameEntries = 256;
  split.exchange = [&](int shard, size_t rows, double scan_seconds,
                       const std::vector<ViewMap*>& partial,
                       const std::vector<ViewMap*>& outputs) -> Status {
    LMFAO_FAILPOINT("dist.shard_execute");
    Timer exchange_timer;
    double fold_seconds = 0.0;
    size_t bytes = 0;
    Status st;
    std::string wire;
    std::vector<size_t> slots;
    for (size_t o = 0; o < partial.size() && st.ok(); ++o) {
      const ViewMap& map = *partial[o];
      for (size_t slot = 0; slot <= map.num_slots() && st.ok(); ++slot) {
        const bool end = slot == map.num_slots();
        if (!end && map.slot_occupied(slot)) slots.push_back(slot);
        if (!end && slots.size() < kFrameEntries) continue;
        // A full frame, or the map's rest (possibly an empty frame).
        wire.clear();
        AppendEncodedSlots(map, slots, &wire);
        slots.clear();
        bytes += wire.size();
        Timer fold_timer;
        st = MergeShardFrame(shard, wire, outputs[o]);
        fold_seconds += fold_timer.ElapsedSeconds();
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu);
    if (static_cast<size_t>(shard) >= shard_stats.size()) {
      shard_stats.resize(static_cast<size_t>(shard) + 1);
    }
    DistShardStats& ss = shard_stats[static_cast<size_t>(shard)];
    ss.shard = shard;
    ss.rows += rows;
    ss.seconds +=
        scan_seconds + exchange_timer.ElapsedSeconds() - fold_seconds;
    ss.exchange_bytes += bytes;
    merge_seconds += fold_seconds;
    return st;
  };

  PassSpec pass;
  pass.rows = &epoch;
  pass.split = &split;
  const CancelToken cancel(limits.deadline_seconds, limits.max_view_bytes);
  LMFAO_ASSIGN_OR_RETURN(BatchResult result, RunPass(pass, params, cancel));

  ExecutionStats& stats = result.stats;
  stats.dist_execution = true;
  stats.dist_shards = static_cast<int>(shard_stats.size());
  stats.dist_relation = plan.relation;
  stats.merge_seconds = merge_seconds;
  for (const DistShardStats& ss : shard_stats) {
    stats.exchange_bytes += ss.exchange_bytes;
    stats.shard_max_seconds = std::max(stats.shard_max_seconds, ss.seconds);
    stats.shard_mean_seconds += ss.seconds;
  }
  stats.shard_mean_seconds /=
      static_cast<double>(std::max<size_t>(1, shard_stats.size()));
  stats.dist_shard_stats = std::move(shard_stats);
  stats.total_seconds = total_timer.ElapsedSeconds();
  // RunPass gave the result ExecuteAt's identity at this epoch, so a
  // sharded base refreshes through ExecuteDelta like any other.
  return result;
}

}  // namespace lmfao
