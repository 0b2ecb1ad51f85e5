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
/// (shard_spec.h), records every shard on its group (GroupStats::
/// shard_stats, the source of the call's dist stats) and never sees a wire
/// byte.

#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/shard_plan.h"
#include "dist/view_wire.h"
#include "engine/engine.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace lmfao {

namespace {

/// Entries per exchange frame: the transport buffer stays small however
/// large a partial view grows.
constexpr size_t kFrameEntries = 256;

/// The exchange of one split shard: encodes its partials — only these
/// bytes cross to the coordinator, as any worker's would — and folds each
/// frame into the group's outputs (MergeShardFrame). Returns the bytes
/// shipped. A failure (real or injected) fails the group and with it the
/// pass, so a failed sharded execution leaks nothing and the handle stays
/// re-executable.
StatusOr<size_t> ExchangeShard(int shard, const std::vector<ViewMap*>& partial,
                               const std::vector<ViewMap*>& outputs) {
  LMFAO_FAILPOINT("dist.shard_execute");
  size_t bytes = 0;
  std::string wire;
  std::vector<size_t> slots;
  for (size_t o = 0; o < partial.size(); ++o) {
    const ViewMap& map = *partial[o];
    for (size_t slot = 0; slot <= map.num_slots(); ++slot) {
      const bool end = slot == map.num_slots();
      if (!end && map.slot_occupied(slot)) slots.push_back(slot);
      if (!end && slots.size() < kFrameEntries) continue;
      // A full frame, or the map's rest (possibly an empty frame).
      wire.clear();
      AppendEncodedSlots(map, slots, &wire);
      slots.clear();
      bytes += wire.size();
      LMFAO_RETURN_NOT_OK(MergeShardFrame(shard, wire, outputs[o]));
    }
  }
  return bytes;
}

}  // namespace

StatusOr<BatchResult> PreparedBatch::ExecuteSharded(
    int num_shards, const ParamPack& params, const ExecLimits& limits) const {
  LMFAO_RETURN_NOT_OK(CheckExecutable(params));
  Timer total_timer;
  // The identity ExecuteAt gives at this epoch, so a sharded base
  // refreshes through ExecuteDelta like any other.
  BatchResult result =
      NewResult(engine_->catalog_->SnapshotEpoch(), params);
  LMFAO_ASSIGN_OR_RETURN(ShardedPlan plan,
                         MakeShardedPlan(artifact_->compiled,
                                         *engine_->catalog_, result.epoch,
                                         ShardSpec{num_shards}));
  ScanSplit split;
  split.node = plan.relation;
  split.num_shards = plan.num_shards;
  split.exchange = ExchangeShard;
  PassSpec pass;
  pass.rows = &result.epoch;
  pass.split = &split;
  const CancelToken cancel(limits.deadline_seconds, limits.max_view_bytes);
  LMFAO_ASSIGN_OR_RETURN(result.results,
                         RunPass(pass, params, cancel, &result.stats));
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace lmfao
