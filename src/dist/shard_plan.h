/// \file shard_plan.h
/// \brief Plan splitting: pick the one base relation to partition and the
/// shard count of the per-shard local executions.
///
/// The local/coordinator decomposition: a ShardedPlan names the
/// partitioned relation and its shard count. ExecuteSharded turns it into
/// the ScanSplit of one execution pass of the UNCHANGED compiled group
/// plans (shard_spec.h): the groups at the partitioned node cut their
/// cached sorted relation into level-1 key blocks dealt round-robin to the
/// shards, and every other group runs once — GroupExecutor never learns
/// about shards. Multilinearity of the aggregate batch in every base
/// relation makes the per-shard partials sum to exactly the unsharded
/// result.

#ifndef LMFAO_DIST_SHARD_PLAN_H_
#define LMFAO_DIST_SHARD_PLAN_H_

#include "dist/shard_spec.h"
#include "engine/engine.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace lmfao {

/// \brief The split: which relation is partitioned, into how many shards.
struct ShardedPlan {
  RelationId relation = kInvalidRelation;
  /// Requested shard count, at least one. The pass runs at most as many
  /// shards as the relation has level-1 key blocks.
  int num_shards = 1;
  /// Group plans whose input closure (GroupPlan::source_relation_mask)
  /// contains the partitioned relation: the groups at its node, which scan
  /// once per shard, plus the groups downstream of them, which run once on
  /// the merged views. Groups outside the closure also run once. Exact for
  /// relation ids below 64; for higher ids an upper bound (ClosureContains).
  int dirty_groups = 0;
};

/// Splits `compiled` across `spec.num_shards` shards of one relation at
/// the given epoch. The partitioned relation is the one with the most
/// committed rows among those in some group's input closure (partitioning
/// an untouched relation would duplicate the result per shard); ties go to
/// the lowest id, so the choice is deterministic. The shard count is never
/// below one.
StatusOr<ShardedPlan> MakeShardedPlan(const CompiledBatch& compiled,
                                      const Catalog& catalog,
                                      const EpochSnapshot& epoch,
                                      const ShardSpec& spec);

}  // namespace lmfao

#endif  // LMFAO_DIST_SHARD_PLAN_H_
