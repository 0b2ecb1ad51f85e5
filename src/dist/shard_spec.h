/// \file shard_spec.h
/// \brief How a batch execution is split across shards of one relation.
///
/// Depends on the engine only for its scan-piece type (ShardRange,
/// parallel.h): the spec travels on the PreparedBatch handle (engine.h
/// holds one by value), and the scan split below is the whole contract
/// between the execution runtime and the rest of src/dist/ — plan
/// splitting, view exchange and coordinator merge stay on the dist side of
/// the exchange callback.

#ifndef LMFAO_DIST_SHARD_SPEC_H_
#define LMFAO_DIST_SHARD_SPEC_H_

#include <functional>
#include <vector>

#include "engine/parallel.h"
#include "storage/types.h"
#include "storage/view.h"
#include "util/status.h"

namespace lmfao {

/// \brief Requested sharding of one batch execution.
///
/// A sharded execution partitions ONE base relation into contiguous
/// row-range shards. Every aggregate is a sum of products of per-relation
/// factors, so the batch is multilinear in each relation and the per-shard
/// partial results sum to exactly the unsharded result (the identity the
/// delta passes rely on). Which relation to partition is normally chosen
/// by the planner (largest epoch watermark among the relations in the
/// plans' input closure — partitioning a relation the join never touches
/// would *duplicate* the result per shard, so those are never eligible);
/// `relation` pins the choice instead.
struct ShardSpec {
  /// Requested shard count; <= 1 executes as a single shard. The effective
  /// count is clamped to the partitioned relation's row count (an empty
  /// relation still runs one shard, over an empty slice).
  int num_shards = 0;
  /// Pins the partitioned relation; kInvalidRelation lets MakeShardedPlan
  /// pick the largest eligible one.
  RelationId relation = kInvalidRelation;
};

/// \brief The scan split of one execution pass.
///
/// Only the groups whose node is `node` run per shard: each scans every
/// range's sorted slice into private output maps and hands them to
/// `exchange`, which folds them into the group's own output maps. Every
/// other group runs once. This is exact because the join is a tree: no
/// view the split groups consume contains `node`, so their outputs are
/// linear in its rows, and every later group reads only merged outputs.
struct ScanSplit {
  RelationId node = kInvalidRelation;
  std::vector<ShardRange> ranges;
  /// Called once per (split group, shard) with the shard's partial output
  /// maps, the group's output maps to fold them into, and the seconds the
  /// shard's slice fetch and scan took. One group's calls are serialized
  /// and come in shard order (a deterministic summation order); calls for
  /// different groups may run concurrently.
  std::function<Status(int shard, double scan_seconds,
                       const std::vector<ViewMap*>& partial,
                       const std::vector<ViewMap*>& outputs)>
      exchange;
};

}  // namespace lmfao

#endif  // LMFAO_DIST_SHARD_SPEC_H_
