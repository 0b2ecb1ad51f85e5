/// \file shard_spec.h
/// \brief How a batch execution is split across shards of one relation.
///
/// Depends on no engine header: engine.h includes it for the scan split
/// below, which is the whole contract between the execution runtime and
/// the rest of src/dist/ — plan splitting, view exchange and coordinator
/// merge stay on the dist side of the exchange callback.

#ifndef LMFAO_DIST_SHARD_SPEC_H_
#define LMFAO_DIST_SHARD_SPEC_H_

#include <vector>

#include "storage/types.h"
#include "storage/view.h"
#include "util/status.h"

namespace lmfao {

/// \brief Requested sharding of one batch execution.
///
/// A sharded execution partitions ONE base relation by level-1 key (see
/// ScanSplit). Every aggregate is a sum of products of per-relation
/// factors, so the batch is multilinear in each relation and the per-shard
/// partial results sum to exactly the unsharded result (the identity the
/// delta passes rely on). The planner chooses which relation to partition:
/// the largest epoch watermark among the relations in the plans' input
/// closure — partitioning a relation the join never touches would
/// *duplicate* the result per shard, so those are never eligible.
struct ShardSpec {
  /// Requested shard count; <= 1 executes as a single shard. Fewer run
  /// when the relation has fewer key blocks (an empty one runs one).
  int num_shards = 0;
};

/// \brief The scan split of one execution pass.
///
/// Only the groups whose node is `node` run per shard, cutting their
/// cached sorted relation into key-aligned blocks dealt round-robin to the
/// shards as domain shards do, but folding each shard's private maps
/// through `exchange` instead of MergeAdd. Every other group runs once.
/// This is exact because the join is a tree: no view the split groups
/// consume contains `node`, so their outputs are linear in its rows, and
/// every later group reads only merged outputs.
struct ScanSplit {
  RelationId node = kInvalidRelation;
  int num_shards = 1;  ///< Requested; fewer run on fewer key blocks.
  /// Folds one shard's partial output maps into the group's output maps
  /// and returns the bytes that crossed. A plain function, so stateless:
  /// called once per (split group, shard that ran, attempt); one group's
  /// calls are serialized and come in shard order (a deterministic
  /// summation order), calls for different groups may run concurrently.
  StatusOr<size_t> (*exchange)(int shard, const std::vector<ViewMap*>& partial,
                               const std::vector<ViewMap*>& outputs) = nullptr;
};

}  // namespace lmfao

#endif  // LMFAO_DIST_SHARD_SPEC_H_
