#include "dist/shard_plan.h"

#include <algorithm>

namespace lmfao {

StatusOr<ShardedPlan> MakeShardedPlan(const CompiledBatch& compiled,
                                      const Catalog& catalog,
                                      const EpochSnapshot& epoch,
                                      const ShardSpec& spec) {
  if (epoch.rows.size() != static_cast<size_t>(catalog.num_relations())) {
    return Status::InvalidArgument(
        "MakeShardedPlan: epoch snapshot tracks " +
        std::to_string(epoch.rows.size()) + " relations, catalog has " +
        std::to_string(catalog.num_relations()));
  }

  // The groups whose input closure holds `r`. Only a relation some group
  // reads is eligible: splitting anything else would multiply the result
  // by the shard count instead of partitioning it, since the batch is
  // constant — not linear — in a relation outside every input closure.
  auto dirty_groups = [&compiled](RelationId r) {
    return static_cast<int>(std::count_if(
        compiled.plans.begin(), compiled.plans.end(),
        [r](const GroupPlan& plan) {
          return ClosureContains(plan.source_relation_mask, r);
        }));
  };

  ShardedPlan sharded;
  for (RelationId r = 0; r < catalog.num_relations(); ++r) {
    if (dirty_groups(r) == 0) continue;
    if (sharded.relation == kInvalidRelation ||
        epoch.at(r) > epoch.at(sharded.relation)) {
      sharded.relation = r;
    }
  }
  if (sharded.relation == kInvalidRelation) {
    return Status::InvalidArgument(
        "MakeShardedPlan: no group plan reads any relation; nothing to "
        "partition");
  }

  sharded.num_shards = std::max(1, spec.num_shards);
  sharded.dirty_groups = dirty_groups(sharded.relation);
  return sharded;
}

}  // namespace lmfao
