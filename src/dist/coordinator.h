/// \file coordinator.h
/// \brief Coordinator merge stage: fold shard-local partial outputs —
/// received as ViewWire frames — into a split group's output maps.
///
/// Every decoded entry is upserted by key into the output ViewMap and its
/// payload added — the same sum-of-partials fold MergeAdd performs for
/// thread-local maps, driven from decoded bytes instead of live slots. The
/// engine hands over each group's shards in shard order, so the
/// floating-point summation order is deterministic.

#ifndef LMFAO_DIST_COORDINATOR_H_
#define LMFAO_DIST_COORDINATOR_H_

#include <string>

#include "storage/view.h"
#include "util/status.h"

namespace lmfao {

/// Decodes the single frame in `wire`, sent by shard `shard`, and folds it
/// into `*target`. A malformed frame, one whose shape differs from the
/// target's key arity and width, or trailing bytes return InvalidArgument
/// with the target in an unspecified (but safe to destroy) state. Carries
/// the `dist.exchange_decode` failpoint seam, hit once per frame.
Status MergeShardFrame(int shard, const std::string& wire, ViewMap* target);

}  // namespace lmfao

#endif  // LMFAO_DIST_COORDINATOR_H_
