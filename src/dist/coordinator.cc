#include "dist/coordinator.h"

#include "dist/view_wire.h"
#include "util/failpoint.h"
#include "util/hash.h"

namespace lmfao {

namespace {

/// Folds one decoded frame into `map`: upsert by packed key, add the
/// entry's row of payloads.
void FoldFrame(const DecodedView& frame, ViewMap* map) {
  const int arity = frame.arity;
  const int width = frame.width;
  const int64_t* cols[TupleKey::kMaxArity];
  for (int c = 0; c < arity; ++c) cols[c] = frame.keys.col(c);
  const double* payload = frame.payloads.data();
  int64_t kb[TupleKey::kMaxArity];
  for (size_t i = 0; i < frame.rows; ++i) {
    for (int c = 0; c < arity; ++c) kb[c] = cols[c][i];
    double* dst = map->Upsert(kb);
    const double* src = payload + i * static_cast<size_t>(width);
    for (int s = 0; s < width; ++s) dst[s] += src[s];
  }
}

}  // namespace

Status MergeShardFrame(int shard, const std::string& wire, ViewMap* target) {
  LMFAO_FAILPOINT("dist.exchange_decode");
  size_t offset = 0;
  LMFAO_ASSIGN_OR_RETURN(DecodedView frame, DecodeView(wire, &offset));
  if (frame.arity != target->key_arity() || frame.width != target->width()) {
    return Status::InvalidArgument(
        "coordinator: shard " + std::to_string(shard) + " sent a (" +
        std::to_string(frame.arity) + ", " + std::to_string(frame.width) +
        ") frame, expected (" + std::to_string(target->key_arity()) + ", " +
        std::to_string(target->width()) + ")");
  }
  if (offset != wire.size()) {
    return Status::InvalidArgument(
        "coordinator: shard " + std::to_string(shard) + " sent " +
        std::to_string(wire.size() - offset) +
        " trailing bytes after its frame");
  }
  FoldFrame(frame, target);
  return Status::OK();
}

}  // namespace lmfao
