/// \file view_wire.h
/// \brief ViewWire: versioned, length-prefixed serialization of views, so
/// a shard boundary is bytes instead of pointers.
///
/// A sharded execution's local phase encodes each shard's partial outputs
/// as self-delimiting frames (straight from the live hash maps, in
/// chunks); the coordinator decodes the frames and folds them into the
/// split group's outputs. In-process today the "wire" is a std::string,
/// but nothing in the format assumes shared memory — a multi-node or
/// multi-NUMA transport is a change of carrier, not of engine.
///
/// Frame layout (host-endian; fixed-width little fields, 8-byte-aligned
/// total):
///
///   u64 frame_length   bytes that follow this field (header+body+checksum)
///   u32 magic          kViewWireMagic
///   u16 version        kViewWireVersion
///   u8  arity          key components (0 .. TupleKey::kMaxArity)
///   u8  layout         0 = row-major payload (the only layout)
///   u32 width          payload slots per entry
///   u32 reserved       0 in version 1
///   u64 rows           entry count
///   i64 keys[arity][rows]      component-contiguous (KeyColumns order)
///   f64 payload[rows][width]   row-major (PayloadMatrix order)
///   u64 checksum       HashCombine chain over every preceding frame byte
///
/// Decode is defensive end to end: truncated buffers, flipped bytes, bad
/// magic/version/arity/layout, length/row-count mismatches (checked with
/// overflow guards before any allocation) and checksum failures all return
/// InvalidArgument — decode never aborts and never reads past `size`.
/// Doubles round-trip as raw bit patterns, so encode -> decode -> fold is
/// bit-identical to handing the payload pointers across directly.

#ifndef LMFAO_DIST_VIEW_WIRE_H_
#define LMFAO_DIST_VIEW_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/view.h"
#include "util/status.h"

namespace lmfao {

inline constexpr uint32_t kViewWireMagic = 0x4c465756u;  // "VWFL"
inline constexpr uint16_t kViewWireVersion = 1;

/// \brief One decoded frame: the view chunk's shape plus its key columns
/// and row-major payload matrix, reconstructed bit-for-bit.
struct DecodedView {
  int arity = 0;
  int width = 0;
  size_t rows = 0;
  KeyColumns keys;
  PayloadMatrix payloads;
};

/// Appends one row-major frame holding the entries at the given occupied
/// `slots` of `map`, in that order: a chunk of a live hash map, encoded
/// without freezing the map first, so a large view can cross in frames of
/// bounded size.
void AppendEncodedSlots(const ViewMap& map, const std::vector<size_t>& slots,
                        std::string* out);

/// Decodes the frame starting at `*offset` in `data[0, size)` and advances
/// `*offset` past it. Any malformed input returns InvalidArgument and
/// leaves `*offset` untouched.
StatusOr<DecodedView> DecodeView(const char* data, size_t size,
                                 size_t* offset);

/// Convenience overload over a string carrier.
inline StatusOr<DecodedView> DecodeView(const std::string& buf,
                                        size_t* offset) {
  return DecodeView(buf.data(), buf.size(), offset);
}

}  // namespace lmfao

#endif  // LMFAO_DIST_VIEW_WIRE_H_
