#include "dist/view_wire.h"

#include <cstring>

#include "util/hash.h"
#include "util/logging.h"

namespace lmfao {

namespace {

/// Header bytes after the length field (magic .. rows), and the trailing
/// checksum. Both multiples of 8, so every frame is 8-byte aligned and the
/// checksum chain below can walk whole words.
constexpr size_t kHeaderBytes = 4 + 2 + 1 + 1 + 4 + 4 + 8;
constexpr size_t kChecksumBytes = 8;

/// Defensive ceiling on payload slots per entry: wide enough for any
/// realistic aggregate batch, small enough that a corrupted width cannot
/// drive the rows/width product computation into pathological allocations.
constexpr uint32_t kMaxWireWidth = 1u << 24;

template <typename T>
void AppendPod(std::string* out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

template <typename T>
T ReadPod(const char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

/// Checksum over `n` bytes (n always a multiple of 8 here): a HashCombine
/// chain over the 64-bit words, seeded with the length so frames of
/// different sizes never collide trivially.
uint64_t FrameChecksum(const char* data, size_t n) {
  uint64_t h = Mix64(0x56574952ull ^ n);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    h = HashCombine(h, ReadPod<uint64_t>(data + i));
  }
  for (; i < n; ++i) {  // Unreachable for well-formed frames; kept safe.
    h = HashCombine(h, static_cast<uint8_t>(data[i]));
  }
  return h;
}

/// Frame bytes after the length prefix: header, body and checksum.
size_t FrameLength(int arity, int width, size_t rows) {
  return kHeaderBytes + 8 * rows * static_cast<size_t>(arity + width) +
         kChecksumBytes;
}

/// Appends the length prefix and header of a frame with `rows` entries and
/// returns the frame's start offset, for FinishFrame.
size_t StartFrame(int arity, int width, size_t rows, std::string* out) {
  const size_t frame_length = FrameLength(arity, width, rows);
  const size_t frame_start = out->size();
  out->reserve(frame_start + 8 + frame_length);
  AppendPod<uint64_t>(out, frame_length);
  AppendPod<uint32_t>(out, kViewWireMagic);
  AppendPod<uint16_t>(out, kViewWireVersion);
  AppendPod<uint8_t>(out, static_cast<uint8_t>(arity));
  AppendPod<uint8_t>(out, 0);  // layout: row-major
  AppendPod<uint32_t>(out, static_cast<uint32_t>(width));
  AppendPod<uint32_t>(out, 0);  // reserved
  AppendPod<uint64_t>(out, static_cast<uint64_t>(rows));
  return frame_start;
}

/// Appends the checksum over everything from `frame_start` on.
void FinishFrame(size_t frame_start, std::string* out) {
  const uint64_t checksum =
      FrameChecksum(out->data() + frame_start, out->size() - frame_start);
  AppendPod<uint64_t>(out, checksum);
}

}  // namespace

void AppendEncodedSlots(const ViewMap& map, const std::vector<size_t>& slots,
                        std::string* out) {
  const int arity = map.key_arity();
  const int width = map.width();
  const size_t frame_start = StartFrame(arity, width, slots.size(), out);
  for (int c = 0; c < arity; ++c) {
    for (size_t slot : slots) AppendPod<int64_t>(out, map.slot_key(slot)[c]);
  }
  for (size_t slot : slots) {
    out->append(reinterpret_cast<const char*>(map.slot_payload(slot)),
                static_cast<size_t>(width) * sizeof(double));
  }
  FinishFrame(frame_start, out);
}

StatusOr<DecodedView> DecodeView(const char* data, size_t size,
                                 size_t* offset) {
  LMFAO_CHECK(offset != nullptr);
  const size_t start = *offset;
  if (start > size || size - start < 8) {
    return Status::InvalidArgument(
        "ViewWire: truncated buffer (missing frame length)");
  }
  const uint64_t frame_length = ReadPod<uint64_t>(data + start);
  const size_t available = size - start - 8;
  if (frame_length < kHeaderBytes + kChecksumBytes) {
    return Status::InvalidArgument(
        "ViewWire: frame length " + std::to_string(frame_length) +
        " below the minimum frame");
  }
  if (frame_length > available) {
    return Status::InvalidArgument(
        "ViewWire: frame length " + std::to_string(frame_length) +
        " exceeds the " + std::to_string(available) + " available bytes");
  }

  const char* p = data + start + 8;
  const uint32_t magic = ReadPod<uint32_t>(p);
  if (magic != kViewWireMagic) {
    return Status::InvalidArgument("ViewWire: bad magic");
  }
  const uint16_t version = ReadPod<uint16_t>(p + 4);
  if (version != kViewWireVersion) {
    return Status::InvalidArgument("ViewWire: unsupported version " +
                                   std::to_string(version));
  }
  const uint8_t arity = ReadPod<uint8_t>(p + 6);
  if (arity > TupleKey::kMaxArity) {
    return Status::InvalidArgument("ViewWire: key arity " +
                                   std::to_string(arity) + " exceeds " +
                                   std::to_string(TupleKey::kMaxArity));
  }
  const uint8_t layout_byte = ReadPod<uint8_t>(p + 7);
  if (layout_byte != 0) {
    return Status::InvalidArgument("ViewWire: unknown payload layout " +
                                   std::to_string(layout_byte));
  }
  const uint32_t width = ReadPod<uint32_t>(p + 8);
  if (width > kMaxWireWidth) {
    return Status::InvalidArgument("ViewWire: payload width " +
                                   std::to_string(width) + " exceeds " +
                                   std::to_string(kMaxWireWidth));
  }
  const uint32_t reserved = ReadPod<uint32_t>(p + 12);
  if (reserved != 0) {
    return Status::InvalidArgument(
        "ViewWire: nonzero reserved field in a version-1 frame");
  }
  const uint64_t rows = ReadPod<uint64_t>(p + 16);

  // Exact-length check with an overflow guard: rows * (arity + width) * 8
  // must reproduce the frame length precisely; anything else means a
  // corrupted count, and the guard keeps the product itself from wrapping.
  const uint64_t slots_per_row =
      static_cast<uint64_t>(arity) + static_cast<uint64_t>(width);
  const uint64_t declared_body =
      frame_length - kHeaderBytes - kChecksumBytes;
  if (slots_per_row == 0) {
    if (declared_body != 0) {
      return Status::InvalidArgument(
          "ViewWire: arity-0/width-0 frame carries a body");
    }
  } else {
    if (rows > declared_body / (8 * slots_per_row) ||
        rows * 8 * slots_per_row != declared_body) {
      return Status::InvalidArgument(
          "ViewWire: row count " + std::to_string(rows) +
          " inconsistent with frame length " + std::to_string(frame_length));
    }
  }

  const size_t checksum_at = start + 8 + frame_length - kChecksumBytes;
  const uint64_t stored_checksum = ReadPod<uint64_t>(data + checksum_at);
  const uint64_t computed_checksum =
      FrameChecksum(data + start, checksum_at - start);
  if (stored_checksum != computed_checksum) {
    return Status::InvalidArgument("ViewWire: checksum mismatch");
  }

  DecodedView view;
  view.arity = static_cast<int>(arity);
  view.width = static_cast<int>(width);
  view.rows = static_cast<size_t>(rows);
  view.keys = KeyColumns(view.arity, view.rows);
  const char* body = p + kHeaderBytes;
  for (int c = 0; c < view.arity && view.rows > 0; ++c) {
    std::memcpy(view.keys.col(c), body + static_cast<size_t>(c) * rows * 8,
                static_cast<size_t>(rows) * sizeof(int64_t));
  }
  view.payloads =
      PayloadMatrix(view.width, view.rows, PayloadLayout::kRowMajor);
  if (view.width > 0 && view.rows > 0) {
    std::memcpy(view.payloads.data(),
                body + static_cast<size_t>(arity) * rows * 8,
                static_cast<size_t>(width) * rows * sizeof(double));
  }
  *offset = start + 8 + frame_length;
  return view;
}

}  // namespace lmfao
