/// \file payload_columns.h
/// \brief Packed payload storage for frozen views, in either row-major
/// (entry-major) or columnar (slot-major, SoA) layout.
///
/// A frozen view's payload is a `size × width` matrix of doubles. The two
/// executor access patterns pull the layout in opposite directions:
///   - *marginalization and entry iteration* (multi-entry views: range
///     sums over `[lo, hi)` of one slot, per-entry slot products of
///     writes) want slot-major columns — a range sum is then a unit-stride
///     scan instead of `width`-strided loads;
///   - *bound single-entry reads* (kViewPayload register parts) read many
///     slots of the SAME entry per match and want them on one cache line —
///     entry-major rows.
/// PayloadMatrix supports both; which layout a view freezes into is a
/// plan-layer decision (GroupPlan::OutputInfo::payload_layout): columnar
/// exactly when some consumer reading the frozen view in place marginalizes
/// or iterates its entry ranges; a permuted copy takes its own consumer's
/// layout (GroupPlan::IncomingView::CopyLayout). ViewMap keeps its
/// row-major payload for out-of-order upserts; the freeze gathers rows
/// into whichever layout the plan chose, or adopts a dense map's rows,
/// permuted into key order in place, when that layout is row-major.

#ifndef LMFAO_STORAGE_PAYLOAD_COLUMNS_H_
#define LMFAO_STORAGE_PAYLOAD_COLUMNS_H_

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace lmfao {

/// \brief Memory order of a payload matrix.
enum class PayloadLayout : uint8_t {
  /// Entry-major: element (entry, slot) = data[entry * width + slot]. The
  /// upsert-compatible order; keeps all slots of one entry on one cache
  /// line (bound single-entry register reads).
  kRowMajor,
  /// Slot-major (SoA): element (entry, slot) = data[slot * size + entry].
  /// One contiguous double column per aggregate slot; range sums and
  /// marginalization scan unit-stride.
  kColumnar,
};

/// \brief A `size × width` payload matrix in one of the two layouts.
class PayloadMatrix {
 public:
  PayloadMatrix() = default;

  /// Creates storage for `n` entries of `width` slots (zero-initialized).
  PayloadMatrix(int width, size_t n, PayloadLayout layout)
      : PayloadMatrix(width, n, layout,
                      std::vector<double>(static_cast<size_t>(width) * n,
                                          0.0)) {}

  /// Adopts `data`, `n` entries of `width` slots already in layout order.
  PayloadMatrix(int width, size_t n, PayloadLayout layout,
                std::vector<double> data)
      : width_(width),
        size_(n),
        layout_(layout),
        entry_stride_(layout == PayloadLayout::kRowMajor
                          ? static_cast<size_t>(width)
                          : 1),
        slot_stride_(layout == PayloadLayout::kRowMajor ? 1 : n),
        data_(std::move(data)) {
    LMFAO_CHECK_GE(width, 0);
    LMFAO_CHECK_EQ(data_.size(), static_cast<size_t>(width) * n);
  }

  int width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  PayloadLayout layout() const { return layout_; }

  /// Distance (in doubles) between consecutive entries of one slot / between
  /// consecutive slots of one entry.
  size_t entry_stride() const { return entry_stride_; }
  size_t slot_stride() const { return slot_stride_; }

  double at(size_t entry, int s) const {
    return data_[entry * entry_stride_ +
                 static_cast<size_t>(s) * slot_stride_];
  }

  /// Contiguous column of slot `s` (columnar layout only).
  double* col(int s) {
    LMFAO_CHECK(layout_ == PayloadLayout::kColumnar);
    return data_.data() + static_cast<size_t>(s) * size_;
  }
  const double* col(int s) const {
    LMFAO_CHECK(layout_ == PayloadLayout::kColumnar);
    return data_.data() + static_cast<size_t>(s) * size_;
  }

  /// Contiguous row of entry `i` (row-major layout only).
  double* row(size_t i) {
    LMFAO_CHECK(layout_ == PayloadLayout::kRowMajor);
    return data_.data() + i * static_cast<size_t>(width_);
  }
  const double* row(size_t i) const {
    LMFAO_CHECK(layout_ == PayloadLayout::kRowMajor);
    return data_.data() + i * static_cast<size_t>(width_);
  }

  /// The whole buffer in layout order.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Bytes held by the payload data.
  size_t bytes() const { return data_.size() * sizeof(double); }

 private:
  int width_ = 0;
  size_t size_ = 0;
  PayloadLayout layout_ = PayloadLayout::kRowMajor;
  size_t entry_stride_ = 0;
  size_t slot_stride_ = 0;
  std::vector<double> data_;
};

/// Gathers `width`-stride source rows into `dst` (any layout). `row(i)`
/// returns entry i's `width` contiguous doubles (e.g. a ViewMap slot
/// payload); gather indirection lives inside it. Row-major destinations
/// take one memcpy per entry; columnar destinations transpose in tiles so
/// both the strided row reads and the columnar writes stay cache-resident.
template <typename RowFn>
void GatherRows(PayloadMatrix* dst, RowFn&& row) {
  const size_t n = dst->size();
  const int width = dst->width();
  if (width == 0) return;
  if (dst->layout() == PayloadLayout::kRowMajor) {
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(dst->row(i), row(i),
                  sizeof(double) * static_cast<size_t>(width));
    }
    return;
  }
  constexpr size_t kTileRows = 32;
  constexpr int kTileSlots = 16;
  double* base = dst->data();  // Hoisted: col(s) checks per call.
  for (size_t i0 = 0; i0 < n; i0 += kTileRows) {
    const size_t i1 = std::min(n, i0 + kTileRows);
    for (int s0 = 0; s0 < width; s0 += kTileSlots) {
      const int s1 = std::min(width, s0 + kTileSlots);
      for (size_t i = i0; i < i1; ++i) {
        const double* src = row(i);
        for (int s = s0; s < s1; ++s) {
          base[static_cast<size_t>(s) * n + i] = src[s];
        }
      }
    }
  }
}

/// Unit-stride sum of `col[lo, hi)` — the marginalization kernel. Four
/// independent accumulators give the loop ILP without fast-math; the
/// summation order is deterministic (it differs from strict left-to-right,
/// which all differential tests absorb within their relative tolerance).
inline double SumRange(const double* col, size_t lo, size_t hi) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    s0 += col[i];
    s1 += col[i + 1];
    s2 += col[i + 2];
    s3 += col[i + 3];
  }
  for (; i < hi; ++i) s0 += col[i];
  return (s0 + s1) + (s2 + s3);
}

}  // namespace lmfao

#endif  // LMFAO_STORAGE_PAYLOAD_COLUMNS_H_
