/// \file key_columns.h
/// \brief Packed columnar (SoA) storage of view keys.
///
/// View keys are short tuples of int64 group-by values (arity 1-3 in
/// practice). Storing them as fixed-capacity TupleKey objects drags
/// 104 bytes per entry through cache; KeyColumns instead holds one
/// contiguous int64 array per key component, sized exactly to the arity,
/// so sorted-array views and the executor's merge-join cursors scan 8
/// bytes per component per entry. Built once at freeze (or permuted-copy)
/// time and immutable afterwards.

#ifndef LMFAO_STORAGE_KEY_COLUMNS_H_
#define LMFAO_STORAGE_KEY_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace lmfao {

/// \brief One contiguous int64 column per key component.
class KeyColumns {
 public:
  KeyColumns() = default;

  /// Creates storage for `n` keys of `arity` components (zero-initialized).
  KeyColumns(int arity, size_t n)
      : arity_(arity), size_(n),
        data_(static_cast<size_t>(arity) * n, 0) {
    LMFAO_CHECK_GE(arity, 0);
    LMFAO_CHECK_LE(arity, TupleKey::kMaxArity);
  }

  int arity() const { return arity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Contiguous column of component `c`.
  int64_t* col(int c) { return data_.data() + static_cast<size_t>(c) * size_; }
  const int64_t* col(int c) const {
    return data_.data() + static_cast<size_t>(c) * size_;
  }

  int64_t at(size_t row, int c) const { return col(c)[row]; }

  /// Gathers row `row` into an inline TupleKey (cold paths and tests).
  TupleKey Row(size_t row) const {
    TupleKey key(arity_);
    for (int c = 0; c < arity_; ++c) key.set(c, col(c)[row]);
    return key;
  }

  /// Bytes held by the key data.
  size_t bytes() const { return data_.size() * sizeof(int64_t); }

 private:
  int arity_ = 0;
  size_t size_ = 0;
  std::vector<int64_t> data_;
};

/// \name Galloping (exponential) searches over a sorted int64 column.
///
/// The executor's merge-join cursors advance by small steps far more often
/// than they jump, so doubling probes from the cursor beat a full binary
/// search over the remaining range; both fall back to binary search inside
/// the located window.
/// @{

/// First index in [lo, hi) with data[i] >= target.
size_t GallopLowerBound(const int64_t* data, size_t lo, size_t hi,
                        int64_t target);

/// First index in [lo, hi) with data[i] > target.
size_t GallopUpperBound(const int64_t* data, size_t lo, size_t hi,
                        int64_t target);

/// @}

}  // namespace lmfao

#endif  // LMFAO_STORAGE_KEY_COLUMNS_H_
