#include "storage/view.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "storage/sort.h"
#include "util/failpoint.h"

namespace lmfao {

namespace {
constexpr size_t kInitialCapacity = 16;
}  // namespace

ViewMap::ViewMap(int key_arity, int width)
    : key_arity_(key_arity), width_(width) {
  LMFAO_CHECK_GE(key_arity, 0);
  LMFAO_CHECK_LE(key_arity, TupleKey::kMaxArity);
  LMFAO_CHECK_GT(width, 0);
  keys_.assign(kInitialCapacity * static_cast<size_t>(key_arity_), 0);
  hashes_.assign(kInitialCapacity, 0);
  entry_.assign(kInitialCapacity, kEmptySlot);
  capacity_mask_ = kInitialCapacity - 1;
}

size_t ViewMap::ProbeSlot(const int64_t* vals, uint64_t hash) const {
  size_t i = hash & capacity_mask_;
  while (entry_[i] != kEmptySlot &&
         !(hashes_[i] == hash && SlotKeyEquals(i, vals))) {
    i = (i + 1) & capacity_mask_;
  }
  return i;
}

double* ViewMap::Upsert(const TupleKey& key) {
  LMFAO_CHECK_EQ(key.size(), key_arity_);
  return Upsert(key.data());
}

double* ViewMap::UpsertHashed(const int64_t* vals, uint64_t hash) {
  size_t i;
  if (dense_) {
    if (!DenseCell(vals, &i)) {
      ConvertToHash();
      return UpsertHashed(vals, hash);
    }
  } else {
    if (size_ * 10 >= (capacity_mask_ + 1) * 7) {
      Rehash((capacity_mask_ + 1) * 2);
    }
    i = ProbeSlot(vals, hash);
  }
  if (entry_[i] == kEmptySlot) Insert(i, vals, hash);
  return payloads_.data() + EntryOffset(i);
}

void ViewMap::Insert(size_t slot, const int64_t* vals, uint64_t hash) {
  LMFAO_CHECK_LT(size_, static_cast<size_t>(kEmptySlot));
  entry_[slot] = static_cast<uint32_t>(size_);
  hashes_[slot] = hash;
  int64_t* dst = keys_.data() + slot * static_cast<size_t>(key_arity_);
  for (int c = 0; c < key_arity_; ++c) dst[c] = vals[c];
  ++size_;
  payloads_.resize(size_ * static_cast<size_t>(width_), 0.0);
}

const double* ViewMap::Lookup(const TupleKey& key) const {
  size_t i;
  if (dense_) {
    if (!DenseCell(key.data(), &i)) return nullptr;
  } else {
    i = ProbeSlot(key.data(), key.Hash());
  }
  return slot_occupied(i) ? slot_payload(i) : nullptr;
}

void ViewMap::Reserve(size_t n) {
  LMFAO_FAILPOINT_PARK("viewmap.reserve");
  if (!dense_) {
    size_t capacity = capacity_mask_ + 1;
    while (n * 10 >= capacity * 7) capacity *= 2;
    if (capacity > capacity_mask_ + 1) Rehash(capacity);
  }
  payloads_.reserve(n * static_cast<size_t>(width_));
}

void ViewMap::ReserveDense(const std::vector<ValueRange>& box, size_t n) {
  LMFAO_CHECK(empty());
  LMFAO_CHECK_EQ(static_cast<int>(box.size()), key_arity_);
  // A dense map reserves and allocates its slot arrays here only, so both
  // ViewMap seams fire here as in a fresh hash map's Reserve.
  LMFAO_FAILPOINT_PARK("viewmap.reserve");
  size_t cells = 1;
  for (int c = 0; c < key_arity_; ++c) {
    const ValueRange& r = box[static_cast<size_t>(c)];
    LMFAO_CHECK(r.known());
    box_lo_[c] = r.min;
    box_extent_[c] =
        static_cast<uint64_t>(r.max) - static_cast<uint64_t>(r.min) + 1;
    LMFAO_CHECK_LT(box_extent_[c], static_cast<uint64_t>(kEmptySlot));
    cells *= box_extent_[c];
    LMFAO_CHECK_LT(cells, static_cast<size_t>(kEmptySlot));
  }
  dense_ = true;
  AllocateSlots(cells);
  payloads_.reserve(n * static_cast<size_t>(width_));
}

void ViewMap::ConvertToHash() {
  // Sized for what the map was reserved for, so the conversion is the only
  // rehash a well-estimated map pays.
  const size_t want =
      std::max(size_ + 1, payloads_.capacity() / static_cast<size_t>(width_));
  size_t capacity = kInitialCapacity;
  while (want * 10 >= capacity * 7) capacity *= 2;
  dense_ = false;
  Rehash(capacity);
}

void ViewMap::ShrinkToFit() {
  size_t capacity = kInitialCapacity;
  while (size_ * 10 >= capacity * 7) capacity *= 2;
  if (capacity < num_slots()) {
    dense_ = false;
    Rehash(capacity);
  }
  if (payloads_.capacity() - payloads_.size() > payloads_.size()) {
    payloads_.shrink_to_fit();
  }
}

void ViewMap::AllocateSlots(size_t slots) {
  // The allocation seam of the hot upsert path. An injected failure parks
  // (no Status channel here); the allocation itself still completes so the
  // map stays structurally valid for the unwind.
  LMFAO_FAILPOINT_PARK("viewmap.rehash");
  keys_.assign(slots * static_cast<size_t>(key_arity_), 0);
  hashes_.assign(slots, 0);
  entry_.assign(slots, kEmptySlot);
}

void ViewMap::Rehash(size_t new_capacity) {
  std::vector<int64_t> old_keys = std::move(keys_);
  std::vector<uint64_t> old_hashes = std::move(hashes_);
  std::vector<uint32_t> old_entry = std::move(entry_);
  AllocateSlots(new_capacity);
  capacity_mask_ = new_capacity - 1;

  for (size_t i = 0; i < old_entry.size(); ++i) {
    if (old_entry[i] == kEmptySlot) continue;
    // Keys are distinct, so the cached hash alone finds a free slot — no
    // re-hashing and no key comparisons during rehash. The entry index
    // travels with the key; the payload stays where it is.
    size_t j = old_hashes[i] & capacity_mask_;
    while (entry_[j] != kEmptySlot) j = (j + 1) & capacity_mask_;
    entry_[j] = old_entry[i];
    hashes_[j] = old_hashes[i];
    std::memcpy(keys_.data() + j * static_cast<size_t>(key_arity_),
                old_keys.data() + i * static_cast<size_t>(key_arity_),
                sizeof(int64_t) * static_cast<size_t>(key_arity_));
  }
}

void ViewMap::MergeAdd(const ViewMap& other) {
  LMFAO_CHECK_EQ(key_arity_, other.key_arity_);
  LMFAO_CHECK_EQ(width_, other.width_);
  // Worst-case union size up front: one rehash at most, instead of a
  // cascade of doublings while the merge loop runs.
  Reserve(size_ + other.size_);
  const size_t slots = other.num_slots();
  for (size_t s = 0; s < slots; ++s) {
    if (!other.slot_occupied(s)) continue;
    double* dst = UpsertHashed(other.slot_key(s), other.slot_hash(s));
    const double* src = other.slot_payload(s);
    for (int j = 0; j < width_; ++j) dst[j] += src[j];
  }
}

namespace {

/// Reorders the `width`-double rows of `data` in place so that row i ends
/// up holding the old row from[i] (`from` is a permutation; it is consumed
/// as the visited marks). One row of scratch, each row moved once.
void PermuteRows(double* data, int width, std::vector<uint32_t>* from) {
  const size_t w = static_cast<size_t>(width);
  std::vector<double> held(w);
  std::vector<uint32_t>& src = *from;
  for (size_t start = 0; start < src.size(); ++start) {
    if (src[start] == start) continue;
    std::memcpy(held.data(), data + start * w, sizeof(double) * w);
    size_t i = start;
    for (;;) {
      const size_t j = src[i];
      src[i] = static_cast<uint32_t>(i);
      if (j == start) {
        std::memcpy(data + i * w, held.data(), sizeof(double) * w);
        break;
      }
      std::memcpy(data + i * w, data + j * w, sizeof(double) * w);
      i = j;
    }
  }
}

/// One gather per key column: column c holds `component(rows[i], c)`.
template <typename ComponentFn>
KeyColumns GatherKeys(const std::vector<uint32_t>& rows, int arity,
                      ComponentFn&& component) {
  KeyColumns keys(arity, rows.size());
  for (int c = 0; c < arity; ++c) {
    int64_t* dst = keys.col(c);
    for (size_t i = 0; i < rows.size(); ++i) dst[i] = component(rows[i], c);
  }
  return keys;
}

}  // namespace

SortView SortView::FromMap(const ViewMap& map, PayloadLayout layout) {
  return Freeze(map, layout, nullptr);
}

SortView SortView::FromMap(ViewMap&& map, PayloadLayout layout) {
  SortView out = Freeze(map, layout, &map.payloads_);
  map = ViewMap(map.key_arity(), map.width());
  return out;
}

SortView SortView::Freeze(const ViewMap& map, PayloadLayout layout,
                          std::vector<double>* adopt) {
  SortView out;
  out.width_ = map.width();
  const int arity = map.key_arity();
  auto component = [&map](uint32_t slot, int c) {
    return map.slot_key(slot)[c];
  };

  // The occupied slots in key order: a dense map's cells already are, a
  // hash map's slots take an index argsort (its keys are distinct, so the
  // order is unique) ...
  std::vector<uint32_t> slots;
  slots.reserve(map.size());
  const size_t num_slots = map.num_slots();
  LMFAO_CHECK_LT(num_slots, static_cast<size_t>(UINT32_MAX));
  for (size_t s = 0; s < num_slots; ++s) {
    if (map.slot_occupied(s)) slots.push_back(static_cast<uint32_t>(s));
  }
  if (!map.dense()) LexicographicArgsort(&slots, arity, component);

  // ... then one gather per key column and one payload gather into the
  // requested layout (a straight row copy, or a tiled transpose into
  // per-slot columns) — no hash lookups.
  const size_t n = slots.size();
  out.keys_ = GatherKeys(slots, arity, component);
  if (adopt != nullptr && map.dense() &&
      (layout == PayloadLayout::kRowMajor || out.width_ == 1)) {
    // Entry-ordered rows become key-ordered rows where they lie.
    for (uint32_t& s : slots) s = map.entry_[s];
    PermuteRows(adopt->data(), out.width_, &slots);
    out.payloads_ =
        PayloadMatrix(out.width_, n, layout, std::move(*adopt));
    return out;
  }
  out.payloads_ = PayloadMatrix(out.width_, n, layout);
  GatherRows(&out.payloads_, [&map, &slots](size_t i) {
    return map.slot_payload(slots[i]);
  });
  return out;
}

SortView SortView::Permuted(const std::vector<int>& perm,
                            PayloadLayout layout) const {
  const int arity = keys_.arity();
  LMFAO_CHECK_EQ(static_cast<int>(perm.size()), arity);
  const int64_t* cols[TupleKey::kMaxArity] = {};
  for (int c = 0; c < arity; ++c) {
    const int from = perm[static_cast<size_t>(c)];
    LMFAO_CHECK(from >= 0 && from < arity);
    cols[c] = keys_.col(from);
  }
  auto component = [&cols](uint32_t row, int c) { return cols[c][row]; };

  // The same argsort and gathers as a freeze, over this view's rows.
  const size_t n = size();
  LMFAO_CHECK_LT(n, static_cast<size_t>(UINT32_MAX));
  std::vector<uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  LexicographicArgsort(&rows, arity, component);
  SortView out;
  out.width_ = width_;
  out.keys_ = GatherKeys(rows, arity, component);
  out.payloads_ = PayloadMatrix(width_, n, layout);
  const double* src = payloads_.data();
  if (payloads_.layout() == PayloadLayout::kRowMajor) {
    const size_t w = static_cast<size_t>(width_);
    GatherRows(&out.payloads_,
               [src, w, &rows](size_t i) { return src + rows[i] * w; });
    return out;
  }
  // A columnar source: one gather per slot column, written at the
  // destination's strides.
  double* dst = out.payloads_.data();
  const size_t entry_stride = out.payloads_.entry_stride();
  for (int s = 0; s < width_; ++s) {
    const double* from = src + static_cast<size_t>(s) * n;
    double* to = dst + static_cast<size_t>(s) * out.payloads_.slot_stride();
    for (size_t i = 0; i < n; ++i) to[i * entry_stride] = from[rows[i]];
  }
  return out;
}

size_t SortView::Find(const TupleKey& key) const {
  if (key.size() != keys_.arity()) return kNotFound;
  const size_t i = LowerBound(key);
  if (i >= keys_.size()) return kNotFound;
  for (int c = 0; c < keys_.arity(); ++c) {
    if (keys_.col(c)[i] != key[c]) return kNotFound;
  }
  return i;
}

size_t SortView::LowerBound(const TupleKey& key) const {
  // Narrow the candidate range one column at a time: [lo, hi) always holds
  // exactly the rows whose first c components equal the key prefix.
  size_t lo = 0;
  size_t hi = keys_.size();
  const int arity = std::min(keys_.arity(), key.size());
  for (int c = 0; c < arity && lo < hi; ++c) {
    const int64_t* col = keys_.col(c);
    const size_t first = static_cast<size_t>(
        std::lower_bound(col + lo, col + hi, key[c]) - col);
    if (first >= hi || col[first] != key[c]) return first;
    lo = first;
    hi = static_cast<size_t>(
        std::upper_bound(col + lo, col + hi, key[c]) - col);
  }
  return lo;
}

}  // namespace lmfao
