/// \file view.h
/// \brief Materialized views: key → vector-of-aggregates maps.
///
/// A view maps tuples over its group-by attributes to a fixed-width payload
/// of aggregate values. The Code Generation layer of the paper chooses
/// "data structures for the views such as sorted arrays and (un)ordered
/// hashmaps"; we provide both:
///   - ViewMap: the writable form, with *packed* keys — an arity-strided
///     int64 buffer plus a cached per-slot hash — and dense payloads
///     indexed from the slots (supports out-of-order upserts). It has two
///     slot addressings behind one slot API:
///       - hash mode (the default): open addressing, so probing compares
///         8·arity bytes instead of a fixed-capacity TupleKey;
///       - dense mode, chosen from the catalog's cardinality constraints
///         when the key attributes' value ranges span a box no larger
///         than twice the output's estimated size: the slot is the key's
///         row-major offset in the box, so an upsert neither hashes nor
///         probes, and slot order is key order. A key outside the box
///         converts the map to hash mode once, so results never depend on
///         the ranges;
///   - SortView: the *frozen* sorted-array form with columnar (SoA) keys
///     (KeyColumns) and payloads in the layout the plan chose
///     (PayloadMatrix — slot-major columns when consumers marginalize or
///     iterate entry ranges, entry-major rows when every consumer binds
///     single entries), which iterates in key order and supports
///     binary-search lookups over plain contiguous int64 columns.
///     A SortView is the only form a view takes between groups: the
///     ViewStore (view_store.h) freezes every inner view at publish, and a
///     group reading a view in another key order reads a Permuted copy.
///     Query outputs stay ViewMaps.
///
/// TupleKey remains the *handle* type at API boundaries (Lookup arguments,
/// ForEach callbacks); the stored layout is packed to the view's actual
/// arity.

#ifndef LMFAO_STORAGE_VIEW_H_
#define LMFAO_STORAGE_VIEW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/key_columns.h"
#include "storage/payload_columns.h"
#include "storage/schema.h"
#include "util/hash.h"
#include "util/status.h"

namespace lmfao {

/// \brief Map from packed keys to payloads of doubles, hash- or
/// direct-addressed.
///
/// The slot arrays hold, per slot, the packed key (8·arity bytes), its
/// cached HashKeySpan hash and a 4-byte entry index (kEmptySlot when
/// free). Payloads are *dense*: `width` doubles per entry, appended in
/// insertion order at the entry index, so payload memory scales with
/// entries, not slots, and accumulation stays contiguous per entry.
///
/// Hash mode: linear probing with power-of-two slot counts; probing
/// rejects on the hash first and only then compares the arity components.
/// Grows at 70% load, and a rehash moves only the slot arrays, reusing the
/// cached hashes (keys are never re-hashed).
///
/// Dense mode (ReserveDense): one slot per cell of a key box, the slot
/// index being the key's row-major offset in it. The key, its hash and the
/// entry index are written once, on first insert; later upserts of the
/// key read only its entry index. Occupied slots iterate in key
/// order. The first key outside the box converts the map to hash mode
/// through the same cached-hash rehash.
class ViewMap {
 public:
  /// Creates a map for keys of `key_arity` components and payloads of
  /// `width` doubles.
  ViewMap(int key_arity, int width);

  int key_arity() const { return key_arity_; }
  int width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True while the map is direct-addressed (see ReserveDense).
  bool dense() const { return dense_; }

  /// Returns the payload slot for the key_arity() components at `vals`,
  /// inserting a zero-initialized entry if absent. The key is hashed only
  /// when the map is in hash mode or the key is new. The pointer is
  /// invalidated by the next upsert that inserts a key (the dense payload
  /// array may grow); a Reserve up front makes a known number of upserts
  /// rehash-free and pointer-stable.
  double* Upsert(const int64_t* vals) {
    size_t cell;
    if (dense_ && DenseCell(vals, &cell)) {
      if (entry_[cell] == kEmptySlot) {
        Insert(cell, vals, HashKeySpan(vals, key_arity_));
      }
      return payloads_.data() + EntryOffset(cell);
    }
    return UpsertHashed(vals, HashKeySpan(vals, key_arity_));
  }

  /// Same, from a TupleKey handle (cold paths and tests).
  double* Upsert(const TupleKey& key);

  /// Same, with the key's precomputed HashKeySpan hash (the rehash-free
  /// merge path reuses the source map's cached hashes).
  double* UpsertHashed(const int64_t* vals, uint64_t hash);

  /// Returns the payload for `key`, or nullptr if absent.
  const double* Lookup(const TupleKey& key) const;

  /// Preallocates capacity so that the map can hold `n` entries without
  /// rehashing or moving a payload. Used by the execution runtime to size
  /// output maps from catalog cardinality estimates before a group scan
  /// starts, eliminating mid-scan rehash churn in hot loops. The payload
  /// capacity is reserved, not written: an overshot estimate costs address
  /// space and slot arrays, not resident payload pages.
  void Reserve(size_t n);

  /// Switches an empty map to dense mode over the key box `box` (one
  /// inclusive value range per key component, each known) and reserves
  /// payload for `n` entries. The box must hold fewer than 2^32 cells; the
  /// caller keeps it near the expected entry count, since the slot arrays
  /// scale with the box.
  void ReserveDense(const std::vector<ValueRange>& box, size_t n);

  /// Rehashes down to the smallest capacity holding the current entries —
  /// converting a dense map whose box is larger than that — and returns
  /// the payload slack of an overshot Reserve when it is material (more
  /// unused than used payload capacity; ordinary growth never leaves that
  /// much). The ViewStore calls this at publish time for views that stay
  /// in map form: published maps take no further inserts, so their
  /// capacity headroom is pure waste.
  void ShrinkToFit();

  /// Number of entries a hash-mode map can hold before the next rehash.
  size_t capacity() const { return ((capacity_mask_ + 1) * 7) / 10; }

  /// \name Raw slot access (freeze / consume / merge hot paths — no
  /// TupleKey materialization).
  /// @{
  size_t num_slots() const { return entry_.size(); }
  bool slot_occupied(size_t slot) const { return entry_[slot] != kEmptySlot; }
  /// The slot's packed key components (key_arity() values).
  const int64_t* slot_key(size_t slot) const {
    return keys_.data() + slot * static_cast<size_t>(key_arity_);
  }
  uint64_t slot_hash(size_t slot) const { return hashes_[slot]; }
  const double* slot_payload(size_t slot) const {
    return payloads_.data() + EntryOffset(slot);
  }
  /// @}

  /// \name Iteration over occupied entries (key order in dense mode,
  /// unspecified otherwise). The callback key is a gathered TupleKey; hot
  /// paths use the raw slot accessors instead.
  /// @{
  template <typename Fn>  // Fn(const TupleKey&, const double*)
  void ForEach(Fn&& fn) const {
    const size_t slots = num_slots();
    for (size_t i = 0; i < slots; ++i) {
      if (!slot_occupied(i)) continue;
      TupleKey key(key_arity_);
      const int64_t* vals = slot_key(i);
      for (int c = 0; c < key_arity_; ++c) key.set(c, vals[c]);
      fn(key, slot_payload(i));
    }
  }
  /// @}

  /// Merges `other` into this map by summing payloads (used to combine
  /// thread-local partial results from domain-parallel execution).
  /// Pre-sizes to the worst-case union, so the merge itself never rehashes
  /// (beyond a dense map's one conversion, should `other` hold a key
  /// outside its box).
  void MergeAdd(const ViewMap& other);

  /// \name Memory accounting: key-side bytes (the slot arrays: packed
  /// keys, cached hashes, entry indexes), payload bytes (entries × width;
  /// reserved but unwritten capacity is not counted), and their sum.
  /// @{
  size_t KeyBytes() const {
    return keys_.size() * sizeof(int64_t) + hashes_.size() * sizeof(uint64_t) +
           entry_.size() * sizeof(uint32_t);
  }
  size_t PayloadBytes() const { return payloads_.size() * sizeof(double); }
  size_t MemoryUsage() const { return KeyBytes() + PayloadBytes(); }
  /// @}

 private:
  friend class SortView;  // The freeze adopts a dense map's payload buffer.

  /// Entry index of a free slot.
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  size_t EntryOffset(size_t slot) const {
    return static_cast<size_t>(entry_[slot]) * static_cast<size_t>(width_);
  }
  /// Dense mode: the key's cell in the box, or false when it lies outside.
  /// Unsigned differences make one compare per component a range check.
  bool DenseCell(const int64_t* vals, size_t* cell) const {
    size_t offset = 0;
    for (int c = 0; c < key_arity_; ++c) {
      const uint64_t d =
          static_cast<uint64_t>(vals[c]) - static_cast<uint64_t>(box_lo_[c]);
      if (d >= box_extent_[c]) return false;
      offset = offset * box_extent_[c] + d;
    }
    *cell = offset;
    return true;
  }
  /// Fills the free slot `slot` with the key and a zeroed payload entry.
  void Insert(size_t slot, const int64_t* vals, uint64_t hash);
  /// Leaves dense mode: rehashes the occupied cells into a hash table
  /// sized for the reserved entries.
  void ConvertToHash();
  /// Replaces the slot arrays with `slots` free slots (the
  /// viewmap.rehash failpoint seam).
  void AllocateSlots(size_t slots);
  void Rehash(size_t new_capacity);
  size_t ProbeSlot(const int64_t* vals, uint64_t hash) const;
  bool SlotKeyEquals(size_t slot, const int64_t* vals) const {
    const int64_t* stored = slot_key(slot);
    for (int c = 0; c < key_arity_; ++c) {
      if (stored[c] != vals[c]) return false;
    }
    return true;
  }

  int key_arity_;
  int width_;
  size_t size_ = 0;
  /// Hash mode: slot count - 1 (a power of two minus one).
  size_t capacity_mask_ = 0;
  /// Dense mode: the box's lower corner and per-component extents.
  bool dense_ = false;
  int64_t box_lo_[TupleKey::kMaxArity] = {};
  uint64_t box_extent_[TupleKey::kMaxArity] = {};
  /// Packed keys, num_slots() * key_arity_ (8·arity bytes per slot).
  std::vector<int64_t> keys_;
  /// Cached HashKeySpan per slot (valid where occupied).
  std::vector<uint64_t> hashes_;
  /// Per slot, the index of its entry's payload, or kEmptySlot.
  std::vector<uint32_t> entry_;
  /// Dense payloads, size_ * width_, in insertion order.
  std::vector<double> payloads_;
};

/// \brief Sorted-array view: entries ordered by key, keys stored columnar
/// (SoA), payloads in the plan-chosen PayloadLayout.
///
/// Built by freezing a ViewMap: the occupied slots in key order (a dense
/// map's slot order already is; a hash map's slots are argsorted), then a
/// single gather into per-component key columns and a gather of the slot
/// payloads into the requested layout (no per-entry hash lookups).
/// Supports ordered iteration (merge-join style consumption) and
/// binary-search lookup that narrows one contiguous column at a time. The
/// raw key and payload arrays are exposed so the executor reads a view in
/// place: a group consuming it in canonical key order reads the stored
/// view itself, any other group a Permuted copy. With the columnar payload
/// layout a marginalizing range sum over one slot is a unit-stride scan of
/// one payload column.
class SortView {
 public:
  /// Sentinel returned by Find for absent keys.
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  SortView() : width_(0) {}

  /// Freezes `map` into sorted form with the given payload layout
  /// (GroupPlan::OutputInfo::payload_layout for plan-produced views).
  static SortView FromMap(const ViewMap& map,
                          PayloadLayout layout = PayloadLayout::kColumnar);

  /// Same, consuming the map: a dense map frozen into row-major layout (or
  /// of width 1, where both layouts coincide) has its payload rows
  /// permuted into key order in place and adopted, so the map's payload
  /// and the frozen copy never coexist. `map` is left empty.
  static SortView FromMap(ViewMap&& map,
                          PayloadLayout layout = PayloadLayout::kColumnar);

  /// A copy whose key component c is this view's component perm[c]
  /// (`perm` is a permutation of [0, key_arity())), sorted in that order,
  /// with payloads in `layout`: the form a group reads a view in when its
  /// trie order differs from the view's canonical key order.
  SortView Permuted(const std::vector<int>& perm, PayloadLayout layout) const;

  int key_arity() const { return keys_.arity(); }
  int width() const { return width_; }
  size_t size() const { return keys_.size(); }

  /// Gathers entry `i` into an inline TupleKey (cold paths and tests).
  TupleKey key(size_t i) const { return keys_.Row(i); }
  /// Payload slot `s` of entry `i` (layout-independent; cold paths and
  /// tests — hot paths read whole columns/rows via the matrix).
  double payload_at(size_t i, int s) const { return payloads_.at(i, s); }

  /// \name Raw sorted arrays (for zero-copy consumption).
  /// @{
  const KeyColumns& key_columns() const { return keys_; }
  /// Contiguous sorted column of key component `c`.
  const int64_t* col(int c) const { return keys_.col(c); }
  const PayloadMatrix& payload_matrix() const { return payloads_; }
  /// Contiguous payload column of aggregate slot `s` (columnar layout).
  const double* pcol(int s) const { return payloads_.col(s); }
  /// @}

  /// Binary-search lookup; the entry index, or kNotFound if absent.
  size_t Find(const TupleKey& key) const;

  /// Index of the first entry with key >= `key` (lexicographic).
  size_t LowerBound(const TupleKey& key) const;

  /// \name Memory accounting (columnar keys / payload split).
  /// @{
  size_t KeyBytes() const { return keys_.bytes(); }
  size_t PayloadBytes() const { return payloads_.bytes(); }
  size_t MemoryUsage() const { return KeyBytes() + PayloadBytes(); }
  /// @}

 private:
  /// Both FromMap overloads; `adopt` is the consumed map's payload
  /// buffer, or nullptr to copy.
  static SortView Freeze(const ViewMap& map, PayloadLayout layout,
                         std::vector<double>* adopt);

  int width_;
  KeyColumns keys_;
  PayloadMatrix payloads_;
};

}  // namespace lmfao

#endif  // LMFAO_STORAGE_VIEW_H_
