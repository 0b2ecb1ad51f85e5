/// \file view_store.h
/// \brief The ViewStore: ownership and lifetime of materialized views during
/// one batch evaluation.
///
/// The execution runtime (ExecutionContext, engine/execution_context.h)
/// publishes every produced view into the store and consumers read it back
/// out. The store
///   - freezes every consumed inner view into a SortView once, at publish
///     (one view form between groups), and keeps query outputs as the
///     ViewMaps TakeResult hands out; a view with neither a consumer nor a
///     pin is dropped at publish without being frozen;
///   - tracks per-view consumer refcounts derived from the workload DAG and
///     *eagerly evicts* a view after its last consumer finishes, so peak
///     memory follows the live frontier of the group dependency graph
///     instead of the whole workload;
///   - pins query outputs (they are handed to the caller, never evicted);
///   - accounts bytes (current/peak) and live-view counts for the
///     execution statistics.
///
/// Thread safety: all bookkeeping is mutex-protected; the stored key and
/// payload arrays are immutable between Publish and eviction, so consumers
/// read them without the lock (the refcount guarantees no eviction races a
/// registered consumer).

#ifndef LMFAO_STORAGE_VIEW_STORE_H_
#define LMFAO_STORAGE_VIEW_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/view.h"
#include "util/status.h"

namespace lmfao {

class ViewStore {
 public:
  ViewStore() = default;
  ~ViewStore();
  ViewStore(const ViewStore&) = delete;
  ViewStore& operator=(const ViewStore&) = delete;

  /// Registers view `view_id` before execution starts: `consumers` groups
  /// will Acquire/Release it, it freezes with payloads in
  /// `payload_layout` (the plan-layer decision of
  /// GroupPlan::OutputInfo::payload_layout), and `pinned` views (query
  /// outputs) stay maps and survive until TakeResult. Must be called for
  /// every view id in [0, num_views) exactly once, before Run.
  void Register(int32_t view_id, int consumers, bool pinned,
                PayloadLayout payload_layout = PayloadLayout::kColumnar);

  /// Publishes the produced map. A pinned view keeps it; an unpinned view
  /// with consumers is frozen into a SortView (consuming the map), and
  /// one without consumers is evicted at once, unfrozen.
  Status Publish(int32_t view_id, std::unique_ptr<ViewMap> map);

  /// \name Consumption. Acquire returns the frozen view; the caller must
  /// Release once per registered consumer slot when done, after which the
  /// view may be evicted. A pinned view cannot be acquired.
  /// @{
  StatusOr<const SortView*> Acquire(int32_t view_id);
  void Release(int32_t view_id);
  /// @}

  /// Moves a pinned query output out of the store.
  StatusOr<ViewMap> TakeResult(int32_t view_id);

  /// \name Statistics. Bytes are accounted split into key-side bytes
  /// (packed keys, cached hashes, occupancy) and payload bytes, so memory
  /// wins in the key layout stay attributable; `*_bytes()` totals are the
  /// sum of the two sides.
  /// @{
  size_t live_views() const;
  size_t peak_live_views() const;
  size_t current_bytes() const;
  size_t current_key_bytes() const;
  size_t current_payload_bytes() const;
  size_t peak_bytes() const;
  size_t peak_key_bytes() const;
  size_t peak_payload_bytes() const;
  /// @}

  /// \name Process-wide accounting across every live ViewStore. Charged at
  /// Publish, discharged at eviction / TakeResult / store destruction.
  /// Tests use these to prove that a failed or cancelled execution leaks
  /// zero views: after its ExecutionContext unwinds, the globals return to
  /// their pre-execution baseline.
  /// @{
  static size_t GlobalLiveBytes();
  static size_t GlobalLiveViews();
  /// @}

 private:
  struct Entry {
    std::unique_ptr<ViewMap> map;
    std::unique_ptr<SortView> frozen;
    PayloadLayout payload_layout = PayloadLayout::kColumnar;
    int refs = 0;
    bool pinned = false;
    bool published = false;
    size_t key_bytes = 0;
    size_t payload_bytes = 0;
  };

  void EvictLocked(Entry* entry);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  size_t live_views_ = 0;
  size_t peak_live_views_ = 0;
  size_t key_bytes_ = 0;
  size_t payload_bytes_ = 0;
  size_t peak_bytes_ = 0;
  size_t peak_key_bytes_ = 0;
  size_t peak_payload_bytes_ = 0;
};

}  // namespace lmfao

#endif  // LMFAO_STORAGE_VIEW_STORE_H_
