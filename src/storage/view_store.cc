#include "storage/view_store.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/failpoint.h"

namespace lmfao {

namespace {
// Process-wide live accounting, shared by all ViewStore instances.
std::atomic<size_t> g_global_live_bytes{0};
std::atomic<size_t> g_global_live_views{0};
}  // namespace

ViewStore::~ViewStore() {
  // Discharge whatever is still live (pinned outputs after a failed pass,
  // views an aborted scheduler never released) so the process-wide globals
  // track reachable memory, not history.
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.map != nullptr || e.frozen != nullptr) EvictLocked(&e);
  }
}

size_t ViewStore::GlobalLiveBytes() {
  return g_global_live_bytes.load(std::memory_order_relaxed);
}

size_t ViewStore::GlobalLiveViews() {
  return g_global_live_views.load(std::memory_order_relaxed);
}

void ViewStore::Register(int32_t view_id, int consumers, bool pinned,
                         PayloadLayout payload_layout) {
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<size_t>(view_id) >= entries_.size()) {
    entries_.resize(static_cast<size_t>(view_id) + 1);
  }
  Entry& e = entries_[static_cast<size_t>(view_id)];
  e.payload_layout = payload_layout;
  e.refs = consumers;
  e.pinned = pinned;
}

Status ViewStore::Publish(int32_t view_id, std::unique_ptr<ViewMap> map) {
  if (map == nullptr) {
    return Status::InvalidArgument("view store: publishing a null map");
  }
  // The pin and the consumer count are fixed before the view's producer
  // runs (Register; refs drop only after Acquire, which needs the
  // publish), so the (possibly expensive) freeze runs outside the lock.
  LMFAO_FAILPOINT("viewstore.publish");
  const Entry& meta = entries_[static_cast<size_t>(view_id)];
  std::unique_ptr<SortView> frozen;
  if (meta.pinned) {
    // The map takes no further inserts once published; return the slack of
    // an overshot cardinality-estimate Reserve instead of carrying it in
    // the store until TakeResult.
    map->ShrinkToFit();
  } else if (meta.refs > 0) {
    LMFAO_FAILPOINT("viewstore.freeze");
    frozen = std::make_unique<SortView>(
        SortView::FromMap(std::move(*map), meta.payload_layout));
    map.reset();
  }

  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[static_cast<size_t>(view_id)];
  if (e.published) {
    return Status::Internal("view store: view published twice");
  }
  e.published = true;
  e.map = std::move(map);
  e.frozen = std::move(frozen);
  if (e.frozen != nullptr) {
    e.key_bytes = e.frozen->KeyBytes();
    e.payload_bytes = e.frozen->PayloadBytes();
  } else {
    e.key_bytes = e.map->KeyBytes();
    e.payload_bytes = e.map->PayloadBytes();
  }
  key_bytes_ += e.key_bytes;
  payload_bytes_ += e.payload_bytes;
  g_global_live_bytes.fetch_add(e.key_bytes + e.payload_bytes,
                                std::memory_order_relaxed);
  g_global_live_views.fetch_add(1, std::memory_order_relaxed);
  peak_key_bytes_ = std::max(peak_key_bytes_, key_bytes_);
  peak_payload_bytes_ = std::max(peak_payload_bytes_, payload_bytes_);
  peak_bytes_ = std::max(peak_bytes_, key_bytes_ + payload_bytes_);
  ++live_views_;
  peak_live_views_ = std::max(peak_live_views_, live_views_);
  if (e.refs == 0 && !e.pinned) EvictLocked(&e);
  return Status::OK();
}

StatusOr<const SortView*> ViewStore::Acquire(int32_t view_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[static_cast<size_t>(view_id)];
  if (!e.published || e.frozen == nullptr) {
    return Status::Internal(
        "view store: acquiring an unpublished or pinned view");
  }
  if (e.refs <= 0) {
    return Status::Internal("view store: more acquires than consumers");
  }
  return e.frozen.get();
}

void ViewStore::Release(int32_t view_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[static_cast<size_t>(view_id)];
  LMFAO_CHECK_GT(e.refs, 0);
  if (--e.refs == 0 && !e.pinned) EvictLocked(&e);
}

StatusOr<ViewMap> ViewStore::TakeResult(int32_t view_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[static_cast<size_t>(view_id)];
  if (!e.published || e.map == nullptr) {
    return Status::Internal("view store: taking a view that is not pinned");
  }
  ViewMap out = std::move(*e.map);
  EvictLocked(&e);
  return out;
}

void ViewStore::EvictLocked(Entry* entry) {
  if (entry->map == nullptr && entry->frozen == nullptr) return;
  entry->map.reset();
  entry->frozen.reset();
  key_bytes_ -= entry->key_bytes;
  payload_bytes_ -= entry->payload_bytes;
  g_global_live_bytes.fetch_sub(entry->key_bytes + entry->payload_bytes,
                                std::memory_order_relaxed);
  g_global_live_views.fetch_sub(1, std::memory_order_relaxed);
  entry->key_bytes = 0;
  entry->payload_bytes = 0;
  --live_views_;
}

size_t ViewStore::live_views() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_views_;
}

size_t ViewStore::peak_live_views() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_live_views_;
}

size_t ViewStore::current_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return key_bytes_ + payload_bytes_;
}

size_t ViewStore::current_key_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return key_bytes_;
}

size_t ViewStore::current_payload_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return payload_bytes_;
}

size_t ViewStore::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_bytes_;
}

size_t ViewStore::peak_key_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_key_bytes_;
}

size_t ViewStore::peak_payload_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_payload_bytes_;
}

}  // namespace lmfao
