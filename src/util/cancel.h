/// \file cancel.h
/// \brief CancelToken: shared deadline / resource-budget enforcement.
///
/// One token is created per execute call and shared by every pass of the
/// call and every thread working on them, so one deadline covers the whole
/// call. Workers call Check() at group boundaries and, amortized, inside
/// scan loops; a non-OK return means the pass must unwind. Two kinds of trips with different stickiness:
///
///   - Deadline trips are *sticky*: once wall-clock time is up, every
///     subsequent Check fails — the pass cannot recover by doing less work.
///   - Budget trips are *not* sticky: Check compares the bytes currently
///     charged against the budget, so a caller that frees memory (e.g. the
///     serial retry of a sharded group, which runs the same shards one at a
///     time so only one shard's private maps are live) can proceed.

#ifndef LMFAO_UTIL_CANCEL_H_
#define LMFAO_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstddef>

#include "util/status.h"

namespace lmfao {

class CancelToken {
 public:
  CancelToken() = default;
  /// Arms both limits at once (see ArmDeadline / ArmBudget).
  CancelToken(double deadline_seconds, size_t max_bytes) {
    ArmDeadline(deadline_seconds);
    ArmBudget(max_bytes);
  }
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Arms a wall-clock deadline `seconds` from now. <= 0 leaves it unarmed.
  void ArmDeadline(double seconds) {
    if (seconds <= 0.0) return;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    deadline_armed_ = true;
    deadline_seconds_ = seconds;
  }

  /// Arms a view-memory budget in bytes. 0 leaves it unarmed.
  void ArmBudget(size_t max_bytes) { budget_bytes_ = max_bytes; }

  bool armed() const { return deadline_armed_ || budget_bytes_ != 0; }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Returns OK while the pass may continue; DeadlineExceeded once the
  /// wall-clock deadline passes (sticky); ResourceExhausted while
  /// `charged_bytes` exceeds the armed budget (non-sticky — recedes when
  /// the caller frees memory). `charged_bytes` is the caller's current view
  /// memory, typically ViewStore accounting plus in-flight output maps.
  Status Check(size_t charged_bytes = 0) const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return DeadlineStatus();
    }
    if (deadline_armed_ && Clock::now() >= deadline_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return DeadlineStatus();
    }
    if (budget_bytes_ != 0 && charged_bytes > budget_bytes_) {
      return Status::ResourceExhausted(
          "view memory budget exceeded: " + std::to_string(charged_bytes) +
          " bytes charged, limit " + std::to_string(budget_bytes_));
    }
    return Status::OK();
  }

  size_t budget_bytes() const { return budget_bytes_; }

 private:
  using Clock = std::chrono::steady_clock;

  Status DeadlineStatus() const {
    return Status::DeadlineExceeded(
        "execution deadline of " + std::to_string(deadline_seconds_) +
        "s exceeded");
  }

  Clock::time_point deadline_{};
  bool deadline_armed_ = false;
  double deadline_seconds_ = 0.0;
  size_t budget_bytes_ = 0;
  mutable std::atomic<bool> cancelled_{false};
};

}  // namespace lmfao

#endif  // LMFAO_UTIL_CANCEL_H_
