/// \file failpoint.h
/// \brief Named fault-injection points through the execution runtime.
///
/// A failpoint is a named hook at a seam that can genuinely fail in
/// production (a hash-map rehash, a view publish, an epoch commit, a
/// scheduler task spawn). When enabled, the hook may inject a
/// synthetic failure — surfaced as a non-OK Status through the normal
/// error-propagation paths — so the unwind machinery around every such seam
/// can be exercised systematically instead of waiting for the failure to
/// happen for real.
///
/// Configuration is a comma-separated spec, from the `LMFAO_FAILPOINTS`
/// environment variable at process start or programmatically
/// (`Failpoints::Configure`, which tests use with a deterministic seed):
///
///   LMFAO_FAILPOINTS=viewstore.publish=fail,viewmap.rehash=oom@0.01
///
/// Each entry is `name=action[:ms][@prob][#nth][*count]`:
///   - action `fail`  -> Status::Internal tagged transient (a generic
///     injected failure; Status::IsRetryable() is true so retrying callers
///     — the serving layer, the CART provider — treat it as recoverable
///     flaky infrastructure; `panic` below is the non-retryable variant),
///     `oom`   -> Status::ResourceExhausted (allocation failure),
///     `panic` -> Status::Internal tagged as a panic ("panic-as-Status":
///     the library never aborts across its API, so even a simulated panic
///     surfaces as an error return),
///     `delay[:ms]` -> sleeps (default 10 ms) and then proceeds OK —
///     for shaking out timeouts and scheduling races, not for failing.
///   - `@prob`  fires each hit independently with probability `prob`
///     (deterministic per (seed, name, hit index)).
///   - `#nth`   fires only on the nth hit (1-based).
///   - `*count` fires at most `count` times in total.
/// Triggers compose by conjunction; an entry with none always fires.
///
/// When no failpoint is configured the per-seam cost is one relaxed atomic
/// load and a predicted-untaken branch (see LMFAO_FAILPOINT), so the hooks
/// are left compiled into release builds.
///
/// Seams instrumented (see also docs/ARCHITECTURE.md):
///   viewmap.reserve, viewmap.rehash — ViewMap reservation and slot-array
///                                  allocation: hash growth, a dense box,
///                                  a dense→hash conversion (parked, see
///                                  below)
///   viewstore.register, viewstore.publish, viewstore.freeze
///   catalog.append               — epoch commit
///   engine.sorted_cache          — sorted-relation cache (re)build
///   scheduler.spawn              — group task spawn
///   dist.shard_execute           — sharded execution, before each shard
///                                  scan's exchange
///   dist.exchange_decode         — coordinator merge, before each frame
///                                  decode
///
/// Void seams: ViewMap::Reserve/Rehash run inside hot scan loops with no
/// Status channel. They *park* the injected Status in a thread-local slot
/// (LMFAO_FAILPOINT_PARK); the nearest Status-returning frame collects it
/// with `Failpoints::TakeParked()` (the execution runtime does this after
/// every scan shard, merge, and publish).

#ifndef LMFAO_UTIL_FAILPOINT_H_
#define LMFAO_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace lmfao {

class Failpoints {
 public:
  /// True when any failpoint is configured. The only cost on the disabled
  /// path; callers gate Check behind it (see LMFAO_FAILPOINT).
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Evaluates the named failpoint: returns the injected Status when it
  /// fires, OK otherwise (including when the failpoint is not configured).
  /// Thread-safe; hit counters are shared across threads.
  static Status Check(const char* name);

  /// Void-seam variant: a fired failpoint parks its Status in a
  /// thread-local slot instead of returning it.
  static void CheckParked(const char* name);

  /// Returns and clears the current thread's parked Status (OK when none).
  static Status TakeParked();

  /// Drops any parked Status on the current thread (pass boundaries call
  /// this so stale parks cannot leak into an unrelated execution).
  static void ClearParked();

  /// Replaces the configuration with `spec` (the LMFAO_FAILPOINTS grammar).
  /// `seed` drives the deterministic probability decisions. An empty spec
  /// disables everything. Returns InvalidArgument on a malformed spec
  /// (leaving the previous configuration in place).
  static Status Configure(const std::string& spec, uint64_t seed = 0x1234);

  /// Disables all failpoints.
  static void Clear();

  /// The spec currently in force (empty when disabled) — lets tests save
  /// and restore ambient (environment-driven) configuration.
  static std::string CurrentSpec();

  /// Total hits (fired or not) of a named failpoint since its Configure;
  /// 0 for unknown names. Observability for tests.
  static uint64_t Hits(const char* name);

 private:
  static std::atomic<bool> enabled_;
};

/// Evaluates failpoint `name` and propagates an injected failure out of the
/// enclosing Status/StatusOr-returning function. No-op branch when nothing
/// is configured.
#define LMFAO_FAILPOINT(name)                                  \
  do {                                                         \
    if (__builtin_expect(::lmfao::Failpoints::enabled(), 0)) { \
      ::lmfao::Status _fp_st = ::lmfao::Failpoints::Check(name); \
      if (!_fp_st.ok()) return _fp_st;                         \
    }                                                          \
  } while (false)

/// Void-context variant: parks the injected failure for the nearest
/// Status-returning frame (Failpoints::TakeParked).
#define LMFAO_FAILPOINT_PARK(name)                             \
  do {                                                         \
    if (__builtin_expect(::lmfao::Failpoints::enabled(), 0)) { \
      ::lmfao::Failpoints::CheckParked(name);                  \
    }                                                          \
  } while (false)

}  // namespace lmfao

#endif  // LMFAO_UTIL_FAILPOINT_H_
