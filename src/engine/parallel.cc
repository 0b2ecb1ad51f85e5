#include "engine/parallel.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/failpoint.h"

namespace lmfao {

namespace {

using Clock = std::chrono::steady_clock;

/// Shared state of one scheduling run.
struct SchedulerState {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> pending;
  std::vector<std::vector<int>> successors;
  std::vector<Clock::time_point> ready_at;
  size_t completed = 0;
  size_t total = 0;
  Status first_error = Status::OK();
  bool aborted = false;
};

/// Marks `gid` complete (without running it) and recursively completes any
/// successors that become ready while aborted. Caller holds the lock.
void CompleteSkipped(SchedulerState* state, int gid) {
  ++state->completed;
  for (int s : state->successors[static_cast<size_t>(gid)]) {
    if (--state->pending[static_cast<size_t>(s)] == 0) {
      CompleteSkipped(state, s);
    }
  }
}

}  // namespace

int SchedulerOptions::ResolvedThreads() const {
  if (num_threads > 0) return num_threads;
  return static_cast<int>(ThreadPool::DefaultThreadCount());
}

int ChooseShardCount(int64_t rows, const SchedulerOptions& options,
                     int free_threads) {
  const int threads = options.ResolvedThreads();
  if (!options.domain_parallel || threads <= 1) return 1;
  const int64_t floor = std::max<int64_t>(1, options.min_shard_rows);
  if (rows < 2 * floor) return 1;
  const int64_t by_size = rows / floor;
  // The caller's own slot is always available; idle workers add the rest.
  // With task parallelism off the whole pool is idle between groups.
  const int64_t by_slots =
      options.task_parallel ? static_cast<int64_t>(free_threads) + 1
                            : static_cast<int64_t>(threads);
  const int64_t shards =
      std::min({by_size, by_slots, static_cast<int64_t>(threads)});
  return static_cast<int>(std::max<int64_t>(1, shards));
}

std::vector<ShardRange> KeyAlignedRanges(const int64_t* keys, size_t rows,
                                         int n) {
  const size_t pieces = static_cast<size_t>(std::max(1, n));
  std::vector<ShardRange> ranges;
  size_t lo = 0;
  for (size_t s = 1; s <= pieces; ++s) {
    size_t cut = rows / pieces * s + std::min(s, rows % pieces);
    if (cut <= lo) continue;
    if (cut < rows) {
      cut = static_cast<size_t>(
          std::upper_bound(keys + cut, keys + rows, keys[cut - 1]) - keys);
    }
    ranges.push_back(ShardRange{lo, cut});
    lo = cut;
  }
  if (ranges.empty()) ranges.push_back(ShardRange{0, 0});
  return ranges;
}

Status ScheduleGroupsTimed(
    const GroupedWorkload& grouped, ThreadPool* pool,
    const std::function<Status(int, const GroupStart&)>& run_group) {
  const size_t n = grouped.groups.size();
  if (n == 0) return Status::OK();
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (int g : grouped.TopologicalOrder()) {
      LMFAO_FAILPOINT("scheduler.spawn");
      LMFAO_RETURN_NOT_OK(run_group(g, GroupStart{}));
    }
    return Status::OK();
  }

  SchedulerState state;
  state.total = n;
  state.pending.assign(n, 0);
  state.successors.assign(n, {});
  state.ready_at.assign(n, Clock::now());
  for (const ViewGroup& g : grouped.groups) {
    state.pending[static_cast<size_t>(g.id)] =
        static_cast<int>(g.depends_on.size());
    for (int dep : g.depends_on) {
      state.successors[static_cast<size_t>(dep)].push_back(g.id);
    }
  }

  std::function<void(int)> submit = [&](int gid) {
    pool->Submit([&, gid] {
      GroupStart start;
      {
        std::lock_guard<std::mutex> lock(state.mu);
        start.wait_seconds =
            std::chrono::duration<double>(
                Clock::now() - state.ready_at[static_cast<size_t>(gid)])
                .count();
      }
      // An injected spawn failure takes the place of the group's own
      // status, flowing through the same first_error/abort unwind a real
      // task-creation failure would trigger.
      Status st = Status::OK();
      if (Failpoints::enabled()) st = Failpoints::Check("scheduler.spawn");
      if (st.ok()) st = run_group(gid, start);
      std::vector<int> ready;
      {
        std::lock_guard<std::mutex> lock(state.mu);
        ++state.completed;
        if (!st.ok() && state.first_error.ok()) {
          state.first_error = st;
          state.aborted = true;
        }
        for (int s : state.successors[static_cast<size_t>(gid)]) {
          if (--state.pending[static_cast<size_t>(s)] == 0) {
            if (state.aborted) {
              CompleteSkipped(&state, s);
            } else {
              state.ready_at[static_cast<size_t>(s)] = Clock::now();
              ready.push_back(s);
            }
          }
        }
        state.cv.notify_all();
      }
      for (int s : ready) submit(s);
    });
  };

  for (const ViewGroup& g : grouped.groups) {
    if (g.depends_on.empty()) submit(g.id);
  }
  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&] { return state.completed >= state.total; });
  return state.first_error;
}

}  // namespace lmfao
