/// \file parallel.h
/// \brief The unified group scheduler: hybrid task + domain parallelism.
///
/// LMFAO "computes the groups in parallel by exploiting both task and
/// domain parallelism" (Section 2). Task parallelism schedules whole groups
/// over the group dependency graph; domain parallelism cuts one group's
/// sorted node relation into row blocks on level-1 key boundaries
/// (KeyAlignedRanges) and deals them round-robin to shards with private
/// result maps that are merged afterwards. The two compose: every ready
/// group runs as a task, and a group whose node relation is large enough
/// claims idle pool slots for domain shards while other ready groups keep
/// running (ChooseShardCount is the cost model). The three seed-era ParallelModes
/// are the degenerate configurations of SchedulerOptions: sequential
/// (num_threads = 1), task-only (domain_parallel = false), and domain-only
/// (task_parallel = false).

#ifndef LMFAO_ENGINE_PARALLEL_H_
#define LMFAO_ENGINE_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "engine/ir.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace lmfao {

/// \brief Configuration of the unified scheduler (replaces the seed's
/// three-way ParallelMode enum).
struct SchedulerOptions {
  /// Worker threads: 1 = sequential (the default), 0 = hardware
  /// concurrency.
  int num_threads = 1;
  /// Run independent groups concurrently over the dependency graph.
  bool task_parallel = true;
  /// Shard large groups over key-aligned row blocks of their sorted node
  /// relation (each top-level trie value in one shard), merging per-shard
  /// private maps afterwards.
  bool domain_parallel = true;
  /// Cost-model floor: a group is sharded only when its node relation has
  /// at least 2 * min_shard_rows rows, and never into shards smaller than
  /// min_shard_rows. Also the size of the blocks dealt to the shards.
  int64_t min_shard_rows = 4096;

  /// Resolved thread count (num_threads, or hardware concurrency when 0).
  int ResolvedThreads() const;
};

/// \brief Start-of-group information handed to the group runner by the
/// scheduler.
struct GroupStart {
  /// Seconds between the group becoming ready (all dependencies complete)
  /// and its runner starting — pool queueing delay.
  double wait_seconds = 0.0;
};

/// \brief Cost-based domain shard count for one group: bounded by the
/// relation size (rows / min_shard_rows), by the free thread slots (the
/// caller plus `free_threads` idle ones), and by the thread count.
/// `free_threads` counts the pass's threads not occupied by one of its
/// group runners or shard helpers (ExecutionContext::busy_threads_, a
/// per-pass ledger although passes share the Engine's pool). Returns 1
/// when domain parallelism is off or the relation is too small.
int ChooseShardCount(int64_t rows, const SchedulerOptions& options,
                     int free_threads);

/// \brief The engine's one scan-piece type: rows [lo, hi) of a group's
/// sorted node relation — a key-aligned block for a domain shard or a
/// shard of a split relation (ScanSplit, dist/shard_spec.h), or the whole
/// relation.
struct ShardRange {
  size_t lo = 0;
  size_t hi = 0;

  size_t rows() const { return hi - lo; }
};

/// \brief Cuts rows [0, rows) of a relation sorted on `keys` (its level-1
/// column) into at most `n` contiguous, non-empty row blocks: cut s moves
/// forward from the end of balanced row range s (rows / n rows, the first
/// rows % n ranges one more) to the end of its key run, so no key
/// straddles two ranges and each is within one key run of rows / n. An
/// empty relation yields the one range [0, 0) (and `keys` is not read).
std::vector<ShardRange> KeyAlignedRanges(const int64_t* keys, size_t rows,
                                         int n);

/// \brief Runs `run_group(group_id, start)` for every group, respecting the
/// dependency graph, using `pool` (or inline in topological order when pool
/// is null).
///
/// `run_group` is called at most once per group; groups whose dependencies
/// are complete run concurrently. The first non-OK status aborts scheduling
/// of further groups and is returned.
Status ScheduleGroupsTimed(
    const GroupedWorkload& grouped, ThreadPool* pool,
    const std::function<Status(int, const GroupStart&)>& run_group);

}  // namespace lmfao

#endif  // LMFAO_ENGINE_PARALLEL_H_
