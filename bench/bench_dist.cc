/// \file bench_dist.cc
/// \brief Sharded distributed execution: the shard sweep over the Retailer
/// covariance batch (Arg = shard count).
///
/// ExecuteSharded is one pass: only the groups at the partitioned
/// relation's node scan once per shard, and every other group runs once.
/// Its work should therefore stay close to one unsharded Execute at every
/// shard count. work_ratio pins that: the sharded call's CPU time over the
/// CPU time of an unsharded Execute interleaved with it in the same loop
/// (a ratio measured inside one process, so host noise cancels).
/// group_runs counts the group executions per call (its group records) —
/// the batch's group count, whatever the shard count. The remaining
/// counters show the coordination tax: merge_ms plus the exchange volume,
/// which a real deployment pays on top of its workers, and
/// merge_overhead_pct, the coordinator merge time as a fraction of the
/// unsharded execute, with shard_skew showing how balanced the row-range
/// split is.

#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>

#include "bench_common.h"
#include "engine/engine.h"

namespace lmfao {
namespace {

constexpr int64_t kRetailerRows = 200000;

/// CPU seconds of the whole process (every thread).
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void BM_Dist_RetailerCovariance_ShardSweep(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRetailerRows);
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(cov->batch);
  LMFAO_CHECK(prepared.ok());

  const int shards = static_cast<int>(state.range(0));
  ExecutionStats stats;
  ExecutionStats full_stats;
  double sharded_cpu = 0.0;
  double unsharded_cpu = 0.0;
  for (auto _ : state) {
    const double c0 = CpuSeconds();
    auto result = prepared->ExecuteSharded(shards);
    const double c1 = CpuSeconds();
    LMFAO_CHECK(result.ok()) << result.status().ToString();
    stats = result->stats;
    benchmark::DoNotOptimize(result);
    // The unsharded reference, interleaved and untimed.
    state.PauseTiming();
    const double c2 = CpuSeconds();
    auto full = prepared->Execute();
    const double c3 = CpuSeconds();
    LMFAO_CHECK(full.ok()) << full.status().ToString();
    full_stats = full->stats;
    state.ResumeTiming();
    sharded_cpu += c1 - c0;
    unsharded_cpu += c3 - c2;
  }

  state.counters["queries"] = cov->batch.size();
  state.counters["shards"] = stats.dist_shard_stats.size();
  state.counters["execute_ms"] = stats.execute_seconds * 1e3;
  state.counters["work_ratio"] =
      unsharded_cpu > 0.0 ? sharded_cpu / unsharded_cpu : 0.0;
  state.counters["group_runs"] = stats.groups.size();
  state.counters["merge_ms"] = stats.merge_seconds * 1e3;
  state.counters["exchange_bytes"] =
      static_cast<double>(stats.exchange_bytes);
  state.counters["shard_skew"] =
      stats.shard_mean_seconds > 0.0
          ? stats.shard_max_seconds / stats.shard_mean_seconds
          : 1.0;
  state.counters["merge_overhead_pct"] =
      full_stats.execute_seconds > 0.0
          ? 100.0 * stats.merge_seconds / full_stats.execute_seconds
          : 0.0;
}
BENCHMARK(BM_Dist_RetailerCovariance_ShardSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

/// The exchange path in isolation: per-shard encode + coordinator decode/
/// fold amortized over the sweep is hard to read from the end-to-end
/// numbers, so this variant executes at a fixed shard count while the
/// per-shard wire volume scales with the group-by arity of the heaviest
/// query in the batch.
void BM_Dist_FavoritaExample_ShardSweep(benchmark::State& state) {
  FavoritaData& db = bench::Favorita(400000);
  const QueryBatch batch = MakeExampleBatch(db);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  LMFAO_CHECK(prepared.ok());

  const int shards = static_cast<int>(state.range(0));
  ExecutionStats stats;
  for (auto _ : state) {
    auto result = prepared->ExecuteSharded(shards);
    LMFAO_CHECK(result.ok()) << result.status().ToString();
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["queries"] = batch.size();
  state.counters["shards"] = stats.dist_shard_stats.size();
  state.counters["merge_ms"] = stats.merge_seconds * 1e3;
  state.counters["exchange_bytes"] =
      static_cast<double>(stats.exchange_bytes);
}
BENCHMARK(BM_Dist_FavoritaExample_ShardSweep)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

}  // namespace
}  // namespace lmfao
