/// \file bench_parallel.cc
/// \brief Experiment E9: task and domain parallelism (Section 2: "LMFAO
/// computes the groups in parallel by exploiting both task and domain
/// parallelism").
///
/// Thread scaling of the Retailer covariance batch under the unified
/// scheduler: the hybrid task+domain default swept over {1, 2, 4, hw}
/// threads, plus the task-only and domain-only degenerations for
/// comparison. Every benchmark reports `speedup`: the summed time of
/// sequential-Engine evaluations, one interleaved with each timed
/// iteration (outside the timed region), over the summed time of the
/// iterations, so both sides see the same host load. It also reports
/// `peak_view_mib` (the ViewStore peak) so memory can be attributed
/// alongside the speedup. Iterations are sized by wall time
/// (UseRealTime): the calling thread's CPU time is a sliver of a parallel
/// evaluation's.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/engine.h"
#include "util/timer.h"

namespace lmfao {
namespace {

constexpr int64_t kRows = 200000;

void RunScheduler(benchmark::State& state, bool task, bool domain,
                  int threads) {
  RetailerData& db = bench::Retailer(kRows);
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  EngineOptions options;
  options.scheduler.num_threads = threads;
  options.scheduler.task_parallel = task;
  options.scheduler.domain_parallel = domain;
  Engine engine(&db.catalog, &db.tree, options);
  Engine sequential(&db.catalog, &db.tree, EngineOptions{});
  // Populate both engines' sort caches.
  LMFAO_CHECK(engine.Evaluate(cov->batch).ok());
  LMFAO_CHECK(sequential.Evaluate(cov->batch).ok());
  double seconds = 0.0;
  double sequential_seconds = 0.0;
  ExecutionStats peak_stats;
  for (auto _ : state) {
    Timer timer;
    auto result = engine.Evaluate(cov->batch);
    seconds += timer.ElapsedSeconds();
    LMFAO_CHECK(result.ok()) << result.status().ToString();
    if (result->stats.peak_view_bytes >= peak_stats.peak_view_bytes) {
      peak_stats = result->stats;
    }
    benchmark::DoNotOptimize(result);

    state.PauseTiming();
    timer.Reset();
    auto baseline = sequential.Evaluate(cov->batch);
    sequential_seconds += timer.ElapsedSeconds();
    LMFAO_CHECK(baseline.ok()) << baseline.status().ToString();
    state.ResumeTiming();
  }
  state.counters["threads"] = options.scheduler.ResolvedThreads();
  state.counters["queries"] = cov->batch.size();
  state.counters["speedup"] = seconds > 0.0 ? sequential_seconds / seconds
                                            : 0.0;
  bench::ExportViewMemoryCounters(state, peak_stats);
}

void BM_Parallel_Sequential(benchmark::State& state) {
  RunScheduler(state, /*task=*/false, /*domain=*/false, 1);
}
BENCHMARK(BM_Parallel_Sequential)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0)
    ->UseRealTime();

/// The default parallel path: task + domain combined. Sweeps 1, 2, 4, and
/// hardware-concurrency (arg 0) threads.
void BM_Parallel_Hybrid(benchmark::State& state) {
  RunScheduler(state, /*task=*/true, /*domain=*/true,
               static_cast<int>(state.range(0)));
}
BENCHMARK(BM_Parallel_Hybrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)  // Hardware concurrency.
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0)
    ->UseRealTime();

void BM_Parallel_TaskOnly(benchmark::State& state) {
  RunScheduler(state, /*task=*/true, /*domain=*/false,
               static_cast<int>(state.range(0)));
}
BENCHMARK(BM_Parallel_TaskOnly)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0)
    ->UseRealTime();

void BM_Parallel_DomainOnly(benchmark::State& state) {
  RunScheduler(state, /*task=*/false, /*domain=*/true,
               static_cast<int>(state.range(0)));
}
BENCHMARK(BM_Parallel_DomainOnly)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0)
    ->UseRealTime();

}  // namespace
}  // namespace lmfao
