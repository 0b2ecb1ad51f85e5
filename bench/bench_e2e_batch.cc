/// \file bench_e2e_batch.cc
/// \brief Experiment E4: LMFAO versus the join-then-aggregate baselines,
/// end to end (the Section 1 claim that batch evaluation over the
/// non-materialized join outperforms mainstream pipelines).
///
/// Three engines per workload:
///   - LMFAO (this repository's engine, join never materialized),
///   - materialize-join + one shared scan for the whole batch,
///   - materialize-join + one scan per query.
/// The baselines are charged for the materialization (they need D), with
/// the join executed bottom-up over the same join tree (hash joins).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>

#include "baseline/naive_engine.h"
#include "bench_common.h"
#include "engine/engine.h"
#include "util/random.h"

namespace lmfao {
namespace {

constexpr int64_t kFavoritaRows = 400000;
constexpr int64_t kRetailerRows = 200000;

void BM_E2E_Favorita_Lmfao(benchmark::State& state) {
  FavoritaData& db = bench::Favorita(kFavoritaRows);
  const QueryBatch batch = MakeExampleBatch(db);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  for (auto _ : state) {
    auto result = engine.Evaluate(batch);
    LMFAO_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.counters["queries"] = batch.size();
}
BENCHMARK(BM_E2E_Favorita_Lmfao)->Unit(benchmark::kMillisecond);

void BM_E2E_Favorita_MaterializeSharedScan(benchmark::State& state) {
  FavoritaData& db = bench::Favorita(kFavoritaRows);
  const QueryBatch batch = MakeExampleBatch(db);
  for (auto _ : state) {
    auto joined = MaterializeJoin(db.catalog, db.tree, db.sales);
    LMFAO_CHECK(joined.ok());
    auto results = EvaluateBatchSharedScan(*joined, batch);
    LMFAO_CHECK(results.ok());
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_E2E_Favorita_MaterializeSharedScan)
    ->Unit(benchmark::kMillisecond);

void BM_E2E_Favorita_MaterializePerQueryScan(benchmark::State& state) {
  FavoritaData& db = bench::Favorita(kFavoritaRows);
  const QueryBatch batch = MakeExampleBatch(db);
  for (auto _ : state) {
    auto joined = MaterializeJoin(db.catalog, db.tree, db.sales);
    LMFAO_CHECK(joined.ok());
    auto results = EvaluateBatchPerQueryScan(*joined, batch);
    LMFAO_CHECK(results.ok());
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_E2E_Favorita_MaterializePerQueryScan)
    ->Unit(benchmark::kMillisecond);

/// The large-batch regime the paper targets: the full covariance batch.
/// Single-threaded; `peak_view_mib` (with its key/payload split) is the
/// headline memory number of the packed columnar key layout. One-shot
/// Evaluate on a long-lived engine: after the first iteration the
/// structural plan cache serves the compiled artifact, so compile_ms
/// collapses to the signature hash — the counters make the amortization
/// visible.
void BM_E2E_RetailerCovariance_Lmfao(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRetailerRows);
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  ExecutionStats stats;
  for (auto _ : state) {
    auto result = engine.Evaluate(cov->batch);
    LMFAO_CHECK(result.ok());
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["queries"] = cov->batch.size();
  bench::ExportViewMemoryCounters(state, stats);
  bench::ExportTimingCounters(state, stats);
}
BENCHMARK(BM_E2E_RetailerCovariance_Lmfao)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

/// Prepared-execute-only: the batch is compiled ONCE outside the timed
/// loop and each iteration runs only the execution layer — the
/// compile-once/execute-many contract of Engine::Prepare, and the regime
/// a server answering repeated covariance traffic lives in.
void BM_E2E_RetailerCovariance_LmfaoPreparedExecute(
    benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRetailerRows);
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(cov->batch);
  LMFAO_CHECK(prepared.ok());
  ExecutionStats stats;
  for (auto _ : state) {
    auto result = prepared->Execute();
    LMFAO_CHECK(result.ok());
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["queries"] = cov->batch.size();
  state.counters["prepare_ms"] = prepared->compile_seconds() * 1e3;
  bench::ExportViewMemoryCounters(state, stats);
  bench::ExportTimingCounters(state, stats);
}
BENCHMARK(BM_E2E_RetailerCovariance_LmfaoPreparedExecute)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

/// PreparedExecute with generous-but-armed ExecLimits: identical work to
/// the ungoverned variant above, except every group boundary, publish,
/// and (amortized) trie match also consults the pass's CancelToken. The
/// pair quantifies the governance overhead — the acceptance bar is <2%
/// versus BM_E2E_RetailerCovariance_LmfaoPreparedExecute — and the
/// exported degraded_groups counter must stay zero.
void BM_E2E_RetailerCovariance_LmfaoPreparedExecuteLimitOverhead(
    benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRetailerRows);
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(cov->batch);
  LMFAO_CHECK(prepared.ok());
  ExecLimits limits;
  limits.deadline_seconds = 3600.0;
  limits.max_view_bytes = size_t{1} << 40;
  ExecutionStats stats;
  for (auto _ : state) {
    auto result = prepared->Execute(ParamPack{}, limits);
    LMFAO_CHECK(result.ok()) << result.status().ToString();
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["queries"] = cov->batch.size();
  bench::ExportTimingCounters(state, stats);
  bench::ExportLimitCounters(state, stats);
}
BENCHMARK(BM_E2E_RetailerCovariance_LmfaoPreparedExecuteLimitOverhead)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

/// Cold-compile reference: a fresh engine per iteration pays all three
/// optimization layers (and the relation sorts) every time — what every
/// evaluation cost before the Prepare/Execute split.
void BM_E2E_RetailerCovariance_LmfaoColdCompile(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRetailerRows);
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  ExecutionStats stats;
  for (auto _ : state) {
    Engine engine(&db.catalog, &db.tree, EngineOptions{});
    auto result = engine.Evaluate(cov->batch);
    LMFAO_CHECK(result.ok());
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }
  state.counters["queries"] = cov->batch.size();
  bench::ExportTimingCounters(state, stats);
}
BENCHMARK(BM_E2E_RetailerCovariance_LmfaoColdCompile)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

/// The same batch under the hybrid task+domain scheduler at 4 threads (the
/// acceptance target: >= 1.5x over the seed's task-only mode, with lower
/// peak view memory — see the peak_view_mib counter).
void BM_E2E_RetailerCovariance_LmfaoHybrid4(benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRetailerRows);
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  EngineOptions options;
  options.scheduler.num_threads = 4;
  Engine engine(&db.catalog, &db.tree, options);
  ExecutionStats peak_stats;
  for (auto _ : state) {
    auto result = engine.Evaluate(cov->batch);
    LMFAO_CHECK(result.ok());
    if (result->stats.peak_view_bytes >= peak_stats.peak_view_bytes) {
      peak_stats = result->stats;
    }
    benchmark::DoNotOptimize(result);
  }
  state.counters["queries"] = cov->batch.size();
  bench::ExportViewMemoryCounters(state, peak_stats);
  bench::ExportTimingCounters(state, peak_stats);
}
BENCHMARK(BM_E2E_RetailerCovariance_LmfaoHybrid4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

/// A private Retailer instance per append fraction, with `permille`/1000
/// of Inventory appended through the epoch API on top of the base rows
/// (the shared bench::Retailer cache must stay append-free for the other
/// benchmarks in this binary). `epoch0` pins the pre-append state so
/// every invocation can rebuild the same delta base via ExecuteAt.
struct DeltaRetailerInstance {
  std::unique_ptr<RetailerData> db;
  EpochSnapshot epoch0;
};

DeltaRetailerInstance& DeltaRetailer(int64_t permille) {
  static std::map<int64_t, std::unique_ptr<DeltaRetailerInstance>> cache;
  auto it = cache.find(permille);
  if (it == cache.end()) {
    RetailerOptions options;
    options.num_inventory = kRetailerRows;
    options.num_locations = 100;
    options.num_dates = 200;
    options.num_items = 2000;
    options.num_zips = 50;
    auto data = MakeRetailer(options);
    LMFAO_CHECK(data.ok()) << data.status().ToString();
    auto instance = std::make_unique<DeltaRetailerInstance>();
    instance->db = std::move(data).value();
    instance->epoch0 = instance->db->catalog.SnapshotEpoch();
    const int64_t to_append = kRetailerRows * permille / 1000;
    Rng rng(static_cast<uint64_t>(permille) + 17);
    std::vector<std::vector<Value>> rows;
    rows.reserve(static_cast<size_t>(to_append));
    for (int64_t i = 0; i < to_append; ++i) {
      rows.push_back({Value::Int(rng.UniformInt(0, 99)),
                      Value::Int(rng.UniformInt(0, 199)),
                      Value::Int(rng.UniformInt(0, 1999)),
                      Value::Double(rng.UniformDouble(0.0, 50.0))});
    }
    LMFAO_CHECK(instance->db->catalog
                    .AppendRows(instance->db->inventory, rows)
                    .ok());
    it = cache.emplace(permille, std::move(instance)).first;
  }
  return *it->second;
}

/// Incremental refresh of the covariance batch after appending
/// 0.1%/1%/10% of Inventory (Arg is permille). The appends happen once,
/// outside the timed loop; each iteration refreshes the SAME pre-append
/// base result via ExecuteDelta (the base is untouched, so iterations are
/// identical work). The headline ratio is delta_ms vs execute_ms — the
/// delta pass against a full prepared Execute at the appended epoch.
void BM_E2E_RetailerCovariance_DeltaRefresh(benchmark::State& state) {
  DeltaRetailerInstance& instance = DeltaRetailer(state.range(0));
  RetailerData& db = *instance.db;
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(cov->batch);
  LMFAO_CHECK(prepared.ok());
  auto base = prepared->ExecuteAt(instance.epoch0);
  LMFAO_CHECK(base.ok());
  auto full = prepared->Execute();  // Full recompute at the new epoch.
  LMFAO_CHECK(full.ok());
  ExecutionStats delta_stats;
  for (auto _ : state) {
    auto refreshed = prepared->ExecuteDelta(*base);
    LMFAO_CHECK(refreshed.ok());
    delta_stats = refreshed->stats;
    benchmark::DoNotOptimize(refreshed);
  }
  state.counters["queries"] = cov->batch.size();
  state.counters["appended_rows"] =
      static_cast<double>(delta_stats.delta_rows);
  state.counters["delta_ms"] = delta_stats.execute_seconds * 1e3;
  state.counters["execute_ms"] = full->stats.execute_seconds * 1e3;
}
BENCHMARK(BM_E2E_RetailerCovariance_DeltaRefresh)
    ->Arg(1)    // 0.1% of Inventory.
    ->Arg(10)   // 1%.
    ->Arg(100)  // 10%.
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

void BM_E2E_RetailerCovariance_MaterializeSharedScan(
    benchmark::State& state) {
  RetailerData& db = bench::Retailer(kRetailerRows);
  auto cov = BuildCovarianceBatch(bench::RetailerFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  for (auto _ : state) {
    auto joined = MaterializeJoin(db.catalog, db.tree, db.inventory);
    LMFAO_CHECK(joined.ok());
    auto results = EvaluateBatchSharedScan(*joined, cov->batch);
    LMFAO_CHECK(results.ok());
    benchmark::DoNotOptimize(results);
  }
  state.counters["queries"] = cov->batch.size();
}
BENCHMARK(BM_E2E_RetailerCovariance_MaterializeSharedScan)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

/// Scaling in the number of sales rows, LMFAO only (shape: near-linear).
void BM_E2E_FavoritaCovariance_LmfaoScaling(benchmark::State& state) {
  FavoritaData& db = bench::Favorita(state.range(0));
  auto cov = BuildCovarianceBatch(bench::FavoritaFeatures(db), db.catalog);
  LMFAO_CHECK(cov.ok());
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  for (auto _ : state) {
    auto result = engine.Evaluate(cov->batch);
    LMFAO_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
  state.counters["queries"] = cov->batch.size();
}
BENCHMARK(BM_E2E_FavoritaCovariance_LmfaoScaling)
    ->Arg(100000)
    ->Arg(400000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lmfao
