/// \file bench_common.h
/// \brief Shared fixtures for the benchmark binaries: lazily-built dataset
/// instances (one per scale) and small helpers. Each binary regenerates one
/// experiment of EXPERIMENTS.md.

#ifndef LMFAO_BENCH_BENCH_COMMON_H_
#define LMFAO_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "baseline/join.h"
#include "data/favorita.h"
#include "data/retailer.h"
#include "engine/engine.h"
#include "ml/feature.h"
#include "util/logging.h"

namespace lmfao {
namespace bench {

/// Favorita instance cache, keyed by number of sales rows.
inline FavoritaData& Favorita(int64_t num_sales) {
  static std::map<int64_t, std::unique_ptr<FavoritaData>> cache;
  auto it = cache.find(num_sales);
  if (it == cache.end()) {
    FavoritaOptions options;
    options.num_sales = num_sales;
    options.num_dates = 366;
    options.num_stores = 54;
    options.num_items = 4000;
    auto data = MakeFavorita(options);
    LMFAO_CHECK(data.ok()) << data.status().ToString();
    it = cache.emplace(num_sales, std::move(data).value()).first;
  }
  return *it->second;
}

/// Retailer instance cache, keyed by number of inventory rows.
inline RetailerData& Retailer(int64_t num_inventory) {
  static std::map<int64_t, std::unique_ptr<RetailerData>> cache;
  auto it = cache.find(num_inventory);
  if (it == cache.end()) {
    RetailerOptions options;
    options.num_inventory = num_inventory;
    options.num_locations = 100;
    options.num_dates = 200;
    options.num_items = 2000;
    options.num_zips = 50;
    auto data = MakeRetailer(options);
    LMFAO_CHECK(data.ok()) << data.status().ToString();
    it = cache.emplace(num_inventory, std::move(data).value()).first;
  }
  return *it->second;
}

/// Materialized join cache for the baselines.
inline const Relation& FavoritaJoin(int64_t num_sales) {
  static std::map<int64_t, std::unique_ptr<Relation>> cache;
  auto it = cache.find(num_sales);
  if (it == cache.end()) {
    FavoritaData& db = Favorita(num_sales);
    auto joined = MaterializeJoin(db.catalog, db.tree, db.sales);
    LMFAO_CHECK(joined.ok()) << joined.status().ToString();
    it = cache
             .emplace(num_sales,
                      std::make_unique<Relation>(std::move(joined).value()))
             .first;
  }
  return *it->second;
}

inline const Relation& RetailerJoin(int64_t num_inventory) {
  static std::map<int64_t, std::unique_ptr<Relation>> cache;
  auto it = cache.find(num_inventory);
  if (it == cache.end()) {
    RetailerData& db = Retailer(num_inventory);
    auto joined = MaterializeJoin(db.catalog, db.tree, db.inventory);
    LMFAO_CHECK(joined.ok()) << joined.status().ToString();
    it = cache
             .emplace(num_inventory,
                      std::make_unique<Relation>(std::move(joined).value()))
             .first;
  }
  return *it->second;
}

/// The paper's Retailer learning task.
inline FeatureSet RetailerFeatures(const RetailerData& db) {
  FeatureSet features;
  features.label = db.inventoryunits;
  for (AttrId a : db.continuous) {
    if (a != db.inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = db.categorical;
  return features;
}

/// Exports the ViewStore peak-memory counters (total plus the key/payload
/// split) from one evaluation's stats, so memory wins in the key layout are
/// attributable from every engine benchmark.
inline void ExportViewMemoryCounters(benchmark::State& state,
                                     const ExecutionStats& stats) {
  constexpr double kMiB = 1024.0 * 1024.0;
  state.counters["peak_view_mib"] =
      static_cast<double>(stats.peak_view_bytes) / kMiB;
  state.counters["peak_key_mib"] =
      static_cast<double>(stats.peak_view_key_bytes) / kMiB;
  state.counters["peak_payload_mib"] =
      static_cast<double>(stats.peak_view_payload_bytes) / kMiB;
}

/// Exports the compile/execute timing split of one evaluation: compile_ms
/// is the optimization-layer time the call actually paid (~0 on plan-cache
/// hits and prepared executes), execute_ms the execution layer. Makes
/// compile amortization visible in the uploaded BENCH_*.json.
inline void ExportTimingCounters(benchmark::State& state,
                                 const ExecutionStats& stats) {
  state.counters["compile_ms"] = stats.compile_seconds * 1e3;
  state.counters["execute_ms"] = stats.execute_seconds * 1e3;
}

/// Exports the resource-governance counter of one evaluation: how many
/// groups survived a memory trip by their serial retry (a trip nothing
/// recovers fails the call). The bench-smoke CI job greps it out of the
/// uploaded BENCH_*.json — an untripped governed run must report zero.
inline void ExportLimitCounters(benchmark::State& state,
                                const ExecutionStats& stats) {
  state.counters["degraded_groups"] = stats.degraded_groups;
}

/// A Favorita learning task (for covariance/e2e benches).
inline FeatureSet FavoritaFeatures(const FavoritaData& db) {
  FeatureSet features;
  features.label = db.units;
  features.continuous = {db.txns, db.price};
  features.categorical = {db.stype, db.family, db.promo, db.cluster};
  return features;
}

}  // namespace bench
}  // namespace lmfao

#endif  // LMFAO_BENCH_BENCH_COMMON_H_
