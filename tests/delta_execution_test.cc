/// \file delta_execution_test.cc
/// \brief Incremental delta execution (PreparedBatch::ExecuteDelta), pinned
/// differentially: randomized append schedules must refresh results
/// bit-for-bit equal to a full recompute AND to the naive scan baseline
/// (exact: the generator emits integer-valued data whose sums stay well
/// below 2^53, so floating-point addition is associative on it), across
/// engine configurations; plus the epoch/watermark contract (appends keep
/// handles valid, pinned old-epoch executions are unaffected, non-append
/// mutations fail cleanly) and concurrent appends-vs-executes (exercised
/// under TSan by the tsan ctest preset).

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/join.h"
#include "baseline/naive_engine.h"
#include "data/favorita.h"
#include "differential_harness.h"
#include "engine/engine.h"
#include "exact_generator.h"
#include "storage/view_store.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace lmfao {
namespace {

using ::lmfao::testing::AppendRandomRows;
using ::lmfao::testing::AppendSchedule;
using ::lmfao::testing::ExactDatabase;
using ::lmfao::testing::ExpectResultsMatch;
using ::lmfao::testing::MakeExactBatch;
using ::lmfao::testing::MakeExactDatabase;

class DeltaFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaFuzzTest, RefreshMatchesRecomputeAndBaselineBitForBit) {
  struct Config {
    bool factorize = true;
    int threads = 1;
  };
  const std::vector<Config> configs = {
      {true, 1},   // Default: frozen sorted views (both layouts).
      {false, 1},  // Unfactorized leaf writes.
      {true, 3},   // Hybrid scheduler.
  };
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    Rng rng(GetParam() * 131 + ci);
    ExactDatabase db = MakeExactDatabase(&rng);
    const QueryBatch batch = MakeExactBatch(db, &rng);
    AppendSchedule schedule;
    // SCOPED_TRACE renders its message eagerly, so the seed-only trace
    // covers the pre-append assertions and each round re-scopes a trace
    // with the schedule recorded so far.
    LMFAO_REPRO_TRACE(GetParam() * 131 + ci);

    EngineOptions options;
    options.plan.factorize = configs[ci].factorize;
    options.scheduler.num_threads = configs[ci].threads;
    Engine engine(&db.catalog, &db.tree, options);
    auto prepared = engine.Prepare(batch);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

    const EpochSnapshot epoch0 = db.catalog.SnapshotEpoch();
    auto current = prepared->Execute();
    ASSERT_TRUE(current.ok()) << current.status().ToString();
    const BatchResult result0 = *current;

    for (int round = 0; round < 3; ++round) {
      ASSERT_NO_FATAL_FAILURE(AppendRandomRows(&db, &rng, &schedule));
      LMFAO_REPRO_TRACE(GetParam() * 131 + ci, schedule);
      auto refreshed = prepared->ExecuteDelta(*current);
      ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
      EXPECT_TRUE(refreshed->stats.delta_execution);

      // Oracle 1: full recompute through the same prepared handle.
      auto full = prepared->Execute();
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ExpectResultsMatch(refreshed->results, full->results, 0.0,
                         "round " + std::to_string(round) +
                             ": delta refresh vs full recompute");

      // Oracle 2: the naive scan baseline over the re-materialized join.
      auto joined = MaterializeJoin(db.catalog, db.tree, 0);
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      auto baseline = EvaluateBatchSharedScan(*joined, batch);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      ExpectResultsMatch(refreshed->results, *baseline, 0.0,
                         "round " + std::to_string(round) +
                             ": delta refresh vs scan baseline");

      current = std::move(refreshed);
    }

    // Epoch pinning: re-executing at the initial snapshot still returns
    // the initial results bit-for-bit, all appends notwithstanding.
    auto pinned = prepared->ExecuteAt(epoch0);
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    ExpectResultsMatch(pinned->results, result0.results, 0.0,
                       "pinned old-epoch execute");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaFuzzTest,
                         ::testing::Range<uint64_t>(1, 26));

/// Copies of existing rows of relation `r` with int column `col` moved to
/// `value`, so the appended rows still join on every other column.
std::vector<std::vector<Value>> RowsWithValue(const Relation& rel, int col,
                                              int64_t value, int n) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n && static_cast<size_t>(i) < rel.num_rows(); ++i) {
    std::vector<Value> row;
    for (int c = 0; c < rel.num_columns(); ++c) {
      row.push_back(c == col ? Value::Int(value)
                             : rel.ValueAt(static_cast<size_t>(i), c));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

class DeltaRangeTest : public ::testing::TestWithParam<uint64_t> {};

/// Direct-addressed outputs are sized from the epoch's value ranges, and
/// appends widen those ranges. A delta whose terms append rows outside the
/// base epoch's ranges (one term per changed relation, each widening a
/// different attribute), then a second refresh widening again, must still
/// equal a full Execute bit for bit; so must an Execute whose snapshot
/// ranges are forced to one value, so that every dense output converts to
/// hash mode in the middle of its scan.
TEST_P(DeltaRangeTest, WideningAppendsMatchFullExecuteExactly) {
  Rng rng(GetParam() * 977 + 5);
  ExactDatabase db = MakeExactDatabase(&rng);
  const QueryBatch batch = MakeExactBatch(db, &rng);
  LMFAO_REPRO_TRACE(GetParam() * 977 + 5);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  int dense = 0;
  for (const GroupStats& gs : base->stats.groups) dense += gs.dense_outputs;
  EXPECT_GT(dense, 0) << "no output was direct-addressed";

  // Widens one int column of relation `r` by `by` past its range.
  auto widen = [&](RelationId r, int64_t by) {
    const Relation& rel = db.catalog.relation(r);
    for (int c = 0; c < rel.num_columns(); ++c) {
      if (rel.column(c).type() != AttrType::kInt) continue;
      const AttrId a = rel.schema().attr(c);
      const int64_t value = db.catalog.attr_range(a).max + by;
      ASSERT_TRUE(
          db.catalog.AppendRows(r, RowsWithValue(rel, c, value, 4)).ok());
      ASSERT_EQ(db.catalog.attr_range(a).max, value);
      return;
    }
  };
  ASSERT_NO_FATAL_FAILURE(widen(0, 2));
  ASSERT_NO_FATAL_FAILURE(widen(db.catalog.num_relations() - 1, 3));
  auto refreshed = prepared->ExecuteDelta(*base);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed->stats.delta_passes, 2);
  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ExpectResultsMatch(refreshed->results, full->results, 0.0,
                     "two widening delta terms vs full execute");

  ASSERT_NO_FATAL_FAILURE(widen(1, 1));
  auto again = prepared->ExecuteDelta(*refreshed);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ExpectResultsMatch(again->results, full->results, 0.0,
                     "second widening refresh vs full execute");

  EpochSnapshot narrow = db.catalog.SnapshotEpoch();
  for (ValueRange& r : narrow.ranges) {
    if (r.known()) r.max = r.min;
  }
  auto converted = prepared->ExecuteAt(narrow);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  dense = 0;
  for (const GroupStats& gs : converted->stats.groups) {
    dense += gs.dense_outputs;
  }
  EXPECT_GT(dense, 0) << "no output started direct-addressed";
  ExpectResultsMatch(converted->results, full->results, 0.0,
                     "out-of-box keys vs full execute");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaRangeTest,
                         ::testing::Range<uint64_t>(1, 9));

class DeltaContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 1500});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
  }

  /// Appends `n` synthetic Sales rows that join with existing dimensions.
  void AppendSales(int n, uint64_t seed = 7) {
    Rng rng(seed);
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < n; ++i) {
      rows.push_back({Value::Int(rng.UniformInt(0, 89)),
                      Value::Int(rng.UniformInt(0, 17)),
                      Value::Int(rng.UniformInt(0, 399)),
                      Value::Double(static_cast<double>(
                          rng.UniformInt(1, 20))),
                      Value::Int(rng.UniformInt(0, 1))});
    }
    ASSERT_TRUE(data_->catalog.AppendRows(data_->sales, rows).ok());
  }

  std::unique_ptr<FavoritaData> data_;
};

TEST_F(DeltaContractTest, AppendKeepsHandlesValidAndDeltaMatchesRecompute) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  const QueryBatch batch = MakeExampleBatch(*data_);
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());

  AppendSales(150);

  // The handle survives the append (no InvalidateCaches) and a plain
  // Execute sees the appended rows.
  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  auto refreshed = prepared->ExecuteDelta(*base);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_TRUE(refreshed->stats.delta_execution);
  EXPECT_EQ(refreshed->stats.delta_passes, 1);
  EXPECT_EQ(refreshed->stats.delta_rows, 150u);
  EXPECT_GT(refreshed->stats.delta_dirty_groups, 0);
  // Favorita data has non-integer doubles, so base+delta vs one-pass
  // summation differ by rounding only.
  ExpectResultsMatch(refreshed->results, full->results, 1e-9,
                     "delta refresh vs full recompute");

  // A fresh engine (cold caches) agrees too.
  Engine cold(&data_->catalog, &data_->tree, EngineOptions{});
  auto cold_result = cold.Evaluate(batch);
  ASSERT_TRUE(cold_result.ok());
  ExpectResultsMatch(refreshed->results, cold_result->results, 1e-9,
                     "delta refresh vs cold engine");
}

TEST_F(DeltaContractTest, NoAppendsIsAZeroPassCopy) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());

  // An empty append commits an epoch but changes no watermark.
  ASSERT_TRUE(data_->catalog.AppendRows(data_->sales, {}).ok());

  auto refreshed = prepared->ExecuteDelta(*base);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_TRUE(refreshed->stats.delta_execution);
  EXPECT_EQ(refreshed->stats.delta_passes, 0);
  EXPECT_EQ(refreshed->stats.delta_rows, 0u);
  ExpectResultsMatch(refreshed->results, base->results, 0.0,
                     "zero-delta refresh");
}

TEST_F(DeltaContractTest, RepeatedRefreshFromOneBase) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());
  AppendSales(80);

  // ExecuteDelta is functional: the base is untouched, so refreshing from
  // it twice gives identical results.
  auto first = prepared->ExecuteDelta(*base);
  auto second = prepared->ExecuteDelta(*base);
  ASSERT_TRUE(first.ok() && second.ok());
  ExpectResultsMatch(first->results, second->results, 0.0,
                     "repeated refresh from one base");
  // And the refreshed result seeds further refreshes.
  AppendSales(40, /*seed=*/11);
  auto chained = prepared->ExecuteDelta(*first);
  auto full = prepared->Execute();
  ASSERT_TRUE(chained.ok() && full.ok());
  ExpectResultsMatch(chained->results, full->results, 1e-9,
                     "chained refresh vs full recompute");
}

TEST_F(DeltaContractTest, OneDeadlineCoversEveryDeltaTerm) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());
  AppendSales(50);
  auto mid = prepared->Execute();
  ASSERT_TRUE(mid.ok());
  ASSERT_TRUE(data_->catalog
                  .AppendRows(data_->oil, {{Value::Int(3), Value::Double(40)},
                                           {Value::Int(9), Value::Double(41)}})
                  .ok());

  // Every group start sleeps 25 ms, so a delta term costs about the same
  // every time: `mid` refreshes in one term (Oil), `base` in two (Sales,
  // then Oil). A deadline of 1.5 terms fits the first and not the second.
  const std::string ambient = Failpoints::CurrentSpec();
  ASSERT_TRUE(Failpoints::Configure("scheduler.spawn=delay:25").ok());
  const auto start = std::chrono::steady_clock::now();
  auto one_term = prepared->ExecuteDelta(*mid);
  const double term_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
  ASSERT_TRUE(one_term.ok()) << one_term.status().ToString();
  ASSERT_EQ(one_term->stats.delta_passes, 1);

  ExecLimits limits;
  limits.deadline_seconds = 1.5 * term_seconds;
  const size_t base_views = ViewStore::GlobalLiveViews();
  const size_t base_bytes = ViewStore::GlobalLiveBytes();
  auto fits = prepared->ExecuteDelta(*mid, ParamPack{}, limits);
  EXPECT_TRUE(fits.ok()) << fits.status().ToString();
  auto tripped = prepared->ExecuteDelta(*base, ParamPack{}, limits);
  ASSERT_FALSE(tripped.ok()) << "two terms ran under one term's deadline";
  EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded)
      << tripped.status().ToString();
  EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views);
  EXPECT_EQ(ViewStore::GlobalLiveBytes(), base_bytes);

  Failpoints::Clear();
  if (!ambient.empty()) ASSERT_TRUE(Failpoints::Configure(ambient).ok());
  Failpoints::ClearParked();
}

TEST_F(DeltaContractTest, StaleHandleAfterNonAppendMutation) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());

  // A structural mutation (simulated by its required InvalidateCaches
  // call) must fail ExecuteDelta with FailedPrecondition, distinctly from
  // appends, which keep the handle live.
  engine.InvalidateCaches();
  auto stale = prepared->ExecuteDelta(*base);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DeltaContractTest, ShrunkWatermarkFailsAsNonAppendMutation) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());

  // A base whose watermark exceeds the live relation means rows were
  // deleted behind the epoch API's back.
  BatchResult doctored = *base;
  doctored.epoch.rows[static_cast<size_t>(data_->sales)] += 10;
  auto refreshed = prepared->ExecuteDelta(doctored);
  EXPECT_FALSE(refreshed.ok());
  EXPECT_EQ(refreshed.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DeltaContractTest, MismatchedBaseIsRejected) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  const QueryBatch batch = MakeExampleBatch(*data_);
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());

  // Base from a different batch shape: artifact signature mismatch.
  QueryBatch other;
  {
    Query q;
    q.name = "count_only";
    q.aggregates.push_back(Aggregate::Count());
    other.Add(std::move(q));
  }
  auto other_prepared = engine.Prepare(other);
  ASSERT_TRUE(other_prepared.ok());
  auto other_base = other_prepared->Execute();
  ASSERT_TRUE(other_base.ok());
  auto mixed = prepared->ExecuteDelta(*other_base);
  EXPECT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DeltaContractTest, ParameterBindingsMustMatchTheBase) {
  QueryBatch batch;
  {
    Query q;
    q.name = "promo_units_by_family";
    q.group_by = {data_->family};
    q.aggregates.push_back(Aggregate(
        {Factor{data_->promo,
                Function::IndicatorParam(FunctionKind::kIndicatorEq, 0)},
         Factor{data_->units, Function::Identity()}}));
    batch.Add(std::move(q));
  }
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());

  ParamPack promo;
  promo.Set(0, 1.0);
  auto base = prepared->Execute(promo);
  ASSERT_TRUE(base.ok());
  AppendSales(60);

  // Different binding: not a delta of this base.
  ParamPack nonpromo;
  nonpromo.Set(0, 0.0);
  auto wrong = prepared->ExecuteDelta(*base, nonpromo);
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // Same binding: refresh matches the full parameterized recompute.
  auto refreshed = prepared->ExecuteDelta(*base, promo);
  auto full = prepared->Execute(promo);
  ASSERT_TRUE(refreshed.ok() && full.ok());
  ExpectResultsMatch(refreshed->results, full->results, 1e-9,
                     "parameterized delta refresh");
}

/// The concurrency pin of the epoch model: a writer thread appends while
/// reader threads execute pinned to the pre-append epoch; every pinned
/// result must be bit-identical to the pre-append reference (and the run
/// must be TSan-clean — this test is in the tsan preset filter).
TEST_F(DeltaContractTest, ConcurrentAppendsDoNotPerturbOldEpochExecutes) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());

  const EpochSnapshot epoch0 = data_->catalog.SnapshotEpoch();
  auto ref = prepared->ExecuteAt(epoch0);
  ASSERT_TRUE(ref.ok());

  constexpr int kReaders = 4;
  constexpr int kExecutesPerReader = 5;
  constexpr int kAppendBatches = 24;
  std::vector<std::vector<StatusOr<BatchResult>>> got(
      kReaders);

  std::thread writer([&] {
    Rng rng(99);
    for (int i = 0; i < kAppendBatches; ++i) {
      std::vector<std::vector<Value>> rows;
      for (int k = 0; k < 25; ++k) {
        rows.push_back({Value::Int(rng.UniformInt(0, 89)),
                        Value::Int(rng.UniformInt(0, 17)),
                        Value::Int(rng.UniformInt(0, 399)),
                        Value::Double(static_cast<double>(
                            rng.UniformInt(1, 20))),
                        Value::Int(rng.UniformInt(0, 1))});
      }
      LMFAO_CHECK(data_->catalog.AppendRows(data_->sales, rows).ok());
    }
  });
  {
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        for (int i = 0; i < kExecutesPerReader; ++i) {
          got[static_cast<size_t>(t)].push_back(
              prepared->ExecuteAt(epoch0));
        }
      });
    }
    for (std::thread& th : readers) th.join();
  }
  writer.join();

  for (int t = 0; t < kReaders; ++t) {
    for (const auto& result : got[static_cast<size_t>(t)]) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectResultsMatch(result->results, ref->results, 0.0,
                         "pinned execute during concurrent appends, thread " +
                             std::to_string(t));
    }
  }

  // All appends committed: a delta refresh of the pre-append result now
  // agrees with a full recompute.
  auto refreshed = prepared->ExecuteDelta(*ref);
  auto full = prepared->Execute();
  ASSERT_TRUE(refreshed.ok() && full.ok());
  EXPECT_EQ(refreshed->stats.delta_rows,
            static_cast<size_t>(kAppendBatches) * 25u);
  ExpectResultsMatch(refreshed->results, full->results, 1e-9,
                     "post-concurrency delta refresh");
}

/// A group whose trie order has no attribute of its relation reads the
/// relation in row order. Extending its cached snapshot across appends
/// (MergeSortedRelations on an empty order concatenates) must give the
/// bits a cold Engine computes, as must the delta refresh.
TEST(DeltaEmptyOrderTest, CachedSnapshotExtendsAcrossAppends) {
  Catalog catalog;
  const AttrId key = catalog.AddAttribute("k", AttrType::kInt).value();
  const AttrId val = catalog.AddAttribute("v", AttrType::kDouble).value();
  const RelationId rid = catalog.AddRelation("R", {"k", "v"}).value();
  Relation& rel = catalog.mutable_relation(rid);
  for (int i = 0; i < 40; ++i) {
    rel.AppendRowUnchecked(
        {Value::Int(i % 5), Value::Double(static_cast<double>(i % 9 - 4))});
  }
  catalog.RefreshDomainSizes();
  JoinTree tree = JoinTree::FromEdges(catalog, {}).value();

  Query q;
  q.name = "global";
  q.aggregates.push_back(Aggregate({Factor{val, Function::Identity()}}));
  q.aggregates.push_back(Aggregate({Factor{val, Function::Square()},
                                    Factor{key, Function::Identity()}}));
  q.aggregates.push_back(Aggregate::Count());
  QueryBatch batch;
  batch.Add(std::move(q));

  Engine engine(&catalog, &tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  for (const std::vector<AttrId>& order : prepared->compiled().attr_orders) {
    ASSERT_TRUE(order.empty()) << "recipe has a trie attribute";
  }
  auto base = prepared->Execute();  // Caches the snapshot at 40 rows.
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < 7; ++i) {
      rows.push_back({Value::Int((i + round) % 5),
                      Value::Double(static_cast<double>(i * 3 - 10))});
    }
    ASSERT_TRUE(catalog.AppendRows(rid, rows).ok());

    auto extended = prepared->Execute();
    auto refreshed = prepared->ExecuteDelta(*base);
    Engine cold(&catalog, &tree, EngineOptions{});
    auto want = cold.Evaluate(batch);
    ASSERT_TRUE(extended.ok()) << extended.status().ToString();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const std::string label = "round " + std::to_string(round);
    ExpectResultsMatch(extended->results, want->results, 0.0,
                       label + ": extended snapshot vs cold engine");
    ExpectResultsMatch(refreshed->results, want->results, 0.0,
                       label + ": delta refresh vs cold engine");
  }
}

/// A refresh of two grown relations runs two terms, each one pass over
/// every group: the call's stats hold one record per group per term, term
/// by term, and its degraded count is the sum over those records.
TEST(DeltaStatsTest, TwoTermRefreshHoldsEveryTermsGroupRecords) {
  Rng rng(4711);
  ExactDatabase db = MakeExactDatabase(&rng);
  const QueryBatch batch = MakeExactBatch(db, &rng);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  // Grow relations 0 and 1 by copies of their own (integer) rows.
  for (RelationId r : {0, 1}) {
    const Relation& rel = db.catalog.relation(r);
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < 4; ++i) {
      std::vector<Value> row;
      for (int c = 0; c < rel.num_columns(); ++c) {
        row.push_back(rel.ValueAt(i % rel.num_rows(), c));
      }
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(db.catalog.AppendRows(r, rows).ok());
  }

  auto refreshed = prepared->ExecuteDelta(*base);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  const ExecutionStats& st = refreshed->stats;
  ASSERT_EQ(st.delta_passes, 2);
  const size_t num_groups = static_cast<size_t>(st.num_groups);
  ASSERT_EQ(st.groups.size(), 2 * num_groups);
  int degraded = 0;
  for (size_t i = 0; i < st.groups.size(); ++i) {
    EXPECT_EQ(st.groups[i].group_id, static_cast<int>(i % num_groups))
        << "record " << i;
    degraded += st.groups[i].degraded ? 1 : 0;
  }
  EXPECT_EQ(st.degraded_groups, degraded);

  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ExpectResultsMatch(refreshed->results, full->results, 0.0,
                     "two-term refresh vs full execute");
}

}  // namespace
}  // namespace lmfao
