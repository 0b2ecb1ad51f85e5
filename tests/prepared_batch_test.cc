/// \file prepared_batch_test.cc
/// \brief The Prepare/Execute engine surface: differential parity with
/// one-shot Evaluate (including re-Execute and param re-binding), the
/// structural plan cache, stale-handle semantics after InvalidateCaches,
/// compile options in the artifact signature, concurrent Executes of one
/// handle, concurrent passes of every kind on one Engine's worker pool,
/// InvalidateCaches racing Executes, and Prepares racing appends (the
/// concurrent cases run under TSan in the tsan ctest preset).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/naive_engine.h"
#include "data/favorita.h"
#include "differential_harness.h"
#include "engine/engine.h"
#include "exact_generator.h"
#include "util/random.h"

namespace lmfao {
namespace {

using ::lmfao::testing::ExpectResultsMatch;

class PreparedBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
  }

  /// A batch whose indicator thresholds are parameter slots p0 (promo
  /// equality) and p1 (price upper bound).
  QueryBatch MakeParameterizedBatch() const {
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
    {
      Query q;
      q.name = "cheap_sales_by_store";
      q.group_by = {data_->store};
      q.aggregates.push_back(Aggregate(
          {Factor{data_->price,
                  Function::IndicatorParam(FunctionKind::kIndicatorLe, 1)}}));
      q.aggregates.push_back(Aggregate::Count());
      batch.Add(std::move(q));
    }
    return batch;
  }

  std::unique_ptr<FavoritaData> data_;
};

TEST_F(PreparedBatchTest, ExecuteMatchesEvaluateBitForBit) {
  const QueryBatch batch = MakeExampleBatch(*data_);
  Engine eval_engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto evaluated = eval_engine.Evaluate(batch);
  ASSERT_TRUE(evaluated.ok());

  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->valid());
  EXPECT_TRUE(prepared->required_params().empty());

  // Execute twice: both bit-identical to the one-shot result.
  for (int run = 0; run < 2; ++run) {
    auto executed = prepared->Execute();
    ASSERT_TRUE(executed.ok());
    ExpectResultsMatch(executed->results, evaluated->results, 0.0,
                       "prepared execute run " + std::to_string(run) +
                           " vs one-shot evaluate");
    // A prepared Execute pays no compile.
    EXPECT_EQ(executed->stats.compile_seconds, 0.0);
    EXPECT_TRUE(executed->stats.plan_cache_hit);
    EXPECT_GT(executed->stats.num_groups, 0);
  }
}

TEST_F(PreparedBatchTest, ParamRebindMatchesBoundEvaluate) {
  const QueryBatch batch = MakeParameterizedBatch();
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());
  ASSERT_EQ(prepared->required_params(), (std::vector<ParamId>{0, 1}));

  // Re-bind the same compiled artifact with different constants; each run
  // must match a one-shot Evaluate of the literal (bound) batch.
  const double promo_values[] = {1.0, 0.0};
  const double price_bounds[] = {20.0, 55.5};
  for (int i = 0; i < 2; ++i) {
    ParamPack params;
    params.Set(0, promo_values[i]);
    params.Set(1, price_bounds[i]);
    auto executed = prepared->Execute(params);
    ASSERT_TRUE(executed.ok());

    auto bound = batch.Bind(params);
    ASSERT_TRUE(bound.ok());
    Engine fresh(&data_->catalog, &data_->tree, EngineOptions{});
    auto evaluated = fresh.Evaluate(*bound);
    ASSERT_TRUE(evaluated.ok());
    ExpectResultsMatch(executed->results, evaluated->results, 0.0,
                       "binding " + std::to_string(i) +
                           " vs bound evaluate");
  }
}

TEST_F(PreparedBatchTest, UnboundParamFailsCleanly) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeParameterizedBatch());
  ASSERT_TRUE(prepared.ok());
  ParamPack partial;
  partial.Set(0, 1.0);  // p1 missing.
  auto executed = prepared->Execute(partial);
  EXPECT_FALSE(executed.ok());
  EXPECT_EQ(executed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PreparedBatchTest, StaleHandleAfterInvalidateCaches) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  const QueryBatch batch = MakeExampleBatch(*data_);
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute().ok());

  engine.InvalidateCaches();
  auto stale = prepared->Execute();
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);

  // Re-Prepare against the current generation works and recompiles.
  auto again = engine.Prepare(batch);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->from_cache());
  EXPECT_TRUE(again->Execute().ok());
}

TEST_F(PreparedBatchTest, AppendsKeepHandlesLiveInvalidateDoesNot) {
  // The two mutation classes are distinct: Catalog::Append advances the
  // epoch but does NOT invalidate prepared handles (Execute sees the new
  // rows, ExecuteDelta folds them in); a structural mutation signalled via
  // InvalidateCaches strands the handle for both entry points.
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  const QueryBatch batch = MakeExampleBatch(*data_);
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());
  const uint64_t epoch_before = data_->catalog.append_epoch();

  ASSERT_TRUE(data_->catalog
                  .AppendRows(data_->sales,
                              {{Value::Int(3), Value::Int(7), Value::Int(11),
                                Value::Double(5.0), Value::Int(1)}})
                  .ok());
  EXPECT_GT(data_->catalog.append_epoch(), epoch_before);

  EXPECT_TRUE(prepared->valid());
  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto refreshed = prepared->ExecuteDelta(*base);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ExpectResultsMatch(refreshed->results, full->results, 1e-9,
                     "post-append delta refresh vs full execute");

  engine.InvalidateCaches();
  auto stale_execute = prepared->Execute();
  EXPECT_EQ(stale_execute.status().code(), StatusCode::kFailedPrecondition);
  auto stale_delta = prepared->ExecuteDelta(*refreshed);
  EXPECT_EQ(stale_delta.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PreparedBatchTest, PlanCacheSharesStructurallyEqualShapes) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  const QueryBatch batch = MakeParameterizedBatch();
  auto first = engine.Prepare(batch);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache());

  // The identical shape (rebuilt from scratch) hits the cache.
  auto second = engine.Prepare(MakeParameterizedBatch());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache());
  EXPECT_EQ(second->signature(), first->signature());

  const Engine::PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // A literal batch with baked thresholds is a different structure.
  ParamPack params;
  params.Set(0, 1.0);
  params.Set(1, 20.0);
  auto bound = batch.Bind(params);
  ASSERT_TRUE(bound.ok());
  auto literal = engine.Prepare(*bound);
  ASSERT_TRUE(literal.ok());
  EXPECT_FALSE(literal->from_cache());
  EXPECT_NE(literal->signature(), first->signature());
}

// Dictionaries key the cache by content: a batch whose table is a
// separate object with equal content hits, one whose content differs
// misses. A renamed table hashes like the original (the content signature
// leaves the name out), so that Prepare takes the exact comparison.
TEST_F(PreparedBatchTest, PlanCacheComparesDictionariesByContent) {
  auto make_batch = [&](std::shared_ptr<const FunctionDict> g) {
    QueryBatch batch;
    Query q;
    q.name = "g_by_store";
    q.group_by = {data_->store};
    q.aggregates.push_back(
        Aggregate({Factor{data_->item, Function::Dictionary(std::move(g))},
                   Factor{data_->units, Function::Identity()}}));
    batch.Add(std::move(q));
    return batch;
  };
  auto g = std::make_shared<FunctionDict>();
  g->name = "g";
  g->default_value = 1.0;
  for (int64_t i = 0; i < 40; ++i) g->table[i] = 1.0 + 0.25 * (i % 5);
  const auto same = std::make_shared<FunctionDict>(*g);
  auto changed = std::make_shared<FunctionDict>(*g);
  changed->table[3] = 7.0;
  auto renamed = std::make_shared<FunctionDict>(*g);
  renamed->name = "g2";

  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto first = engine.Prepare(make_batch(g));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->from_cache());
  auto second = engine.Prepare(make_batch(same));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->from_cache());
  EXPECT_EQ(engine.plan_cache_stats().hits, 1u);
  EXPECT_EQ(engine.plan_cache_stats().entries, 1u);
  auto first_result = first->Execute();
  auto second_result = second->Execute();
  ASSERT_TRUE(first_result.ok() && second_result.ok());
  ExpectResultsMatch(second_result->results, first_result->results, 0.0,
                     "equal-content dictionary");

  auto other = engine.Prepare(make_batch(changed));
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_FALSE(other->from_cache());
  auto other_name = engine.Prepare(make_batch(renamed));
  ASSERT_TRUE(other_name.ok()) << other_name.status().ToString();
  EXPECT_FALSE(other_name->from_cache());
  EXPECT_EQ(other_name->signature(), first->signature());
  EXPECT_EQ(engine.plan_cache_stats().hits, 1u);
}

TEST_F(PreparedBatchTest, PlanCacheCapacityEvictsLeastRecentlyUsed) {
  EngineOptions options;
  options.plan_cache_capacity = 1;
  Engine engine(&data_->catalog, &data_->tree, options);
  const QueryBatch example = MakeExampleBatch(*data_);
  const QueryBatch parameterized = MakeParameterizedBatch();

  ASSERT_TRUE(engine.Prepare(example).ok());            // miss, cached
  EXPECT_TRUE(engine.Prepare(example)->from_cache());   // hit
  ASSERT_TRUE(engine.Prepare(parameterized).ok());      // miss, evicts
  EXPECT_EQ(engine.plan_cache_stats().entries, 1u);
  EXPECT_FALSE(engine.Prepare(example)->from_cache());  // evicted: miss

  // Capacity 0 disables caching entirely; handles still execute.
  EngineOptions uncached_options;
  uncached_options.plan_cache_capacity = 0;
  Engine uncached(&data_->catalog, &data_->tree, uncached_options);
  auto first = uncached.Prepare(example);
  auto second = uncached.Prepare(example);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_FALSE(second->from_cache());
  EXPECT_EQ(uncached.plan_cache_stats().entries, 0u);
  EXPECT_TRUE(second->Execute().ok());
}

TEST_F(PreparedBatchTest, CompileRelevantOptionsKeyTheSignature) {
  // An Engine's options are fixed at construction, so two configurations
  // are two Engines. The artifact signature still carries the compile-
  // relevant options: it is what lets ExecuteDelta refuse a base computed
  // under other plans.
  const QueryBatch batch = MakeExampleBatch(*data_);
  Engine factorized(&data_->catalog, &data_->tree, EngineOptions{});
  EngineOptions flat_options;
  flat_options.plan.factorize = false;
  Engine flat(&data_->catalog, &data_->tree, flat_options);
  auto a = factorized.Prepare(batch);
  auto b = flat.Prepare(batch);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->signature(), b->signature());

  // Scheduler options are execution-only and leave the signature alone.
  EngineOptions threaded_options;
  threaded_options.scheduler.num_threads = 4;
  Engine threaded(&data_->catalog, &data_->tree, threaded_options);
  auto c = threaded.Prepare(batch);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->signature(), a->signature());

  auto flat_base = b->Execute();
  ASSERT_TRUE(flat_base.ok());
  auto refreshed = a->ExecuteDelta(*flat_base);
  ASSERT_FALSE(refreshed.ok());
  EXPECT_EQ(refreshed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PreparedBatchTest, ConcurrentExecutesAgree) {
  const QueryBatch batch = MakeParameterizedBatch();
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok());

  // Reference results for two different bindings.
  ParamPack promo_params;
  promo_params.Set(0, 1.0);
  promo_params.Set(1, 20.0);
  ParamPack nonpromo_params;
  nonpromo_params.Set(0, 0.0);
  nonpromo_params.Set(1, 90.0);
  auto promo_ref = prepared->Execute(promo_params);
  auto nonpromo_ref = prepared->Execute(nonpromo_params);
  ASSERT_TRUE(promo_ref.ok() && nonpromo_ref.ok());

  // Many threads share ONE handle, half per binding; every result must
  // equal its sequential reference bit-for-bit.
  constexpr int kThreads = 8;
  std::vector<StatusOr<BatchResult>> results;
  for (int t = 0; t < kThreads; ++t) {
    results.emplace_back(Status::Internal("not run"));
  }
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        results[static_cast<size_t>(t)] = prepared->Execute(
            t % 2 == 0 ? promo_params : nonpromo_params);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    const auto& got = results[static_cast<size_t>(t)];
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const BatchResult& ref = t % 2 == 0 ? *promo_ref : *nonpromo_ref;
    ExpectResultsMatch(got->results, ref.results, 0.0,
                       "thread " + std::to_string(t));
  }
}

TEST_F(PreparedBatchTest, EvaluateWrapperReportsCompileSplit) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  const QueryBatch batch = MakeExampleBatch(*data_);
  auto cold = engine.Evaluate(batch);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->stats.plan_cache_hit);
  EXPECT_GT(cold->stats.compile_seconds, 0.0);

  auto warm = engine.Evaluate(batch);
  ASSERT_TRUE(warm.ok());
  // The cache-hit flag is the robust signal that no recompile happened
  // (wall-clock comparisons flake on contended hosts); the phase
  // breakdown still shows the original compile.
  EXPECT_TRUE(warm->stats.plan_cache_hit);
  EXPECT_GT(warm->stats.viewgen_seconds + warm->stats.grouping_seconds +
                warm->stats.plan_seconds,
            0.0);
  ExpectResultsMatch(warm->results, cold->results, 0.0,
                     "warm evaluate vs cold evaluate");
}

/// Every pass kind at once on one multi-thread Engine: its one worker pool
/// runs the groups and domain shards of concurrent Executes,
/// ExecuteSharded(3) calls and ExecuteDelta refreshes. On integer-exact
/// data each result must equal its sequential Engine's bit-for-bit.
TEST(SharedPoolTest, ConcurrentPassesMatchSequentialBitForBit) {
  Rng rng(2603);
  testing::ExactDatabase db = testing::MakeExactDatabase(&rng);
  const QueryBatch batch = testing::MakeExactBatch(db, &rng);
  Engine sequential(&db.catalog, &db.tree, EngineOptions{});
  EngineOptions options;
  options.scheduler.num_threads = 4;
  options.scheduler.min_shard_rows = 2;
  Engine engine(&db.catalog, &db.tree, options);
  auto reference = sequential.Prepare(batch);
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // The base predates an append of duplicated rows, so every refresh
  // below runs a real delta pass.
  auto base = reference->Execute();
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const Relation& grown = db.catalog.relation(0);
  std::vector<std::vector<Value>> rows;
  for (size_t r = 0; r < grown.num_rows() && r < 5; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < grown.num_columns(); ++c) {
      row.push_back(grown.ValueAt(r, c));
    }
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db.catalog.AppendRows(0, rows).ok());

  auto want_full = reference->Execute();
  auto want_sharded = reference->ExecuteSharded(3);
  auto want_delta = reference->ExecuteDelta(*base);
  ASSERT_TRUE(want_full.ok()) << want_full.status().ToString();
  ASSERT_TRUE(want_sharded.ok()) << want_sharded.status().ToString();
  ASSERT_TRUE(want_delta.ok()) << want_delta.status().ToString();
  ASSERT_GT(want_delta->stats.delta_passes, 0);

  // Validate the recipe: the multi-thread Engine really domain-shards.
  auto probe = prepared->Execute();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  bool sharded = false;
  for (const GroupStats& gs : probe->stats.groups) {
    if (gs.shard_stats.size() > 1) sharded = true;
  }
  ASSERT_TRUE(sharded) << "recipe did not shard; cost model changed?";

  constexpr int kClients = 6;
  constexpr int kRounds = 6;
  std::vector<StatusOr<BatchResult>> results;
  for (int i = 0; i < kClients * kRounds; ++i) {
    results.emplace_back(Status::Internal("not run"));
  }
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          const int i = t * kRounds + r;
          StatusOr<BatchResult>& out = results[static_cast<size_t>(i)];
          switch (i % 3) {
            case 0:
              out = prepared->Execute();
              break;
            case 1:
              out = prepared->ExecuteSharded(3);
              break;
            default:
              out = prepared->ExecuteDelta(*base);
              break;
          }
        }
      });
    }
    for (std::thread& th : clients) th.join();
  }
  for (int i = 0; i < kClients * kRounds; ++i) {
    const auto& got = results[static_cast<size_t>(i)];
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const BatchResult& want =
        i % 3 == 0 ? *want_full : (i % 3 == 1 ? *want_sharded : *want_delta);
    ExpectResultsMatch(got->results, want.results, 0.0,
                       "pass " + std::to_string(i));
  }
}

/// InvalidateCaches may run while Executes are in flight: it only clears
/// the caches under their locks and bumps the generation, and a pass holds
/// its sorted snapshots and its artifact by shared_ptr. Three clients
/// Execute (domain-sharded on a 2-thread Engine) and re-Prepare whenever
/// their handle went stale, while a fourth thread keeps invalidating.
/// Every call either fails FailedPrecondition or returns the clean run's
/// bits (integer-exact data, so any summation order gives the same bits).
TEST_F(PreparedBatchTest, InvalidateCachesRacesExecutes) {
  Rng rng(2804);
  testing::ExactDatabase db = testing::MakeExactDatabase(&rng);
  const QueryBatch batch = testing::MakeExactBatch(db, &rng);
  EngineOptions options;
  options.scheduler.num_threads = 2;
  options.scheduler.min_shard_rows = 2;
  Engine engine(&db.catalog, &db.tree, options);
  auto clean = engine.Prepare(batch);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto want = clean->Execute();
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  constexpr size_t kClients = 3;
  constexpr int kInvalidations = 30;
  std::atomic<size_t> ready{0};
  std::atomic<bool> invalidating{true};
  std::vector<std::vector<StatusOr<BatchResult>>> results(kClients);
  std::vector<int> stale(kClients, 0);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        StatusOr<PreparedBatch> prepared = engine.Prepare(batch);
        // The first result releases the invalidator, so every client's
        // first handle goes stale. Runs until an Execute that started
        // after the last invalidation returns.
        bool counted = false;
        for (bool last = false; !last;) {
          last = !invalidating.load();
          StatusOr<BatchResult> got =
              prepared.ok() ? prepared->Execute()
                            : StatusOr<BatchResult>(prepared.status());
          if (got.status().code() == StatusCode::kFailedPrecondition) {
            ++stale[c];
            prepared = engine.Prepare(batch);
            last = false;
            continue;
          }
          if (!counted) {
            counted = true;
            ready.fetch_add(1);
          }
          last = last || !got.ok();
          results[c].push_back(std::move(got));
        }
      });
    }
    threads.emplace_back([&] {
      while (ready.load() < kClients) std::this_thread::yield();
      for (int i = 0; i < kInvalidations; ++i) {
        engine.InvalidateCaches();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      invalidating.store(false);
    });
    for (std::thread& th : threads) th.join();
  }
  for (size_t c = 0; c < kClients; ++c) {
    const std::string label = "client " + std::to_string(c);
    for (const StatusOr<BatchResult>& got : results[c]) {
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      ExpectResultsMatch(got->results, want->results, 0.0, label);
    }
    // One result before the first invalidation, one after the last.
    EXPECT_GE(results[c].size(), 2u) << label;
    EXPECT_GE(stale[c], 1) << label;
  }
}

/// Prepare reads committed row counts (grouping's node order, the root
/// choice, output size estimates) while appends commit: every read goes
/// through the catalog's epoch lock, so TSan reports nothing and every
/// Prepare succeeds. Capacity 0 makes every Prepare compile.
TEST_F(PreparedBatchTest, PrepareRacesAppends) {
  EngineOptions options;
  options.plan_cache_capacity = 0;
  Engine engine(&data_->catalog, &data_->tree, options);
  const QueryBatch batch = MakeExampleBatch(*data_);

  std::atomic<bool> done{false};
  std::thread appender([&] {
    Rng rng(24);
    while (!done.load()) {
      std::vector<std::vector<Value>> rows;
      for (int i = 0; i < 50; ++i) {
        rows.push_back({Value::Int(rng.UniformInt(0, 89)),
                        Value::Int(rng.UniformInt(0, 17)),
                        Value::Int(rng.UniformInt(0, 399)),
                        Value::Double(static_cast<double>(
                            rng.UniformInt(1, 20))),
                        Value::Int(rng.UniformInt(0, 1))});
      }
      ASSERT_TRUE(data_->catalog.AppendRows(data_->sales, rows).ok());
    }
  });
  for (int i = 0; i < 40; ++i) {
    auto prepared = engine.Prepare(batch);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
  }
  done.store(true);
  appender.join();
}

}  // namespace
}  // namespace lmfao
