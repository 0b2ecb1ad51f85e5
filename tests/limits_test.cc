/// \file limits_test.cc
/// \brief Resource-governed execution (ExecLimits): deadline and
/// view-byte-budget trips surface as DeadlineExceeded/ResourceExhausted
/// with per-group progress, unwind without leaking views, and leave the
/// PreparedBatch fully reusable; a budget trip on a group whose shards ran
/// on the pool (domain shards, or the split group of ExecuteSharded)
/// recovers by retrying its shards one at a time, bit-equal to the sharded
/// run.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "differential_harness.h"
#include "engine/engine.h"
#include "storage/view_store.h"
#include "util/failpoint.h"

namespace lmfao {
namespace {

using ::lmfao::testing::ExpectResultsMatch;

class LimitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Clear();
    Failpoints::ClearParked();
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
  }

  void TearDown() override {
    Failpoints::Clear();
    Failpoints::ClearParked();
  }

  std::unique_ptr<FavoritaData> data_;
};

TEST_F(LimitsTest, TinyDeadlineTripsWithProgressInMessage) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());

  const size_t base_views = ViewStore::GlobalLiveViews();
  const size_t base_bytes = ViewStore::GlobalLiveBytes();
  ExecLimits limits;
  limits.deadline_seconds = 1e-9;
  auto result = prepared->Execute(ParamPack{}, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("groups completed"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views);
  EXPECT_EQ(ViewStore::GlobalLiveBytes(), base_bytes);

  // The handle is untouched: a follow-up unlimited Execute is exact.
  auto clean = prepared->Execute();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  Engine oracle(&data_->catalog, &data_->tree, EngineOptions{});
  auto want = oracle.Evaluate(MakeExampleBatch(*data_));
  ASSERT_TRUE(want.ok());
  ExpectResultsMatch(clean->results, want->results, 0.0,
                     "execute after deadline trip");
}

TEST_F(LimitsTest, TinyViewBudgetTripsAsResourceExhausted) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());

  ExecLimits limits;
  limits.max_view_bytes = 1;
  for (int i = 0; i < 5; ++i) {
    const size_t base_views = ViewStore::GlobalLiveViews();
    const size_t base_bytes = ViewStore::GlobalLiveBytes();
    auto result = prepared->Execute(ParamPack{}, limits);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    // Every trip unwinds completely — no view survives a failed pass.
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views) << "iteration " << i;
    EXPECT_EQ(ViewStore::GlobalLiveBytes(), base_bytes) << "iteration " << i;
  }
  EXPECT_TRUE(prepared->Execute().ok());
}

TEST_F(LimitsTest, GenerousLimitsAreExactAndUntripped) {
  Engine unlimited(&data_->catalog, &data_->tree, EngineOptions{});
  auto want = unlimited.Evaluate(MakeExampleBatch(*data_));
  ASSERT_TRUE(want.ok());

  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  ExecLimits limits;
  limits.deadline_seconds = 300.0;
  limits.max_view_bytes = size_t{1} << 40;
  auto result = prepared->Execute(ParamPack{}, limits);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.degraded_groups, 0);
  ExpectResultsMatch(result->results, want->results, 0.0,
                     "governed vs ungoverned execute");
}

/// One relation, so one group: 6,000 rows, `k = i % 1000`, non-integer
/// `v` (where another summation order changes the last bits), a grouped
/// and a global SUM(v), SUM(v²). On its 4-thread Engine with
/// min_shard_rows 8 the group's scan shards, so the first viewmap.reserve
/// hit is guaranteed to land in a sharded scan.
struct OneGroupRecipe {
  OneGroupRecipe() {
    const AttrId key = catalog.AddAttribute("k", AttrType::kInt).value();
    const AttrId val = catalog.AddAttribute("v", AttrType::kDouble).value();
    const RelationId rid = catalog.AddRelation("R", {"k", "v"}).value();
    Relation& rel = catalog.mutable_relation(rid);
    for (int i = 0; i < 6000; ++i) {
      rel.AppendRowUnchecked({Value::Int(i % 1000),
                              Value::Double(0.1 * (i % 37) + 0.01 * (i % 11))});
    }
    catalog.RefreshDomainSizes();
    tree = JoinTree::FromEdges(catalog, {}).value();
    for (bool grouped : {true, false}) {
      Query q;
      q.name = grouped ? "by_key" : "global";
      if (grouped) q.group_by = {key};
      q.aggregates.push_back(Aggregate({Factor{val, Function::Identity()}}));
      q.aggregates.push_back(Aggregate({Factor{val, Function::Square()}}));
      batch.Add(std::move(q));
    }
    options.scheduler.num_threads = 4;
    options.scheduler.domain_parallel = true;
    options.scheduler.min_shard_rows = 8;
  }

  Catalog catalog;
  JoinTree tree;
  QueryBatch batch;
  EngineOptions options;
};

/// The degradation path: a budget trip on a domain-sharded group (whose
/// per-shard private maps are the memory multiplier) is retried once with
/// its shards run one at a time, and the pass completes. Injected via
/// viewmap.reserve=oom#1 so exactly the first map allocation "fails". The
/// retry keeps the sharded summation order: the retried pass is bit-equal
/// to the clean sharded one.
TEST_F(LimitsTest, BudgetTripOnShardedGroupRetriesShardsSerially) {
  OneGroupRecipe recipe;
  Engine engine(&recipe.catalog, &recipe.tree, recipe.options);
  auto prepared = engine.Prepare(recipe.batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  // Validate the recipe: the clean run really shards.
  auto clean = prepared->Execute();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  bool sharded = false;
  for (const GroupStats& gs : clean->stats.groups) {
    if (gs.shard_stats.size() > 1) sharded = true;
  }
  ASSERT_TRUE(sharded) << "recipe did not shard; cost model changed?";

  ASSERT_TRUE(Failpoints::Configure("viewmap.reserve=oom#1").ok());
  auto result = prepared->Execute();
  Failpoints::Clear();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->stats.degraded_groups, 1);
  // A group records exactly the shards its successful attempt folded: the
  // retry's records replace the failed attempt's.
  ASSERT_EQ(result->stats.groups.size(), clean->stats.groups.size());
  for (size_t g = 0; g < result->stats.groups.size(); ++g) {
    EXPECT_EQ(result->stats.groups[g].shard_stats.size(),
              clean->stats.groups[g].shard_stats.size())
        << "group " << g;
  }
  ExpectResultsMatch(result->results, clean->results, 0.0,
                     "serial retry vs clean sharded run");
}

/// The split group of ExecuteSharded recovers the same way: its shards
/// ran on the pool, so a trip retries them one at a time, in shard order,
/// through the same exchange. The retry's shard records replace the
/// failed attempt's.
TEST_F(LimitsTest, BudgetTripOnSplitGroupRetriesShardsSerially) {
  OneGroupRecipe recipe;
  Engine engine(&recipe.catalog, &recipe.tree, recipe.options);
  auto prepared = engine.Prepare(recipe.batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto clean = prepared->ExecuteSharded(4);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->stats.dist_shard_stats.size(), 4u);

  ASSERT_TRUE(Failpoints::Configure("viewmap.reserve=oom#1").ok());
  auto result = prepared->ExecuteSharded(4);
  Failpoints::Clear();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->stats.degraded_groups, 1);
  EXPECT_EQ(result->stats.dist_shard_stats.size(), 4u);
  EXPECT_EQ(result->stats.exchange_bytes, clean->stats.exchange_bytes);
  ExpectResultsMatch(result->results, clean->results, 0.0,
                     "serial split retry vs clean sharded run");
}

TEST_F(LimitsTest, DeltaFailureLeavesHeldBaseIntact) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto base = prepared->Execute();
  ASSERT_TRUE(base.ok());

  ASSERT_TRUE(data_->catalog
                  .AppendRows(data_->sales,
                              {{Value::Int(2), Value::Int(5), Value::Int(9),
                                Value::Double(4.0), Value::Int(0)}})
                  .ok());

  // The governed refresh trips...
  ExecLimits limits;
  limits.deadline_seconds = 1e-9;
  auto failed = prepared->ExecuteDelta(*base, ParamPack{}, limits);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);

  // ...but `base` is untouched: the same refresh re-run without limits
  // matches a full recompute exactly.
  auto refreshed = prepared->ExecuteDelta(*base);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok());
  ExpectResultsMatch(refreshed->results, full->results, 1e-9,
                     "delta refresh after failed governed refresh");
}

}  // namespace
}  // namespace lmfao
