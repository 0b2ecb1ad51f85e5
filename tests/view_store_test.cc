/// \file view_store_test.cc
/// \brief Tests of the ViewStore (refcounted view lifetime, freeze-on-
/// publish, eager eviction) and of the ExecutionContext runtime built on it
/// — including the headline property that eager eviction keeps the peak
/// live-view count below the workload's total view count on multi-group
/// workloads.

#include "storage/view_store.h"

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "engine/engine.h"
#include "ml/feature.h"

namespace lmfao {
namespace {

std::unique_ptr<ViewMap> MakeMap(int entries) {
  auto map = std::make_unique<ViewMap>(1, 1);
  for (int64_t i = 0; i < entries; ++i) map->Upsert(TupleKey({i}))[0] = 1.0;
  return map;
}

TEST(ViewStoreTest, PublishAcquireRelease) {
  ViewStore store;
  store.Register(0, /*consumers=*/2, ViewForm::kHashMap, /*pinned=*/false);
  ASSERT_TRUE(store.Publish(0, MakeMap(10)).ok());
  EXPECT_EQ(store.live_views(), 1u);
  EXPECT_GT(store.current_bytes(), 0u);

  auto ref = store.Acquire(0);
  ASSERT_TRUE(ref.ok());
  ASSERT_NE(ref->map, nullptr);
  EXPECT_EQ(ref->frozen, nullptr);
  EXPECT_EQ(ref->map->size(), 10u);

  store.Release(0);
  EXPECT_EQ(store.live_views(), 1u);  // One consumer still registered.
  store.Release(0);
  EXPECT_EQ(store.live_views(), 0u);  // Last consumer done: evicted.
  EXPECT_EQ(store.current_bytes(), 0u);
  EXPECT_GT(store.peak_bytes(), 0u);
  EXPECT_EQ(store.peak_live_views(), 1u);
}

TEST(ViewStoreTest, FreezesToSortedFormOnPublish) {
  ViewStore store;
  store.Register(0, 1, ViewForm::kFrozenSorted, false);
  ASSERT_TRUE(store.Publish(0, MakeMap(5)).ok());
  auto ref = store.Acquire(0);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->map, nullptr);  // Hash form dropped at publish.
  ASSERT_NE(ref->frozen, nullptr);
  ASSERT_EQ(ref->frozen->size(), 5u);
  for (size_t i = 1; i < ref->frozen->size(); ++i) {
    EXPECT_TRUE(ref->frozen->key(i - 1) < ref->frozen->key(i));
  }
  EXPECT_EQ(store.num_frozen(), 1);
}

TEST(ViewStoreTest, PinnedViewSurvivesUntilTaken) {
  ViewStore store;
  store.Register(0, 0, ViewForm::kHashMap, /*pinned=*/true);
  ASSERT_TRUE(store.Publish(0, MakeMap(3)).ok());
  EXPECT_EQ(store.live_views(), 1u);
  auto result = store.TakeResult(0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
  EXPECT_EQ(store.live_views(), 0u);
}

TEST(ViewStoreTest, UnconsumedUnpinnedViewEvictedImmediately) {
  ViewStore store;
  store.Register(0, 0, ViewForm::kHashMap, false);
  ASSERT_TRUE(store.Publish(0, MakeMap(3)).ok());
  EXPECT_EQ(store.live_views(), 0u);
  EXPECT_EQ(store.peak_live_views(), 1u);
}

/// Pins the store's split key/payload byte accounting across publish,
/// freeze, and eviction: hash-form views account packed slots (8·arity key
/// + 8 hash + 1 occupancy per slot, 8·width payload per slot); frozen views
/// account exactly 8·arity + 8·width per entry; eviction returns both sides
/// to zero while the peaks persist.
TEST(ViewStoreTest, KeyPayloadByteAccounting) {
  ViewStore store;
  store.Register(0, 1, ViewForm::kHashMap, false);
  store.Register(1, 1, ViewForm::kFrozenSorted, false);

  auto map0 = std::make_unique<ViewMap>(2, 3);
  for (int64_t i = 0; i < 5; ++i) map0->Upsert(TupleKey({i, -i}))[0] = 1.0;
  const size_t slots = map0->num_slots();
  ASSERT_TRUE(store.Publish(0, std::move(map0)).ok());
  // Slots carry the packed key, the cached hash and the 4-byte entry
  // index; payloads are dense: 5 entries x 3 slots.
  const size_t hash_key_bytes =
      slots * (2 * sizeof(int64_t) + sizeof(uint64_t) + sizeof(uint32_t));
  const size_t hash_payload_bytes = 5 * 3 * sizeof(double);
  EXPECT_EQ(store.current_key_bytes(), hash_key_bytes);
  EXPECT_EQ(store.current_payload_bytes(), hash_payload_bytes);
  EXPECT_EQ(store.current_bytes(), hash_key_bytes + hash_payload_bytes);

  auto map1 = std::make_unique<ViewMap>(2, 3);
  for (int64_t i = 0; i < 7; ++i) map1->Upsert(TupleKey({i, i + 1}))[0] = 1.0;
  ASSERT_TRUE(store.Publish(1, std::move(map1)).ok());
  // The frozen form is exact: 7 entries x 2 components and x 3 slots.
  const size_t frozen_key_bytes = 7 * 2 * sizeof(int64_t);
  const size_t frozen_payload_bytes = 7 * 3 * sizeof(double);
  EXPECT_EQ(store.current_key_bytes(), hash_key_bytes + frozen_key_bytes);
  EXPECT_EQ(store.current_payload_bytes(),
            hash_payload_bytes + frozen_payload_bytes);
  EXPECT_EQ(store.peak_key_bytes(), hash_key_bytes + frozen_key_bytes);
  EXPECT_EQ(store.peak_payload_bytes(),
            hash_payload_bytes + frozen_payload_bytes);
  EXPECT_EQ(store.peak_bytes(), store.peak_key_bytes() +
                                    store.peak_payload_bytes());

  store.Release(0);
  store.Release(1);
  EXPECT_EQ(store.current_key_bytes(), 0u);
  EXPECT_EQ(store.current_payload_bytes(), 0u);
  EXPECT_EQ(store.peak_key_bytes(), hash_key_bytes + frozen_key_bytes);
}

TEST(ViewStoreTest, AcquireUnpublishedFails) {
  ViewStore store;
  store.Register(0, 1, ViewForm::kHashMap, false);
  EXPECT_FALSE(store.Acquire(0).ok());
}

TEST(ViewStoreTest, DoublePublishFails) {
  ViewStore store;
  store.Register(0, 1, ViewForm::kHashMap, false);
  ASSERT_TRUE(store.Publish(0, MakeMap(1)).ok());
  EXPECT_FALSE(store.Publish(0, MakeMap(1)).ok());
}

/// Runtime integration fixture: a Favorita covariance batch produces a
/// multi-group workload with a deep dependency chain.
class RuntimeEvictionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
    FeatureSet features;
    features.label = data_->units;
    features.continuous = {data_->txns, data_->price};
    features.categorical = {data_->stype, data_->family};
    auto cov = BuildCovarianceBatch(features, data_->catalog);
    ASSERT_TRUE(cov.ok());
    batch_ = cov->batch;
  }

  std::unique_ptr<FavoritaData> data_;
  QueryBatch batch_;
};

/// The headline lifetime property: with eager eviction, the peak number of
/// simultaneously live views stays strictly below the workload's total view
/// count — inner views die as soon as their last consumer finishes instead
/// of piling up until the end of the batch.
TEST_F(RuntimeEvictionTest, PeakLiveViewsBelowTotalViews) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto result = engine.Evaluate(batch_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const size_t total_views = static_cast<size_t>(result->stats.num_views) +
                             static_cast<size_t>(result->stats.num_queries);
  ASSERT_GT(result->stats.num_views, 0);
  EXPECT_GT(result->stats.peak_live_views, 0u);
  EXPECT_LT(result->stats.peak_live_views, total_views);
  EXPECT_GT(result->stats.peak_view_bytes, 0u);
}

/// The same property holds under the hybrid parallel scheduler, and the new
/// per-group stats are populated.
TEST_F(RuntimeEvictionTest, HybridSchedulerPopulatesGroupStats) {
  EngineOptions options;
  options.scheduler.num_threads = 4;
  options.scheduler.min_shard_rows = 1;  // Force domain sharding.
  Engine engine(&data_->catalog, &data_->tree, options);
  auto result = engine.Evaluate(batch_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const size_t total_views = static_cast<size_t>(result->stats.num_views) +
                             static_cast<size_t>(result->stats.num_queries);
  EXPECT_LT(result->stats.peak_live_views, total_views);
  bool any_sharded = false;
  for (const GroupStats& g : result->stats.groups) {
    EXPECT_GE(g.shards, 1);
    EXPECT_GE(g.wait_seconds, 0.0);
    any_sharded = any_sharded || g.shards > 1;
  }
  EXPECT_TRUE(any_sharded);
}

}  // namespace
}  // namespace lmfao
