/// \file view_store_test.cc
/// \brief Tests of the ViewStore (refcounted view lifetime, freeze-on-
/// publish of every consumed inner view, pinned query outputs, eager
/// eviction) and of the ExecutionContext runtime built on it
/// — including the headline property that eager eviction keeps the peak
/// live-view count below the workload's total view count on multi-group
/// workloads.

#include "storage/view_store.h"

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "engine/engine.h"
#include "ml/feature.h"
#include "util/failpoint.h"

namespace lmfao {
namespace {

std::unique_ptr<ViewMap> MakeMap(int entries) {
  auto map = std::make_unique<ViewMap>(1, 1);
  for (int64_t i = 0; i < entries; ++i) map->Upsert(TupleKey({i}))[0] = 1.0;
  return map;
}

TEST(ViewStoreTest, PublishAcquireRelease) {
  ViewStore store;
  store.Register(0, /*consumers=*/2, /*pinned=*/false);
  ASSERT_TRUE(store.Publish(0, MakeMap(10)).ok());
  EXPECT_EQ(store.live_views(), 1u);
  EXPECT_GT(store.current_bytes(), 0u);

  auto view = store.Acquire(0);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->size(), 10u);

  store.Release(0);
  EXPECT_EQ(store.live_views(), 1u);  // One consumer still registered.
  store.Release(0);
  EXPECT_EQ(store.live_views(), 0u);  // Last consumer done: evicted.
  EXPECT_EQ(store.current_bytes(), 0u);
  EXPECT_GT(store.peak_bytes(), 0u);
  EXPECT_EQ(store.peak_live_views(), 1u);
}

/// A consumed, unpinned view is frozen at publish: its consumers read a
/// sorted SortView in the registered payload layout.
TEST(ViewStoreTest, FreezesViewWithConsumersOnPublish) {
  for (PayloadLayout layout :
       {PayloadLayout::kRowMajor, PayloadLayout::kColumnar}) {
    ViewStore store;
    store.Register(0, 1, false, layout);
    ASSERT_TRUE(store.Publish(0, MakeMap(5)).ok());
    auto view = store.Acquire(0);
    ASSERT_TRUE(view.ok());
    const SortView& frozen = **view;
    ASSERT_EQ(frozen.size(), 5u);
    EXPECT_EQ(frozen.payload_matrix().layout(), layout);
    for (size_t i = 1; i < frozen.size(); ++i) {
      EXPECT_TRUE(frozen.key(i - 1) < frozen.key(i));
    }
    // Exactly the frozen arrays are accounted: no map is kept beside them.
    EXPECT_EQ(store.current_bytes(), frozen.MemoryUsage());
    store.Release(0);
  }
}

TEST(ViewStoreTest, PinnedViewSurvivesUntilTaken) {
  ViewStore store;
  store.Register(0, 0, /*pinned=*/true);
  ASSERT_TRUE(store.Publish(0, MakeMap(3)).ok());
  EXPECT_EQ(store.live_views(), 1u);
  // A pinned view stays a map: consumers cannot acquire it, and TakeResult
  // hands the map itself out.
  EXPECT_EQ(store.Acquire(0).status().code(), StatusCode::kInternal);
  auto result = store.TakeResult(0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
  EXPECT_DOUBLE_EQ(result->Lookup(TupleKey({2}))[0], 1.0);
  EXPECT_EQ(store.live_views(), 0u);
}

TEST(ViewStoreTest, UnpinnedViewCannotBeTaken) {
  ViewStore store;
  store.Register(0, 1, false);
  ASSERT_TRUE(store.Publish(0, MakeMap(3)).ok());
  EXPECT_EQ(store.TakeResult(0).status().code(), StatusCode::kInternal);
}

/// A view with no consumer and no pin is dropped at publish without being
/// frozen: an armed freeze failpoint does not fire for it, while it does
/// for a consumed view.
TEST(ViewStoreTest, UnconsumedUnpinnedViewEvictedWithoutFreezing) {
  ASSERT_TRUE(Failpoints::Configure("viewstore.freeze=fail").ok());
  ViewStore store;
  store.Register(0, 0, false);
  store.Register(1, 1, false);
  const Status unconsumed = store.Publish(0, MakeMap(3));
  const Status consumed = store.Publish(1, MakeMap(3));
  Failpoints::Clear();
  EXPECT_TRUE(unconsumed.ok()) << unconsumed.ToString();
  EXPECT_EQ(consumed.code(), StatusCode::kInternal);
  EXPECT_EQ(store.live_views(), 0u);
  EXPECT_EQ(store.peak_live_views(), 1u);
  EXPECT_EQ(store.current_bytes(), 0u);
}

/// Pins the store's split key/payload byte accounting across publish,
/// freeze, and eviction: pinned maps account packed slots (8·arity key +
/// 8 hash + 4 entry index per slot, 8·width payload per entry); frozen
/// views account exactly 8·arity + 8·width per entry; eviction returns both
/// sides to zero while the peaks persist.
TEST(ViewStoreTest, KeyPayloadByteAccounting) {
  ViewStore store;
  store.Register(0, 0, /*pinned=*/true);
  store.Register(1, 1, false);

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

  ASSERT_TRUE(store.TakeResult(0).ok());
  store.Release(1);
  EXPECT_EQ(store.current_key_bytes(), 0u);
  EXPECT_EQ(store.current_payload_bytes(), 0u);
  EXPECT_EQ(store.peak_key_bytes(), hash_key_bytes + frozen_key_bytes);
}

TEST(ViewStoreTest, AcquireUnpublishedFails) {
  ViewStore store;
  store.Register(0, 1, false);
  EXPECT_FALSE(store.Acquire(0).ok());
}

TEST(ViewStoreTest, DoublePublishFails) {
  ViewStore store;
  store.Register(0, 1, false);
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
    EXPECT_GE(g.wait_seconds, 0.0);
    any_sharded = any_sharded || g.shard_stats.size() > 1;
  }
  EXPECT_TRUE(any_sharded);
}

}  // namespace
}  // namespace lmfao
