/// \file view_generation_test.cc
/// \brief Tests of the View Generation layer, including the exact structure
/// of Fig. 2 (middle) for the paper's running example.

#include "engine/view_generation.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "engine/ir.h"
#include "util/hash.h"

namespace lmfao {
namespace {

class ViewGenerationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Sales must dominate the other relations for the "largest relation"
    // tie-breaks (the paper's datasets have this property).
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 3000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
  }
  std::unique_ptr<FavoritaData> data_;
};

TEST_F(ViewGenerationTest, RootAssignmentHeuristic) {
  const QueryBatch batch = MakeExampleBatch(*data_);
  // Q1/Q2 carry explicit root hints (Sales); Q3's hint is Items. Clear the
  // hints and verify the heuristic picks the same roots as the paper.
  Query q1 = batch.query(0);
  q1.root_hint = kInvalidRelation;
  EXPECT_EQ(AssignRoot(q1, data_->catalog, data_->tree), data_->sales)
      << "no group-by: largest relation";
  Query q2 = batch.query(1);
  q2.root_hint = kInvalidRelation;
  EXPECT_EQ(AssignRoot(q2, data_->catalog, data_->tree), data_->sales)
      << "store is in Sales, Transactions and StoRes; Sales is largest";
  Query q3 = batch.query(2);
  q3.root_hint = kInvalidRelation;
  EXPECT_EQ(AssignRoot(q3, data_->catalog, data_->tree), data_->items)
      << "class only occurs in Items";
}

TEST_F(ViewGenerationTest, RootHintWins) {
  Query q;
  q.group_by = {data_->item_class};
  q.aggregates.push_back(Aggregate::Count());
  q.root_hint = data_->oil;
  EXPECT_EQ(AssignRoot(q, data_->catalog, data_->tree), data_->oil);
}

TEST_F(ViewGenerationTest, ExampleBatchMatchesFig2Middle) {
  const QueryBatch batch = MakeExampleBatch(*data_);
  auto workload = GenerateViews(batch, data_->catalog, data_->tree);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  // Fig. 2 (middle): 6 merged directional views + 3 query outputs.
  EXPECT_EQ(workload->NumInnerViews(), 6);
  EXPECT_EQ(static_cast<int>(workload->views.size()) -
                workload->NumInnerViews(),
            3);

  // One view per direction; directions as in the figure.
  auto per_direction = workload->ViewsPerDirection();
  auto dir = [](RelationId a, RelationId b) {
    return (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
  };
  EXPECT_EQ(per_direction[dir(data_->transactions, data_->sales)], 1);
  EXPECT_EQ(per_direction[dir(data_->stores, data_->transactions)], 1);
  EXPECT_EQ(per_direction[dir(data_->oil, data_->transactions)], 1);
  EXPECT_EQ(per_direction[dir(data_->holidays, data_->sales)], 1);
  EXPECT_EQ(per_direction[dir(data_->items, data_->sales)], 1);
  EXPECT_EQ(per_direction[dir(data_->sales, data_->items)], 1);
  EXPECT_EQ(per_direction.size(), 6u);
}

TEST_F(ViewGenerationTest, MergedViewsShareAcrossQueries) {
  const QueryBatch batch = MakeExampleBatch(*data_);
  auto workload = GenerateViews(batch, data_->catalog, data_->tree);
  ASSERT_TRUE(workload.ok());
  // V_{T->S} is consumed by Q1, Q2 (at Sales) and carries Q3's price
  // aggregate: it must have at least 2 slots (count, sum(price)).
  for (const ViewInfo& v : workload->views) {
    if (v.origin == data_->transactions && v.target == data_->sales) {
      EXPECT_GE(v.aggregates.size(), 2u);
    }
  }
}

TEST_F(ViewGenerationTest, NoMergingProducesPerQueryViews) {
  const QueryBatch batch = MakeExampleBatch(*data_);
  ViewGenerationOptions options;
  options.merge_views = false;
  auto workload = GenerateViews(batch, data_->catalog, data_->tree, options);
  ASSERT_TRUE(workload.ok());
  // Q1 and Q2 root at Sales (5 views each), Q3 at Items (5 views): 15 inner
  // views without sharing.
  EXPECT_EQ(workload->NumInnerViews(), 15);
}

TEST_F(ViewGenerationTest, AggregateDeduplicationWithinView) {
  // Two queries with the same aggregate from the same root produce one slot.
  QueryBatch batch;
  Query q1;
  q1.name = "a";
  q1.aggregates.push_back(Aggregate::Sum(data_->units));
  q1.root_hint = data_->items;
  batch.Add(std::move(q1));
  Query q2;
  q2.name = "b";
  q2.aggregates.push_back(Aggregate::Sum(data_->units));
  q2.root_hint = data_->items;
  batch.Add(std::move(q2));
  auto workload = GenerateViews(batch, data_->catalog, data_->tree);
  ASSERT_TRUE(workload.ok());
  for (const ViewInfo& v : workload->views) {
    if (v.origin == data_->sales && v.target == data_->items) {
      EXPECT_EQ(v.aggregates.size(), 1u) << "identical aggregates must merge";
    }
  }
}

TEST_F(ViewGenerationTest, ViewKeysAreSeparatorPlusPendingGroupBys) {
  QueryBatch batch;
  Query q;
  q.name = "cross";
  q.group_by = {data_->stype};  // Lives in StoRes; root will be StoRes.
  q.aggregates.push_back(Aggregate::Sum(data_->units));
  q.root_hint = data_->stores;
  batch.Add(std::move(q));
  auto workload = GenerateViews(batch, data_->catalog, data_->tree);
  ASSERT_TRUE(workload.ok());
  // The view Sales->Transactions exists and is keyed by the separator
  // {date, store} only (units is aggregated, no group-by below).
  bool found = false;
  for (const ViewInfo& v : workload->views) {
    if (v.origin == data_->sales && v.target == data_->transactions) {
      found = true;
      EXPECT_EQ(v.key, SortedUnique({data_->date, data_->store}));
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ViewGenerationTest, CountSlotsForUntouchedSubtrees) {
  // Q1 = SUM(units) rooted at Sales: subtrees under Transactions, Holidays,
  // Items contribute pure counts.
  QueryBatch batch;
  Query q;
  q.name = "q1";
  q.aggregates.push_back(Aggregate::Sum(data_->units));
  q.root_hint = data_->sales;
  batch.Add(std::move(q));
  auto workload = GenerateViews(batch, data_->catalog, data_->tree);
  ASSERT_TRUE(workload.ok());
  int count_views = 0;
  for (const ViewInfo& v : workload->views) {
    if (v.IsQueryOutput()) continue;
    ASSERT_EQ(v.aggregates.size(), 1u);
    // Each inner view's only slot must be a pure count: no local factors.
    EXPECT_TRUE(v.aggregates[0].local_factors.empty());
    ++count_views;
  }
  EXPECT_EQ(count_views, 5);
}

TEST_F(ViewGenerationTest, ValidatesBatch) {
  QueryBatch batch;
  Query bad;
  bad.aggregates.push_back(Aggregate::Sum(9999));
  batch.Add(std::move(bad));
  EXPECT_FALSE(GenerateViews(batch, data_->catalog, data_->tree).ok());
}

/// AddAggregate's registry idiom (SignatureIndex: the signature is an
/// input, and equality confirms every hit) with the signature forced, so a
/// collision between two different aggregates can be staged.
class ForcedSignatureSlots {
 public:
  int Add(uint64_t sig, const ViewAggregate& agg) {
    const int found = index_.Find(sig, [&](int slot) {
      return slots_[static_cast<size_t>(slot)] == agg;
    });
    if (found >= 0) return found;
    slots_.push_back(agg);
    const int slot = static_cast<int>(slots_.size()) - 1;
    index_.Add(sig, slot);
    return slot;
  }
  size_t size() const { return slots_.size(); }

 private:
  SignatureIndex index_;
  std::vector<ViewAggregate> slots_;
};

TEST(AggregateRegistryTest, CollidingSignaturesGetTwoSlots) {
  ViewAggregate units;
  units.local_factors.push_back(Factor{0, Function::Identity()});
  ViewAggregate count;
  count.child_refs.emplace_back(3, 1);
  ASSERT_FALSE(units == count);
  constexpr uint64_t kForced = 0x5eed;
  ForcedSignatureSlots slots;
  const int a = slots.Add(kForced, units);
  const int b = slots.Add(kForced, count);
  EXPECT_NE(a, b);
  EXPECT_EQ(slots.size(), 2u);
  // Equal aggregates still share their slot.
  EXPECT_EQ(slots.Add(kForced, units), a);
  EXPECT_EQ(slots.Add(kForced, count), b);
}

}  // namespace
}  // namespace lmfao
