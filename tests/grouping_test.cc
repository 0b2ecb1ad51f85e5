/// \file grouping_test.cc
/// \brief Tests of the Group Views step, including the exact 7-group
/// partition of Fig. 2 (right).

#include "engine/grouping.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "engine/view_generation.h"

namespace lmfao {
namespace {

class GroupingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 3000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
    auto workload =
        GenerateViews(MakeExampleBatch(*data_), data_->catalog, data_->tree);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(workload).value();
  }

  /// The group containing view/output `v`.
  const ViewGroup& GroupOf(const GroupedWorkload& grouped, ViewId v) {
    return grouped.groups[static_cast<size_t>(
        grouped.producer_group[static_cast<size_t>(v)])];
  }

  std::unique_ptr<FavoritaData> data_;
  Workload workload_;
};

TEST_F(GroupingTest, ExampleBatchProducesSevenGroups) {
  auto grouped = GroupViews(workload_, data_->catalog);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->groups.size(), 7u);
}

TEST_F(GroupingTest, Q1Q2ShareAGroupWithSalesToItemsView) {
  auto grouped = GroupViews(workload_, data_->catalog);
  ASSERT_TRUE(grouped.ok());
  // Q1 and Q2 outputs.
  const ViewId q1 = workload_.query_outputs[0];
  const ViewId q2 = workload_.query_outputs[1];
  const ViewId q3 = workload_.query_outputs[2];
  EXPECT_EQ(grouped->producer_group[static_cast<size_t>(q1)],
            grouped->producer_group[static_cast<size_t>(q2)]);
  // The Sales->Items view is in the same group (the paper's Group 6).
  ViewId sales_to_items = -1;
  ViewId items_to_sales = -1;
  for (const ViewInfo& v : workload_.views) {
    if (v.IsQueryOutput()) continue;
    if (v.origin == data_->sales && v.target == data_->items) {
      sales_to_items = v.id;
    }
    if (v.origin == data_->items && v.target == data_->sales) {
      items_to_sales = v.id;
    }
  }
  ASSERT_GE(sales_to_items, 0);
  ASSERT_GE(items_to_sales, 0);
  EXPECT_EQ(grouped->producer_group[static_cast<size_t>(q1)],
            grouped->producer_group[static_cast<size_t>(sales_to_items)]);
  // Q3 (at Items) must NOT share a group with V_{I->S}: that would create a
  // cycle through Group 6 (the paper keeps Groups 5 and 7 apart).
  EXPECT_NE(grouped->producer_group[static_cast<size_t>(q3)],
            grouped->producer_group[static_cast<size_t>(items_to_sales)]);
}

TEST_F(GroupingTest, DependencyGraphIsAcyclicAndComplete) {
  auto grouped = GroupViews(workload_, data_->catalog);
  ASSERT_TRUE(grouped.ok());
  const auto order = grouped->TopologicalOrder();
  EXPECT_EQ(order.size(), grouped->groups.size());
  // Every group's dependencies appear before it in the order.
  std::vector<int> position(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    position[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  for (const ViewGroup& g : grouped->groups) {
    for (int dep : g.depends_on) {
      EXPECT_LT(position[static_cast<size_t>(dep)],
                position[static_cast<size_t>(g.id)]);
    }
  }
}

TEST_F(GroupingTest, IncomingViewsAreReadByOutputsOnly) {
  auto grouped = GroupViews(workload_, data_->catalog);
  ASSERT_TRUE(grouped.ok());
  for (const ViewGroup& g : grouped->groups) {
    for (ViewId in : g.incoming) {
      // Incoming views are produced at other groups.
      EXPECT_NE(grouped->producer_group[static_cast<size_t>(in)], g.id);
      // And referenced by some output of this group.
      bool referenced = false;
      for (ViewId out : g.outputs) {
        for (const ViewAggregate& agg : workload_.view(out).aggregates) {
          for (const auto& [child, slot] : agg.child_refs) {
            (void)slot;
            referenced |= child == in;
          }
        }
      }
      EXPECT_TRUE(referenced);
    }
  }
}

TEST_F(GroupingTest, EveryViewProducedExactlyOnce) {
  auto grouped = GroupViews(workload_, data_->catalog);
  ASSERT_TRUE(grouped.ok());
  std::vector<int> produced(workload_.views.size(), 0);
  for (const ViewGroup& g : grouped->groups) {
    for (ViewId v : g.outputs) ++produced[static_cast<size_t>(v)];
  }
  for (int p : produced) EXPECT_EQ(p, 1);
}

TEST_F(GroupingTest, NoMultiOutputGivesOneGroupPerView) {
  GroupingOptions options;
  options.multi_output = false;
  auto grouped = GroupViews(workload_, data_->catalog, options);
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->groups.size(), workload_.views.size());
  for (const ViewGroup& g : grouped->groups) {
    EXPECT_EQ(g.outputs.size(), 1u);
  }
  // Still schedulable.
  EXPECT_EQ(grouped->TopologicalOrder().size(), grouped->groups.size());
}

TEST_F(GroupingTest, GroupNodesMatchViewOrigins) {
  auto grouped = GroupViews(workload_, data_->catalog);
  ASSERT_TRUE(grouped.ok());
  for (const ViewGroup& g : grouped->groups) {
    for (ViewId v : g.outputs) {
      EXPECT_EQ(workload_.view(v).origin, g.node);
    }
  }
}

}  // namespace
}  // namespace lmfao
