/// \file plan_test.cc
/// \brief Tests of register-program construction (Fig. 3's alpha/beta
/// structure, register sharing, multi-entry view handling).

#include "engine/plan.h"

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "engine/attribute_order.h"
#include "engine/grouping.h"
#include "engine/view_generation.h"

namespace lmfao {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 3000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
  }

  struct Compiled {
    Workload workload;
    GroupedWorkload grouped;
    std::vector<GroupPlan> plans;
  };

  Compiled Compile(const QueryBatch& batch, bool factorize = true) {
    Compiled out;
    auto workload = GenerateViews(batch, data_->catalog, data_->tree);
    EXPECT_TRUE(workload.ok()) << workload.status().ToString();
    out.workload = std::move(workload).value();
    auto grouped = GroupViews(out.workload, data_->catalog);
    EXPECT_TRUE(grouped.ok());
    out.grouped = std::move(grouped).value();
    for (const ViewGroup& g : out.grouped.groups) {
      auto order = ComputeAttributeOrder(out.workload, g, data_->catalog);
      EXPECT_TRUE(order.ok());
      PlanOptions options;
      options.factorize = factorize;
      auto plan =
          BuildGroupPlan(out.workload, g, data_->catalog, *order, options);
      EXPECT_TRUE(plan.ok()) << plan.status().ToString();
      out.plans.push_back(std::move(plan).value());
    }
    return out;
  }

  const GroupPlan& PlanWithQuery(const Compiled& c, QueryId q) {
    const ViewId out = c.workload.query_outputs[static_cast<size_t>(q)];
    return c.plans[static_cast<size_t>(
        c.grouped.producer_group[static_cast<size_t>(out)])];
  }

  std::unique_ptr<FavoritaData> data_;
};

TEST_F(PlanTest, Fig3GroupStructure) {
  // The group of Q1, Q2 and V_{S->I} over Sales, planned with Fig. 3's
  // order (item, date, store) rather than the cost model's.
  Compiled c = Compile(MakeExampleBatch(*data_));
  const ViewId q1 = c.workload.query_outputs[0];
  const ViewGroup& group = c.grouped.groups[static_cast<size_t>(
      c.grouped.producer_group[static_cast<size_t>(q1)])];
  const std::vector<AttrId> fig3_order = {data_->item, data_->date,
                                          data_->store};
  auto built = BuildGroupPlan(c.workload, group, data_->catalog, fig3_order);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const GroupPlan& plan = *built;
  // Order (item, date, store), three incoming views, three outputs
  // (Q1, Q2, V_{S->I}).
  EXPECT_EQ(plan.attr_order, fig3_order);
  EXPECT_EQ(plan.incoming.size(), 3u);
  EXPECT_EQ(plan.outputs.size(), 3u);
  // Q1 (no group-by) writes at level 0; Q2 (store) at level 3; V_{S->I}
  // (item) at level 1.
  std::vector<int> write_levels;
  for (const auto& o : plan.outputs) write_levels.push_back(o.write_level);
  std::sort(write_levels.begin(), write_levels.end());
  EXPECT_EQ(write_levels, (std::vector<int>{0, 1, 3}));
  // The leaf computes SUM(units) and the tuple count.
  EXPECT_GE(plan.leaf_sums.size(), 2u);
  // Loop-invariant code motion: alphas exist at the item level (the
  // V_{I->S} lookup of Fig. 3).
  EXPECT_FALSE(plan.alphas_at_level[1].empty());
}

TEST_F(PlanTest, RunningSumSharing) {
  // Q1 = SUM(units) and V_{S->I}'s SUM(units) share their beta chain
  // (Fig. 3's beta1 feeds both V_{S->I} and Q1's beta0).
  Compiled c = Compile(MakeExampleBatch(*data_));
  const GroupPlan& plan = PlanWithQuery(c, 0);
  // Betas exist, and there are fewer distinct betas than (outputs x levels):
  // sharing collapsed some chains.
  EXPECT_FALSE(plan.betas.empty());
  EXPECT_LT(plan.betas.size(),
            plan.outputs.size() * static_cast<size_t>(plan.num_levels()));
}

TEST_F(PlanTest, LeafSumDeduplication) {
  // Two queries with the same SUM(units) aggregate share one leaf sum.
  QueryBatch batch;
  for (int i = 0; i < 2; ++i) {
    Query q;
    q.name = "q" + std::to_string(i);
    q.aggregates.push_back(Aggregate::Sum(data_->units));
    q.root_hint = data_->sales;
    batch.Add(std::move(q));
  }
  Compiled c = Compile(batch);
  const GroupPlan& plan = PlanWithQuery(c, 0);
  int units_sums = 0;
  for (const auto& sum : plan.leaf_sums) {
    if (sum.factors.size() == 1) ++units_sums;
  }
  EXPECT_EQ(units_sums, 1);
}

TEST_F(PlanTest, MultiEntryViewForTravellingGroupBy) {
  // GROUP BY stype with root Items: stype travels through V_{T->S} and
  // V_{S->I}; at Items the incoming view is multi-entry.
  QueryBatch batch;
  Query q;
  q.name = "travel";
  q.group_by = {data_->stype, data_->item_class};
  q.aggregates.push_back(Aggregate::Count());
  q.root_hint = data_->items;
  batch.Add(std::move(q));
  Compiled c = Compile(batch);
  const GroupPlan& plan = PlanWithQuery(c, 0);
  ASSERT_EQ(plan.incoming.size(), 1u);
  EXPECT_TRUE(plan.incoming[0].IsMultiEntry());
  // The output's key has one level source (class) and one view-entry source
  // (stype).
  ASSERT_EQ(plan.outputs.size(), 1u);
  const auto& out = plan.outputs[0];
  int from_level = 0;
  int from_view = 0;
  for (const auto& src : out.key_sources) {
    if (src.from_level) {
      ++from_level;
    } else {
      ++from_view;
    }
  }
  EXPECT_EQ(from_level, 1);
  EXPECT_EQ(from_view, 1);
  ASSERT_EQ(out.key_views.size(), 1u);
  // The write carries the entry payload slot of the key view.
  bool found_write = false;
  for (const auto& writes : plan.writes_at_level) {
    for (const auto& w : writes) {
      found_write = true;
      EXPECT_EQ(w.entry_slots.size(), out.key_views.size());
    }
  }
  EXPECT_TRUE(found_write);
}

TEST_F(PlanTest, MarginalizedMultiEntryViewBecomesRangeSum) {
  // The view-generation layer keys every view of an output with the
  // output's own pending group-by attributes, so GenerateViews never yields
  // a marginalized multi-entry view; the plan builder nevertheless supports
  // the case defensively. Hand-build a workload where an output references
  // a multi-entry view whose extra attribute is NOT in the output's key:
  // the reference must lower to a range-sum part.
  Workload workload;
  // Inner view V0: Items -> Sales, key {item, stype} (stype is the extra).
  ViewInfo v0;
  v0.id = 0;
  v0.origin = data_->items;
  v0.target = data_->sales;
  v0.key = SortedUnique({data_->item, data_->stype});
  v0.aggregates.push_back(ViewAggregate{});  // COUNT.
  workload.views.push_back(v0);
  // Output query at Sales, grouped by store only, referencing V0 slot 0.
  ViewInfo out;
  out.id = 1;
  out.origin = data_->sales;
  out.target = kInvalidRelation;
  out.query_id = 0;
  out.key = {data_->store};
  ViewAggregate agg;
  agg.child_refs = {{0, 0}};
  out.aggregates.push_back(agg);
  workload.views.push_back(out);
  workload.query_outputs = {1};
  workload.roots = {data_->sales};

  ViewGroup group;
  group.id = 0;
  group.node = data_->sales;
  group.outputs = {1};
  group.incoming = {0};
  auto order = ComputeAttributeOrder(workload, group, data_->catalog);
  ASSERT_TRUE(order.ok());
  auto plan = BuildGroupPlan(workload, group, data_->catalog, *order);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->incoming.size(), 1u);
  EXPECT_TRUE(plan->incoming[0].IsMultiEntry());
  bool found_range_sum = false;
  auto scan = [&](const std::vector<PlanPart>& parts) {
    for (const PlanPart& p : parts) {
      found_range_sum |= p.kind == PlanPart::Kind::kViewRangeSum;
    }
  };
  for (const auto& a : plan->alphas) scan(a.parts);
  for (const auto& b : plan->betas) scan(b.parts);
  EXPECT_TRUE(found_range_sum);
  // The output has no key views: stype is marginalized, not iterated.
  EXPECT_TRUE(plan->outputs[0].key_views.empty());
}

TEST_F(PlanTest, NonFactorizedUsesLeafWrites) {
  Compiled c = Compile(MakeExampleBatch(*data_), /*factorize=*/false);
  for (const GroupPlan& plan : c.plans) {
    EXPECT_TRUE(plan.alphas.empty());
    EXPECT_TRUE(plan.betas.empty());
    EXPECT_FALSE(plan.leaf_writes.empty());
    EXPECT_FALSE(plan.factorized);
  }
}

TEST_F(PlanTest, ToStringResemblesFig3) {
  Compiled c = Compile(MakeExampleBatch(*data_));
  const GroupPlan& plan = PlanWithQuery(c, 0);
  const std::string s = plan.ToString(c.workload, data_->catalog);
  EXPECT_NE(s.find("foreach item"), std::string::npos);
  EXPECT_NE(s.find("foreach date"), std::string::npos);
  EXPECT_NE(s.find("foreach store"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("foreach tuple"), std::string::npos);
}

TEST_F(PlanTest, LevelColumnsResolveToRelation) {
  Compiled c = Compile(MakeExampleBatch(*data_));
  for (size_t g = 0; g < c.plans.size(); ++g) {
    const GroupPlan& plan = c.plans[g];
    const Relation& rel = data_->catalog.relation(plan.node);
    for (int i = 0; i < plan.num_levels(); ++i) {
      const int col = plan.level_column[static_cast<size_t>(i)];
      ASSERT_GE(col, 0);
      EXPECT_EQ(rel.schema().attr(col),
                plan.attr_order[static_cast<size_t>(i)]);
    }
  }
}

}  // namespace
}  // namespace lmfao
