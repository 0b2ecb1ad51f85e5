/// \file attribute_order_test.cc
/// \brief Tests of the per-group attribute-order cost model: the chosen
/// order is the cheapest permutation (lexicographically smallest among
/// equals) on the Favorita and Retailer batches, and the model's cost of a
/// hand-built group matches the formula worked by hand.

#include "engine/attribute_order.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "data/retailer.h"
#include "engine/grouping.h"
#include "engine/view_generation.h"
#include "ml/feature.h"

namespace lmfao {
namespace {

struct Compiled {
  Workload workload;
  GroupedWorkload grouped;
};

Compiled Compile(const QueryBatch& batch, const Catalog& catalog,
                 const JoinTree& tree) {
  Compiled out;
  auto workload = GenerateViews(batch, catalog, tree);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  if (!workload.ok()) return out;
  out.workload = std::move(workload).value();
  auto grouped = GroupViews(out.workload, catalog);
  EXPECT_TRUE(grouped.ok()) << grouped.status().ToString();
  if (grouped.ok()) out.grouped = std::move(grouped).value();
  return out;
}

/// Checks every group: the chosen order is a permutation of the group's
/// trie attributes, no permutation costs less, and none of equal cost is
/// lexicographically smaller.
void ExpectCheapestOrders(const Compiled& c, const Catalog& catalog) {
  ASSERT_FALSE(c.grouped.groups.empty());
  for (const ViewGroup& g : c.grouped.groups) {
    auto order = ComputeAttributeOrder(c.workload, g, catalog);
    ASSERT_TRUE(order.ok()) << order.status().ToString();
    auto chosen = EstimateOrderCost(c.workload, g, catalog, *order);
    ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
    // next_permutation from the sorted order enumerates in lexicographic
    // order, so the first strict minimum is the tie rule's pick.
    std::vector<AttrId> perm = *order;
    std::sort(perm.begin(), perm.end());
    std::vector<AttrId> best;
    int64_t best_cost = 0;
    do {
      auto cost = EstimateOrderCost(c.workload, g, catalog, perm);
      ASSERT_TRUE(cost.ok()) << cost.status().ToString();
      if (best.empty() || *cost < best_cost) {
        best = perm;
        best_cost = *cost;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_EQ(*chosen, best_cost) << "group " << g.id;
    EXPECT_EQ(*order, best) << "group " << g.id;
  }
}

class AttributeOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 3000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
    example_ = Compile(MakeExampleBatch(*data_), data_->catalog, data_->tree);
  }

  std::unique_ptr<FavoritaData> data_;
  Compiled example_;
};

TEST_F(AttributeOrderTest, OrdersContainOnlyRelationAttrs) {
  for (const ViewGroup& g : example_.grouped.groups) {
    auto order = ComputeAttributeOrder(example_.workload, g, data_->catalog);
    ASSERT_TRUE(order.ok());
    const auto& rel_attrs = data_->catalog.relation(g.node).schema();
    for (AttrId a : *order) {
      EXPECT_TRUE(rel_attrs.Contains(a))
          << data_->catalog.attr(a).name << " not in "
          << data_->catalog.relation(g.node).name();
    }
  }
}

TEST_F(AttributeOrderTest, CoversAllRelationKeyAttrs) {
  for (const ViewGroup& g : example_.grouped.groups) {
    auto order = ComputeAttributeOrder(example_.workload, g, data_->catalog);
    ASSERT_TRUE(order.ok());
    const auto& rel = data_->catalog.relation(g.node);
    std::vector<ViewId> views = g.incoming;
    views.insert(views.end(), g.outputs.begin(), g.outputs.end());
    for (ViewId v : views) {
      for (AttrId a : example_.workload.view(v).key) {
        if (rel.schema().Contains(a)) {
          EXPECT_TRUE(std::find(order->begin(), order->end(), a) !=
                      order->end());
        }
      }
    }
  }
}

TEST_F(AttributeOrderTest, DeterministicAcrossCalls) {
  for (const ViewGroup& g : example_.grouped.groups) {
    auto a = ComputeAttributeOrder(example_.workload, g, data_->catalog);
    auto b = ComputeAttributeOrder(example_.workload, g, data_->catalog);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

TEST_F(AttributeOrderTest, ExampleBatchOrdersAreCheapest) {
  ExpectCheapestOrders(example_, data_->catalog);
}

/// Every two-attribute GROUP BY over Favorita's 14 key and categorical
/// attributes (91 queries) in one batch.
TEST_F(AttributeOrderTest, PairsBatchOrdersAreCheapest) {
  const FavoritaData& d = *data_;
  const std::vector<AttrId> attrs = {
      d.date,   d.store,      d.item,        d.promo,    // Sales
      d.htype,  d.locale,     d.transferred,             // Holidays
      d.city,   d.state,      d.stype,       d.cluster,  // StoRes
      d.family, d.item_class, d.perishable};             // Items
  QueryBatch batch;
  for (size_t i = 0; i < attrs.size(); ++i) {
    for (size_t j = i + 1; j < attrs.size(); ++j) {
      Query q;
      q.name = "pair" + std::to_string(batch.size());
      q.group_by = {attrs[i], attrs[j]};
      q.aggregates.push_back(Aggregate::Count());
      batch.Add(std::move(q));
    }
  }
  ASSERT_EQ(batch.size(), 91);
  ExpectCheapestOrders(Compile(batch, d.catalog, d.tree), d.catalog);
}

/// The covariance batch at the benchmark's Retailer dimensions.
TEST(AttributeOrderRetailerTest, CovarianceOrdersAreCheapest) {
  RetailerOptions options;
  options.num_inventory = 200000;
  options.num_locations = 100;
  options.num_dates = 200;
  options.num_items = 2000;
  options.num_zips = 50;
  auto data = MakeRetailer(options);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const RetailerData& db = **data;
  FeatureSet features;
  features.label = db.inventoryunits;
  for (AttrId a : db.continuous) {
    if (a != db.inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = db.categorical;
  auto cov = BuildCovarianceBatch(features, db.catalog);
  ASSERT_TRUE(cov.ok()) << cov.status().ToString();
  const Compiled c = Compile(cov->batch, db.catalog, db.tree);
  ExpectCheapestOrders(c, db.catalog);

  // The Inventory group: the 435-wide Location view binds on locn, so the
  // 2,000-value ksn must not lead (it did under the outgoing-keys-first
  // rule, multiplying the trie nodes where that view binds by ~1,000).
  int inventory_groups = 0;
  for (const ViewGroup& g : c.grouped.groups) {
    if (g.node != db.inventory) continue;
    ++inventory_groups;
    auto order = ComputeAttributeOrder(c.workload, g, db.catalog);
    ASSERT_TRUE(order.ok());
    ASSERT_FALSE(order->empty());
    EXPECT_NE(order->front(), db.ksn) << "group " << g.id;
  }
  EXPECT_EQ(inventory_groups, 1);
}

/// A hand-built group over R(a, b) with |R| = 100, d(a) = 10 and
/// d(b) = 20: an incoming view keyed on b (width 5) and two outputs, one
/// keyed on a (width 3) and one on (a, b) (width 7), which binds only
/// once both are placed.
///   (a, b): 10 * (1 + 3) + min(100, 200) * (1 + 5 + 7) = 1340
///   (b, a): 20 * (1 + 5) + min(100, 200) * (1 + 3 + 7) = 1220
TEST(AttributeOrderCostTest, MatchesTheFormulaByHand) {
  Catalog catalog;
  auto a = catalog.AddAttribute("a", AttrType::kInt, 10);
  auto b = catalog.AddAttribute("b", AttrType::kInt, 20);
  ASSERT_TRUE(a.ok() && b.ok());
  auto r = catalog.AddRelation("R", {"a", "b"});
  ASSERT_TRUE(r.ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({Value::Int(i % 10), Value::Int(i % 20)});
  }
  ASSERT_TRUE(catalog.AppendRows(*r, rows).ok());

  Workload workload;
  ViewInfo in;
  in.id = 0;
  in.target = *r;
  in.key = {*b};
  in.aggregates.resize(5);
  ViewInfo out;
  out.id = 1;
  out.origin = *r;
  out.query_id = 0;
  out.key = {*a};
  out.aggregates.resize(3);
  ViewInfo pair_out;
  pair_out.id = 2;
  pair_out.origin = *r;
  pair_out.query_id = 1;
  pair_out.key = {*a, *b};
  pair_out.aggregates.resize(7);
  workload.views = {in, out, pair_out};
  ViewGroup group;
  group.id = 0;
  group.node = *r;
  group.incoming = {0};
  group.outputs = {1, 2};

  auto cost_ab = EstimateOrderCost(workload, group, catalog, {*a, *b});
  auto cost_ba = EstimateOrderCost(workload, group, catalog, {*b, *a});
  ASSERT_TRUE(cost_ab.ok() && cost_ba.ok());
  EXPECT_EQ(*cost_ab, 1340);
  EXPECT_EQ(*cost_ba, 1220);
  auto order = ComputeAttributeOrder(workload, group, catalog);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(*order, (std::vector<AttrId>{*b, *a}));

  // Not a permutation of {a, b}.
  EXPECT_FALSE(EstimateOrderCost(workload, group, catalog, {*a}).ok());
  EXPECT_FALSE(EstimateOrderCost(workload, group, catalog, {*a, *a}).ok());

  // With both widths equal the orders tie only when the domains do too;
  // then the smaller AttrId leads.
  catalog.mutable_attr(*b).domain_size = 10;
  workload.views[0].aggregates.resize(3);
  auto tied = ComputeAttributeOrder(workload, group, catalog);
  ASSERT_TRUE(tied.ok());
  EXPECT_EQ(*tied, (std::vector<AttrId>{std::min(*a, *b), std::max(*a, *b)}));
}

}  // namespace
}  // namespace lmfao
