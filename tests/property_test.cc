/// \file property_test.cc
/// \brief Randomized property tests: on randomly generated acyclic
/// databases and randomly generated query batches, the engine must agree
/// with the materialize-join + scan baseline under every engine
/// configuration. This is the broadest correctness net in the suite —
/// random join-tree shapes, random factor products, random group-bys
/// (including attributes travelling across relations), skewed data with
/// dangling keys (non-FK joins).

#include <sstream>

#include <gtest/gtest.h>

#include "baseline/join.h"
#include "baseline/naive_engine.h"
#include "differential_harness.h"
#include "engine/engine.h"
#include "util/random.h"

namespace lmfao {
namespace {

/// A random acyclic database: a random tree of 3-6 relations, each with its
/// parent separator (1-2 attributes), 0-2 private int attributes and 0-2
/// double attributes. Key values are drawn from small domains WITHOUT
/// foreign-key completeness, so joins genuinely filter.
struct RandomDatabase {
  Catalog catalog;
  JoinTree tree;
  std::vector<AttrId> int_attrs;
  std::vector<AttrId> double_attrs;
};

RandomDatabase MakeRandomDatabase(Rng* rng) {
  RandomDatabase db;
  const int num_relations = static_cast<int>(rng->UniformInt(3, 6));
  std::vector<std::pair<RelationId, RelationId>> edges;
  std::vector<std::vector<std::string>> rel_attrs(
      static_cast<size_t>(num_relations));
  int attr_counter = 0;
  auto new_int_attr = [&]() {
    const std::string name = "i" + std::to_string(attr_counter++);
    const AttrId id = db.catalog.AddAttribute(name, AttrType::kInt).value();
    db.int_attrs.push_back(id);
    return name;
  };
  auto new_double_attr = [&]() {
    const std::string name = "d" + std::to_string(attr_counter++);
    const AttrId id =
        db.catalog.AddAttribute(name, AttrType::kDouble).value();
    db.double_attrs.push_back(id);
    return name;
  };
  for (int r = 0; r < num_relations; ++r) {
    if (r > 0) {
      // Attach to a random earlier relation with a 1-2 attribute separator.
      const int parent = static_cast<int>(rng->UniformInt(0, r - 1));
      edges.emplace_back(parent, r);
      const int sep = static_cast<int>(rng->UniformInt(1, 2));
      for (int s = 0; s < sep; ++s) {
        const std::string name = new_int_attr();
        rel_attrs[static_cast<size_t>(parent)].push_back(name);
        rel_attrs[static_cast<size_t>(r)].push_back(name);
      }
    }
    const int private_ints = static_cast<int>(rng->UniformInt(0, 2));
    for (int i = 0; i < private_ints; ++i) {
      rel_attrs[static_cast<size_t>(r)].push_back(new_int_attr());
    }
    const int doubles = static_cast<int>(rng->UniformInt(0, 2));
    for (int i = 0; i < doubles; ++i) {
      rel_attrs[static_cast<size_t>(r)].push_back(new_double_attr());
    }
  }
  for (int r = 0; r < num_relations; ++r) {
    if (rel_attrs[static_cast<size_t>(r)].empty()) {
      rel_attrs[static_cast<size_t>(r)].push_back(new_int_attr());
    }
    LMFAO_CHECK(db.catalog
                    .AddRelation("R" + std::to_string(r),
                                 rel_attrs[static_cast<size_t>(r)])
                    .ok());
  }
  // Rows: small domains so keys collide and also dangle.
  for (RelationId r = 0; r < num_relations; ++r) {
    Relation& rel = db.catalog.mutable_relation(r);
    const int rows = static_cast<int>(rng->UniformInt(5, 120));
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row;
      for (int c = 0; c < rel.schema().arity(); ++c) {
        if (rel.column(c).type() == AttrType::kInt) {
          row.push_back(Value::Int(rng->UniformInt(0, 6)));
        } else {
          row.push_back(Value::Double(rng->UniformDouble(-2.0, 2.0)));
        }
      }
      rel.AppendRowUnchecked(row);
    }
  }
  db.catalog.RefreshDomainSizes();
  db.tree = JoinTree::FromEdges(db.catalog, edges).value();
  return db;
}

/// A random batch of 1-6 queries with random group-bys and factor products
/// (identity, square, indicators, and shared dictionary functions).
QueryBatch MakeRandomBatch(const RandomDatabase& db, Rng* rng) {
  auto dict = std::make_shared<FunctionDict>();
  dict->name = "rnd";
  dict->default_value = 0.5;
  for (int64_t k = 0; k <= 6; ++k) {
    dict->table[k] = rng->UniformDouble(-1.5, 1.5);
  }
  QueryBatch batch;
  const int num_queries = static_cast<int>(rng->UniformInt(1, 6));
  for (int qi = 0; qi < num_queries; ++qi) {
    Query q;
    q.name = "q" + std::to_string(qi);
    const int group_arity = static_cast<int>(rng->UniformInt(0, 3));
    for (int g = 0; g < group_arity; ++g) {
      q.group_by.push_back(db.int_attrs[rng->Uniform(db.int_attrs.size())]);
    }
    const int num_aggs = static_cast<int>(rng->UniformInt(1, 3));
    for (int a = 0; a < num_aggs; ++a) {
      std::vector<Factor> factors;
      const int num_factors = static_cast<int>(rng->UniformInt(0, 3));
      for (int f = 0; f < num_factors; ++f) {
        const bool use_double =
            !db.double_attrs.empty() && rng->Bernoulli(0.5);
        const AttrId attr =
            use_double ? db.double_attrs[rng->Uniform(db.double_attrs.size())]
                       : db.int_attrs[rng->Uniform(db.int_attrs.size())];
        switch (rng->UniformInt(0, 4)) {
          case 0:
            factors.push_back(Factor{attr, Function::Identity()});
            break;
          case 1:
            factors.push_back(Factor{attr, Function::Square()});
            break;
          case 2:
            factors.push_back(
                Factor{attr, Function::Indicator(FunctionKind::kIndicatorLe,
                                                 rng->UniformDouble(-1, 4))});
            break;
          case 3:
            factors.push_back(
                Factor{attr, Function::Indicator(FunctionKind::kIndicatorNe,
                                                 rng->UniformInt(0, 6))});
            break;
          default:
            // Dictionaries key on integers; use an int attribute.
            factors.push_back(
                Factor{db.int_attrs[rng->Uniform(db.int_attrs.size())],
                       Function::Dictionary(dict)});
            break;
        }
      }
      q.aggregates.push_back(Aggregate(std::move(factors)));
    }
    batch.Add(std::move(q));
  }
  return batch;
}

class EngineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzzTest, AgreesWithBaselineAcrossConfigs) {
  LMFAO_REPRO_TRACE(GetParam());
  Rng rng(GetParam());
  const RandomDatabase db = MakeRandomDatabase(&rng);
  const QueryBatch batch = MakeRandomBatch(db, &rng);

  auto joined = MaterializeJoin(db.catalog, db.tree, 0);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  auto baseline = EvaluateBatchSharedScan(*joined, batch);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  struct Config {
    bool merge;
    bool multi;
    bool factorize;
    int threads;           // 1 = sequential.
    bool task = true;
    bool domain = true;
    int64_t min_shard_rows = 4096;
  };
  const std::vector<Config> configs = {
      {true, true, true, 1},
      {false, true, true, 1},
      {true, false, true, 1},
      {true, true, false, 1},
      // Hybrid (the default parallel path), with sharding forced on every
      // group by the min_shard_rows=1 floor.
      {true, true, true, 3, true, true, 1},
      // Task-only and domain-only degenerations.
      {true, true, true, 3, true, false},
      {true, true, true, 3, false, true, 1},
  };
  for (const Config& config : configs) {
    EngineOptions options;
    options.view_generation.merge_views = config.merge;
    options.grouping.multi_output = config.multi;
    options.plan.factorize = config.factorize;
    options.scheduler.num_threads = config.threads;
    options.scheduler.task_parallel = config.task;
    options.scheduler.domain_parallel = config.domain;
    options.scheduler.min_shard_rows = config.min_shard_rows;
    Engine engine(&db.catalog, &db.tree, options);
    auto result = engine.Evaluate(batch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::ostringstream label;
    label << "vs baseline, merge=" << config.merge
          << " multi=" << config.multi << " factorize=" << config.factorize
          << " threads=" << config.threads << " task=" << config.task
          << " domain=" << config.domain;
    ::lmfao::testing::ExpectResultsMatch(result->results, *baseline, 1e-7,
                                         label.str());
  }
}

/// Differential pin of the hybrid scheduler against sequential execution on
/// randomized schemas: beyond baseline agreement, the two engine paths must
/// agree bitwise-ish (same tolerance) on every query, and the runtime's
/// eager eviction must never report more live views than the workload has.
TEST_P(EngineFuzzTest, HybridMatchesSequential) {
  LMFAO_REPRO_TRACE(GetParam() + 1000);
  Rng rng(GetParam() + 1000);
  const RandomDatabase db = MakeRandomDatabase(&rng);
  const QueryBatch batch = MakeRandomBatch(db, &rng);

  Engine seq(&db.catalog, &db.tree, EngineOptions{});
  auto ref = seq.Evaluate(batch);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  EngineOptions options;
  options.scheduler.num_threads = 4;
  options.scheduler.min_shard_rows = 1;  // Shard every group.
  Engine hybrid(&db.catalog, &db.tree, options);
  auto got = hybrid.Evaluate(batch);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  ::lmfao::testing::ExpectResultsMatch(got->results, ref->results, 1e-9,
                                       "hybrid vs sequential");
  const size_t total_views = static_cast<size_t>(got->stats.num_views) +
                             static_cast<size_t>(got->stats.num_queries);
  EXPECT_LE(got->stats.peak_live_views, total_views);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest,
                         ::testing::Range<uint64_t>(1, 61));

}  // namespace
}  // namespace lmfao
