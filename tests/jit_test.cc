/// \file jit_test.cc
/// \brief The runtime JIT backend, pinned differentially: for every batch
/// the native code path must produce results equal to the interpreter —
/// bit-for-bit (rel_tol 0.0) on integer-exact data, where summation order
/// cannot matter — across randomized schemas, dictionary functions,
/// parameterized thresholds, and append/ExecuteDelta schedules; plus the
/// observability contract (backend tags, plan-cache JIT counters) and
/// graceful degradation when no working compiler is available
/// (LMFAO_JIT_CC=/bin/false ends in a failed module and an interpreter
/// execution, never an error).

#include <dirent.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "data/retailer.h"
#include "differential_harness.h"
#include "engine/engine.h"
#include "ml/feature.h"
#include "util/random.h"

namespace lmfao {
namespace {

using ::lmfao::testing::AppendSchedule;
using ::lmfao::testing::ExpectResultsMatch;

EngineOptions JitOptionsSync() {
  EngineOptions options;
  options.jit.mode = JitMode::kSync;
  return options;
}

/// JIT plus in-group domain shards on every group with two or more rows:
/// the native functions scan key-aligned row ranges of the sorted relation.
EngineOptions JitDomainShardedOptions() {
  EngineOptions options = JitOptionsSync();
  options.scheduler.num_threads = 3;
  options.scheduler.task_parallel = false;
  options.scheduler.min_shard_rows = 1;
  return options;
}

EngineOptions InterpOptions() {
  EngineOptions options;
  options.jit.mode = JitMode::kOff;
  return options;
}

/// True when this environment can actually JIT (a sandbox may block the
/// compiler subprocess or dlopen); probed once. JIT-specific assertions
/// skip when it cannot, but the graceful-fallback path is still tested.
bool JitAvailable() {
  static const bool available = [] {
    // LMFAO_JIT=off is the explicit kill switch (sanitizer CI jobs set it:
    // dlopen of uninstrumented modules is outside their contract).
    const char* env = std::getenv("LMFAO_JIT");
    if (env != nullptr && std::string(env) == "off") return false;
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 200});
    if (!data.ok()) return false;
    Engine engine(&(*data)->catalog, &(*data)->tree, JitOptionsSync());
    auto prepared = engine.Prepare(MakeExampleBatch(**data));
    if (!prepared.ok()) return false;
    auto result = prepared->Execute();
    return result.ok() && result->stats.groups_jit > 0;
  }();
  return available;
}

#define LMFAO_REQUIRE_JIT()                                              \
  do {                                                                   \
    if (!JitAvailable()) {                                               \
      GTEST_SKIP() << "no working JIT toolchain in this environment";    \
    }                                                                    \
  } while (0)

// --- Randomized differential suite (integer-exact data, rel_tol 0.0) ----

/// A random acyclic database with integer-exact values (every double
/// column holds small integers), so every aggregate sum is exact and
/// bit-for-bit comparison across backends is meaningful.
struct ExactDatabase {
  Catalog catalog;
  JoinTree tree;
  std::vector<AttrId> int_attrs;
  std::vector<AttrId> double_attrs;
};

ExactDatabase MakeExactDatabase(Rng* rng) {
  ExactDatabase db;
  const int num_relations = static_cast<int>(rng->UniformInt(3, 4));
  std::vector<std::pair<RelationId, RelationId>> edges;
  std::vector<std::vector<std::string>> rel_attrs(
      static_cast<size_t>(num_relations));
  int attr_counter = 0;
  auto new_int_attr = [&]() {
    const std::string name = "i" + std::to_string(attr_counter++);
    db.int_attrs.push_back(
        db.catalog.AddAttribute(name, AttrType::kInt).value());
    return name;
  };
  auto new_double_attr = [&]() {
    const std::string name = "d" + std::to_string(attr_counter++);
    db.double_attrs.push_back(
        db.catalog.AddAttribute(name, AttrType::kDouble).value());
    return name;
  };
  for (int r = 0; r < num_relations; ++r) {
    if (r > 0) {
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
    const int doubles = static_cast<int>(rng->UniformInt(0, 1));
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
  for (RelationId r = 0; r < num_relations; ++r) {
    Relation& rel = db.catalog.mutable_relation(r);
    const int rows = static_cast<int>(rng->UniformInt(5, 60));
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row;
      for (int c = 0; c < rel.schema().arity(); ++c) {
        const int64_t v = rng->UniformInt(-3, 3);
        if (rel.column(c).type() == AttrType::kInt) {
          row.push_back(Value::Int(v));
        } else {
          row.push_back(Value::Double(static_cast<double>(v)));
        }
      }
      rel.AppendRowUnchecked(row);
    }
  }
  db.catalog.RefreshDomainSizes();
  db.tree = JoinTree::FromEdges(db.catalog, edges).value();
  return db;
}

/// A random batch whose every factor is integer-exact, including
/// dictionary functions and (sometimes) parameterized indicators whose
/// thresholds come from the supplied pack.
QueryBatch MakeExactBatch(const ExactDatabase& db, Rng* rng,
                          ParamPack* params) {
  auto dict = std::make_shared<FunctionDict>();
  dict->name = "exact";
  dict->default_value = 1.0;
  for (int64_t k = -3; k <= 3; ++k) {
    dict->table[k] = static_cast<double>(rng->UniformInt(-2, 2));
  }
  QueryBatch batch;
  ParamId next_param = 0;
  const int num_queries = static_cast<int>(rng->UniformInt(1, 4));
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
      const int num_factors = static_cast<int>(rng->UniformInt(0, 2));
      for (int f = 0; f < num_factors; ++f) {
        const bool use_double =
            !db.double_attrs.empty() && rng->Bernoulli(0.5);
        const AttrId attr =
            use_double
                ? db.double_attrs[rng->Uniform(db.double_attrs.size())]
                : db.int_attrs[rng->Uniform(db.int_attrs.size())];
        switch (rng->UniformInt(0, 4)) {
          case 0:
            factors.push_back(Factor{attr, Function::Identity()});
            break;
          case 1:
            factors.push_back(Factor{attr, Function::Square()});
            break;
          case 2:
            factors.push_back(Factor{
                attr, Function::Indicator(
                          FunctionKind::kIndicatorLe,
                          static_cast<double>(rng->UniformInt(-2, 2)))});
            break;
          case 3: {
            const ParamId p = next_param++;
            params->Set(p, static_cast<double>(rng->UniformInt(-2, 2)));
            factors.push_back(Factor{
                attr,
                Function::IndicatorParam(FunctionKind::kIndicatorGe, p)});
            break;
          }
          default:
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

void AppendRandomRows(ExactDatabase* db, Rng* rng,
                      AppendSchedule* schedule) {
  const int touched = static_cast<int>(rng->UniformInt(0, 2));
  for (int t = 0; t < touched; ++t) {
    const RelationId r = static_cast<RelationId>(
        rng->UniformInt(0, db->catalog.num_relations() - 1));
    const Relation& rel = db->catalog.relation(r);
    const int rows = static_cast<int>(rng->UniformInt(0, 5));
    std::vector<std::vector<Value>> batch_rows;
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row;
      for (int c = 0; c < rel.num_columns(); ++c) {
        const int64_t v = rng->UniformInt(-3, 3);
        row.push_back(rel.column(c).type() == AttrType::kInt
                          ? Value::Int(v)
                          : Value::Double(static_cast<double>(v)));
      }
      batch_rows.push_back(std::move(row));
    }
    ASSERT_TRUE(db->catalog.AppendRows(r, batch_rows).ok());
    schedule->Record(rel.name(), static_cast<size_t>(rows));
  }
}

class JitFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// The core contract: JIT and interpreter executions of the same prepared
/// batch agree bit-for-bit on integer-exact data — through full executes
/// AND through append/ExecuteDelta refresh schedules.
TEST_P(JitFuzzTest, BackendsAgreeBitForBitThroughAppendSchedules) {
  LMFAO_REQUIRE_JIT();
  Rng rng(GetParam() * 977 + 5);
  ExactDatabase db = MakeExactDatabase(&rng);
  ParamPack params;
  const QueryBatch batch = MakeExactBatch(db, &rng, &params);
  AppendSchedule schedule;
  LMFAO_REPRO_TRACE(GetParam() * 977 + 5);

  Engine jit_engine(&db.catalog, &db.tree, JitOptionsSync());
  Engine domain_engine(&db.catalog, &db.tree, JitDomainShardedOptions());
  Engine interp_engine(&db.catalog, &db.tree, InterpOptions());

  auto jit_prepared = jit_engine.Prepare(batch);
  auto domain_prepared = domain_engine.Prepare(batch);
  auto interp_prepared = interp_engine.Prepare(batch);
  ASSERT_TRUE(jit_prepared.ok()) << jit_prepared.status().ToString();
  ASSERT_TRUE(domain_prepared.ok()) << domain_prepared.status().ToString();
  ASSERT_TRUE(interp_prepared.ok()) << interp_prepared.status().ToString();
  // In-group domain shards hand the native functions key-aligned row
  // ranges of the sorted relation.
  auto check_domain_sharded = [&](const BatchResult& expected,
                                  const std::string& label) {
    auto sharded = domain_prepared->Execute(params);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_GT(sharded->stats.groups_jit, 0);
    bool any_sharded = false;
    for (const GroupStats& gs : sharded->stats.groups) {
      any_sharded = any_sharded || gs.shards > 1;
    }
    EXPECT_TRUE(any_sharded) << label << ": no group domain-sharded";
    ExpectResultsMatch(sharded->results, expected.results, 0.0,
                       label + ": jit domain-sharded vs interp");
  };

  auto jit_result = jit_prepared->Execute(params);
  auto interp_result = interp_prepared->Execute(params);
  ASSERT_TRUE(jit_result.ok()) << jit_result.status().ToString();
  ASSERT_TRUE(interp_result.ok()) << interp_result.status().ToString();

  // At least the leaf groups (no incoming views) always JIT; groups can
  // individually fall back only for unsupported view layouts.
  EXPECT_GT(jit_result->stats.groups_jit, 0);
  EXPECT_EQ(interp_result->stats.groups_jit, 0);
  EXPECT_EQ(interp_result->stats.backend, "interp");

  ExpectResultsMatch(jit_result->results, interp_result->results, 0.0,
                     "jit vs interp (initial)");
  // The sharded split hands the native functions each shard's slice.
  auto jit_sharded = jit_prepared->ExecuteSharded(3, params);
  ASSERT_TRUE(jit_sharded.ok()) << jit_sharded.status().ToString();
  EXPECT_GT(jit_sharded->stats.groups_jit, 0);
  ExpectResultsMatch(jit_sharded->results, interp_result->results, 0.0,
                     "jit sharded vs interp (initial)");
  ASSERT_NO_FATAL_FAILURE(check_domain_sharded(*interp_result, "initial"));

  for (int round = 0; round < 3; ++round) {
    ASSERT_NO_FATAL_FAILURE(AppendRandomRows(&db, &rng, &schedule));
    LMFAO_REPRO_TRACE(GetParam() * 977 + 5, schedule);
    auto jit_delta = jit_prepared->ExecuteDelta(*jit_result, params);
    auto interp_delta =
        interp_prepared->ExecuteDelta(*interp_result, params);
    ASSERT_TRUE(jit_delta.ok()) << jit_delta.status().ToString();
    ASSERT_TRUE(interp_delta.ok()) << interp_delta.status().ToString();
    ExpectResultsMatch(jit_delta->results, interp_delta->results, 0.0,
                       "round " + std::to_string(round) +
                           ": jit delta vs interp delta");
    // And against a full recompute on the JIT backend itself.
    auto jit_full = jit_prepared->Execute(params);
    ASSERT_TRUE(jit_full.ok()) << jit_full.status().ToString();
    ExpectResultsMatch(jit_delta->results, jit_full->results, 0.0,
                       "round " + std::to_string(round) +
                           ": jit delta vs jit full recompute");
    ASSERT_NO_FATAL_FAILURE(check_domain_sharded(
        *interp_delta, "round " + std::to_string(round)));
    jit_result = std::move(jit_delta);
    interp_result = std::move(interp_delta);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

// --- Paper workloads ----------------------------------------------------

/// Retailer covariance batch: the 814-query regime the JIT targets. The
/// generated data is not integer-exact, and the native code hoists leaf
/// writes differently than the interpreter, so a small relative tolerance
/// stands in for bit-equality here (the exact-data fuzz suite above pins
/// the semantics).
TEST(JitWorkloadTest, RetailerCovarianceMatchesInterpreter) {
  LMFAO_REQUIRE_JIT();
  RetailerOptions options;
  options.num_inventory = 20000;
  auto data = MakeRetailer(options);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  RetailerData& db = **data;
  FeatureSet features;
  features.label = db.inventoryunits;
  for (AttrId a : db.continuous) {
    if (a != db.inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = db.categorical;
  auto cov = BuildCovarianceBatch(features, db.catalog);
  ASSERT_TRUE(cov.ok()) << cov.status().ToString();

  Engine jit_engine(&db.catalog, &db.tree, JitOptionsSync());
  Engine interp_engine(&db.catalog, &db.tree, InterpOptions());
  auto jit_result = jit_engine.Evaluate(cov->batch);
  auto interp_result = interp_engine.Evaluate(cov->batch);
  ASSERT_TRUE(jit_result.ok()) << jit_result.status().ToString();
  ASSERT_TRUE(interp_result.ok()) << interp_result.status().ToString();
  EXPECT_GT(jit_result->stats.groups_jit, 0);
  ExpectResultsMatch(jit_result->results, interp_result->results, 1e-9,
                     "retailer covariance: jit vs interp");
}

TEST(JitWorkloadTest, FavoritaExampleBatchMatchesInterpreter) {
  LMFAO_REQUIRE_JIT();
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 20000});
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  FavoritaData& db = **data;
  const QueryBatch batch = MakeExampleBatch(db);

  Engine jit_engine(&db.catalog, &db.tree, JitOptionsSync());
  Engine interp_engine(&db.catalog, &db.tree, InterpOptions());
  auto jit_result = jit_engine.Evaluate(batch);
  auto interp_result = interp_engine.Evaluate(batch);
  ASSERT_TRUE(jit_result.ok()) << jit_result.status().ToString();
  ASSERT_TRUE(interp_result.ok()) << interp_result.status().ToString();
  // Every group runs natively: the whole batch's unit compiles, and no
  // group needs an interpreter fallback.
  EXPECT_EQ(jit_result->stats.num_groups, 7);
  EXPECT_EQ(jit_result->stats.groups_jit, jit_result->stats.num_groups);
  EXPECT_EQ(jit_result->stats.degraded_groups, 0);
  ExpectResultsMatch(jit_result->results, interp_result->results, 1e-9,
                     "favorita example: jit vs interp");
}

/// A group-by attribute that travels up from Stores through Sales to the
/// Items root: the groups consume multi-entry views (several entries per
/// join key), whose writes open an odometer over the view's entry range.
TEST(JitWorkloadTest, MultiEntryViewsMatchInterpreter) {
  LMFAO_REQUIRE_JIT();
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  FavoritaData& db = **data;
  QueryBatch batch;
  Query q;
  q.name = "travel";
  q.group_by = {db.stype, db.item_class};
  q.aggregates.push_back(Aggregate::Count());
  q.root_hint = db.items;
  batch.Add(std::move(q));

  Engine jit_engine(&db.catalog, &db.tree, JitOptionsSync());
  Engine interp_engine(&db.catalog, &db.tree, InterpOptions());
  auto jit_result = jit_engine.Evaluate(batch);
  auto interp_result = interp_engine.Evaluate(batch);
  ASSERT_TRUE(jit_result.ok()) << jit_result.status().ToString();
  ASSERT_TRUE(interp_result.ok()) << interp_result.status().ToString();
  EXPECT_EQ(jit_result->stats.num_groups, 6);
  EXPECT_EQ(jit_result->stats.groups_jit, jit_result->stats.num_groups);
  EXPECT_EQ(jit_result->stats.degraded_groups, 0);
  ExpectResultsMatch(jit_result->results, interp_result->results, 0.0,
                     "multi-entry views: jit vs interp");
}

/// Non-finite thresholds (which the Function API accepts) emit as
/// compiler builtins, so they neither fail the module nor push the batch
/// back to the interpreter. Indicators make every sum a count: exact data.
TEST(JitWorkloadTest, NonFiniteThresholdsCompile) {
  LMFAO_REQUIRE_JIT();
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  FavoritaData& db = **data;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  QueryBatch batch;
  Query q;
  q.name = "inf";
  q.group_by = {db.store};
  q.aggregates.push_back(Aggregate(
      {Factor{db.price, Function::Indicator(FunctionKind::kIndicatorLe, inf)},
       Factor{db.units,
              Function::Indicator(FunctionKind::kIndicatorGt, -inf)},
       Factor{db.txns,
              Function::Indicator(FunctionKind::kIndicatorNe, nan)}}));
  batch.Add(std::move(q));

  Engine jit_engine(&db.catalog, &db.tree, JitOptionsSync());
  Engine interp_engine(&db.catalog, &db.tree, InterpOptions());
  auto jit_result = jit_engine.Evaluate(batch);
  auto interp_result = interp_engine.Evaluate(batch);
  ASSERT_TRUE(jit_result.ok()) << jit_result.status().ToString();
  ASSERT_TRUE(interp_result.ok()) << interp_result.status().ToString();
  EXPECT_EQ(jit_engine.plan_cache_stats().jit_failures, 0u);
  EXPECT_EQ(jit_result->stats.groups_jit, jit_result->stats.num_groups);
  ExpectResultsMatch(jit_result->results, interp_result->results, 0.0,
                     "non-finite thresholds: jit vs interp");
}

// --- Observability ------------------------------------------------------

TEST(JitStatsTest, PlanCacheCountersAndBackendTags) {
  LMFAO_REQUIRE_JIT();
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  FavoritaData& db = **data;
  const QueryBatch batch = MakeExampleBatch(db);

  Engine engine(&db.catalog, &db.tree, JitOptionsSync());
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto result = prepared->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // One module was compiled (synchronously) and no group fell back.
  auto stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.jit_compiles, 1u);
  EXPECT_EQ(stats.jit_failures, 0u);
  EXPECT_GT(stats.jit_compile_ms, 0.0);

  // Per-group and per-execution tags.
  EXPECT_GT(result->stats.groups_jit, 0);
  EXPECT_TRUE(result->stats.backend == "jit" ||
              result->stats.backend == "mixed")
      << result->stats.backend;
  int tagged_jit = 0;
  for (const GroupStats& gs : result->stats.groups) {
    if (std::string(gs.backend) == "jit") ++tagged_jit;
  }
  EXPECT_EQ(tagged_jit, result->stats.groups_jit);

  // A structurally equal Prepare is a jit hit: the artifact (and its
  // module) are served from the plan cache, with no second compile.
  auto again = engine.Prepare(batch);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->from_cache());
  stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.jit_compiles, 1u);
  EXPECT_GE(stats.jit_hits, 1u);
}

TEST(JitStatsTest, InterpTagsWhenJitOff) {
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  FavoritaData& db = **data;
  const QueryBatch batch = MakeExampleBatch(db);

  Engine interp_engine(&db.catalog, &db.tree, InterpOptions());
  auto interp_result = interp_engine.Evaluate(batch);
  ASSERT_TRUE(interp_result.ok()) << interp_result.status().ToString();
  EXPECT_EQ(interp_result->stats.backend, "interp");
  EXPECT_EQ(interp_result->stats.groups_jit, 0);
  EXPECT_EQ(interp_result->stats.groups_interp,
            interp_result->stats.num_groups);
  for (const GroupStats& gs : interp_result->stats.groups) {
    EXPECT_STREQ(gs.backend, "interp");
  }
  EXPECT_EQ(interp_engine.plan_cache_stats().jit_compiles, 0u);
}

// --- Graceful degradation -----------------------------------------------

/// A compiler that always fails (the documented LMFAO_JIT_CC=/bin/false
/// scenario): Prepare and Execute must succeed on the interpreter,
/// with the failure visible in the plan-cache stats, not in any Status.
TEST(JitFallbackTest, BrokenCompilerFallsBackToInterpreter) {
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  FavoritaData& db = **data;
  const QueryBatch batch = MakeExampleBatch(db);

  EngineOptions options = JitOptionsSync();
  options.jit.compiler = "/bin/false";
  Engine engine(&db.catalog, &db.tree, options);
  auto result = engine.Evaluate(batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.groups_jit, 0);
  EXPECT_EQ(result->stats.backend, "interp");

  auto stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.jit_compiles, 1u);
  EXPECT_EQ(stats.jit_failures, 1u);

  // And the degraded execution still computes the right answers.
  Engine interp_engine(&db.catalog, &db.tree, InterpOptions());
  auto interp_result = interp_engine.Evaluate(batch);
  ASSERT_TRUE(interp_result.ok()) << interp_result.status().ToString();
  ExpectResultsMatch(result->results, interp_result->results, 0.0,
                     "broken-compiler fallback vs interp");
}

// --- Temp-file hygiene --------------------------------------------------

/// Entries under the per-process scratch dir, or -1 when the dir does
/// not exist (also clean: the last compile removed it entirely).
int ScratchEntryCount() {
  DIR* dir = opendir(JitModule::ScratchDir().c_str());
  if (dir == nullptr) return -1;
  int count = 0;
  while (struct dirent* e = readdir(dir)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") ++count;
  }
  closedir(dir);
  return count;
}

/// Every compile — successful or failed — must clean up its scratch
/// files; nothing may accumulate under $TMPDIR across compiles.
TEST(JitHygieneTest, ScratchDirLeftCleanAfterSuccessfulCompiles) {
  LMFAO_REQUIRE_JIT();
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 500});
  ASSERT_TRUE(data.ok());
  for (int i = 0; i < 2; ++i) {
    Engine engine(&(*data)->catalog, &(*data)->tree, JitOptionsSync());
    auto result = engine.Evaluate(MakeExampleBatch(**data));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_LE(ScratchEntryCount(), 0) << "leftover files after compile " << i;
  }
}

/// The documented /bin/false scenario: the compile fails after the
/// sources were written, and the failure path must remove them too.
TEST(JitHygieneTest, ScratchDirLeftCleanAfterFailedCompiles) {
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 500});
  ASSERT_TRUE(data.ok());
  EngineOptions options = JitOptionsSync();
  options.jit.compiler = "/bin/false";
  for (int i = 0; i < 2; ++i) {
    Engine engine(&(*data)->catalog, &(*data)->tree, options);
    auto result = engine.Evaluate(MakeExampleBatch(**data));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_LE(ScratchEntryCount(), 0)
        << "leftover files after failed compile " << i;
  }
}

/// Async mode with a broken compiler: the first Execute may race the
/// failing compile, but must never error or mis-compute.
TEST(JitFallbackTest, AsyncBrokenCompilerNeverErrors) {
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  FavoritaData& db = **data;
  const QueryBatch batch = MakeExampleBatch(db);

  EngineOptions options;
  options.jit.mode = JitMode::kAsync;
  options.jit.compiler = "/bin/false";
  Engine engine(&db.catalog, &db.tree, options);
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  for (int i = 0; i < 3; ++i) {
    auto result = prepared->Execute();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.groups_jit, 0);
  }
}

}  // namespace
}  // namespace lmfao
