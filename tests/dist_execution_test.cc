/// \file dist_execution_test.cc
/// \brief Sharded distributed execution (PreparedBatch::ExecuteSharded),
/// pinned differentially: for every shard count the merged result must be
/// bit-for-bit equal to the unsharded prepared Execute AND to the naive
/// scan baseline (the exact generator emits integer data, so per-key sums
/// are associative), across randomized databases and append schedules;
/// plus the plan-splitting contract (eligibility of the partitioned
/// relation), the split pass itself (key blocks of the cached sort, shards
/// that ran), ExecuteDelta composition on a sharded base, shard/exchange
/// observability, and fault injection through the dist.* failpoint seams
/// with zero leaked views.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/join.h"
#include "baseline/naive_engine.h"
#include "data/favorita.h"
#include "data/retailer.h"
#include "differential_harness.h"
#include "dist/shard_plan.h"
#include "engine/engine.h"
#include "engine/report.h"
#include "exact_generator.h"
#include "ml/feature.h"
#include "storage/view_store.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace lmfao {
namespace {

using ::lmfao::testing::AppendRandomRows;
using ::lmfao::testing::AppendSchedule;
using ::lmfao::testing::ExactDatabase;
using ::lmfao::testing::ExpectResultsMatch;
using ::lmfao::testing::MakeExactBatch;
using ::lmfao::testing::MakeExactDatabase;

/// Saves the ambient failpoint configuration (the CI failpoints job sets
/// LMFAO_FAILPOINTS for the whole binary) and restores it on scope exit.
class FailpointGuard {
 public:
  FailpointGuard() : saved_(Failpoints::CurrentSpec()) {}
  ~FailpointGuard() {
    if (saved_.empty()) {
      Failpoints::Clear();
    } else {
      (void)Failpoints::Configure(saved_);
    }
    Failpoints::ClearParked();
  }

 private:
  std::string saved_;
};

/// The differential shard-count matrix. The CI dist job widens it through
/// LMFAO_DIST_SHARDS (one extra count per matrix leg).
std::vector<int> ShardCounts() {
  std::vector<int> counts = {1, 2, 4, 8};
  if (const char* env = std::getenv("LMFAO_DIST_SHARDS")) {
    const int n = std::atoi(env);
    if (n > 0 && std::find(counts.begin(), counts.end(), n) == counts.end()) {
      counts.push_back(n);
    }
  }
  return counts;
}

/// Groups at the partitioned node of a sharded execution. Each cuts its own
/// sorted relation into the shards, so the shards' rows sum to the
/// relation's epoch rows once per such group.
size_t SplitGroups(const ExecutionStats& stats) {
  return static_cast<size_t>(std::count_if(
      stats.groups.begin(), stats.groups.end(),
      [&stats](const GroupStats& gs) {
        return gs.node == stats.dist_relation;
      }));
}

class DistFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistFuzzTest, ShardedMatchesExecuteAndBaselineBitForBit) {
  // Single-thread is the default path; three threads make sure shard
  // passes compose with the hybrid scheduler.
  const std::vector<int> thread_counts = {1, 3};
  const std::vector<int> shard_counts = ShardCounts();
  for (size_t ci = 0; ci < thread_counts.size(); ++ci) {
    Rng rng(GetParam() * 977 + ci);
    ExactDatabase db = MakeExactDatabase(&rng);
    const QueryBatch batch = MakeExactBatch(db, &rng);
    AppendSchedule schedule;
    LMFAO_REPRO_TRACE(GetParam() * 977 + ci);

    EngineOptions options;
    options.scheduler.num_threads = thread_counts[ci];
    Engine engine(&db.catalog, &db.tree, options);
    auto prepared = engine.Prepare(batch);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

    auto check_all_counts = [&](const std::string& label) {
      // Oracle 1: the unsharded prepared execute at the same epoch.
      auto full = prepared->Execute();
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      // Oracle 2: the naive scan baseline over the materialized join.
      auto joined = MaterializeJoin(db.catalog, db.tree, 0);
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      auto baseline = EvaluateBatchSharedScan(*joined, batch);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

      for (int n : shard_counts) {
        auto sharded = prepared->ExecuteSharded(n);
        ASSERT_TRUE(sharded.ok())
            << label << " n=" << n << ": " << sharded.status().ToString();
        EXPECT_GE(sharded->stats.dist_shard_stats.size(), 1u);
        EXPECT_LE(sharded->stats.dist_shard_stats.size(),
                  static_cast<size_t>(n));
        // One pass: every group runs exactly once, and the shards' blocks
        // cover the partitioned relation once per split group.
        const ExecutionStats& st = sharded->stats;
        EXPECT_EQ(st.groups.size(), static_cast<size_t>(st.num_groups));
        size_t shard_rows = 0;
        for (const ShardStats& ss : st.dist_shard_stats) {
          shard_rows += ss.rows;
        }
        EXPECT_EQ(shard_rows,
                  sharded->epoch.at(st.dist_relation) * SplitGroups(st));
        ExpectResultsMatch(sharded->results, full->results, 0.0,
                           label + " n=" + std::to_string(n) +
                               ": sharded vs unsharded execute");
        ExpectResultsMatch(sharded->results, *baseline, 0.0,
                           label + " n=" + std::to_string(n) +
                               ": sharded vs scan baseline");
      }
    };
    ASSERT_NO_FATAL_FAILURE(check_all_counts("initial"));

    // A sharded result is a first-class base: its epoch/signature/
    // fingerprint identity lets ExecuteDelta refresh it incrementally.
    auto base = prepared->ExecuteSharded(4);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    for (int round = 0; round < 2; ++round) {
      ASSERT_NO_FATAL_FAILURE(AppendRandomRows(&db, &rng, &schedule));
      LMFAO_REPRO_TRACE(GetParam() * 977 + ci, schedule);

      auto refreshed = prepared->ExecuteDelta(*base);
      ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
      // The refresh reports only the delta passes it ran: nothing of the
      // sharded base's exchange carries over.
      const ExecutionStats& rs = refreshed->stats;
      EXPECT_TRUE(rs.delta_execution);
      EXPECT_EQ(rs.exchange_bytes, 0u);
      EXPECT_EQ(rs.merge_seconds, 0.0);
      EXPECT_TRUE(rs.dist_shard_stats.empty());
      EXPECT_EQ(rs.num_groups, base->stats.num_groups);
      EXPECT_EQ(rs.groups.size(),
                static_cast<size_t>(rs.delta_passes * rs.num_groups));
      auto full = prepared->Execute();
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ExpectResultsMatch(refreshed->results, full->results, 0.0,
                         "round " + std::to_string(round) +
                             ": delta refresh of a sharded base");

      // And sharded execution keeps matching after the appends.
      ASSERT_NO_FATAL_FAILURE(
          check_all_counts("round " + std::to_string(round)));
      base = std::move(refreshed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

// The fuzz seeds must keep covering the case the one-pass split relies on
// most: a group away from the partitioned node that reads it, and so runs
// once on views merged from the shards.
TEST(DistFuzzCoverageTest, SomeSeedHasADirtyGroupDownstreamOfTheSplit) {
  int seeds_with_downstream = 0;
  for (uint64_t seed = 1; seed < 13; ++seed) {
    Rng rng(seed * 977);
    ExactDatabase db = MakeExactDatabase(&rng);
    const QueryBatch batch = MakeExactBatch(db, &rng);
    Engine engine(&db.catalog, &db.tree, EngineOptions{});
    auto prepared = engine.Prepare(batch);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    ShardSpec spec;
    spec.num_shards = 4;
    auto plan = MakeShardedPlan(prepared->compiled(), db.catalog,
                                db.catalog.SnapshotEpoch(), spec);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (const GroupPlan& gp : prepared->compiled().plans) {
      if (gp.node != plan->relation &&
          ClosureContains(gp.source_relation_mask, plan->relation)) {
        ++seeds_with_downstream;
        break;
      }
    }
  }
  EXPECT_GT(seeds_with_downstream, 0);
}

// --- Plan splitting ------------------------------------------------------

class ShardPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 1500});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
    engine_ = std::make_unique<Engine>(&data_->catalog, &data_->tree,
                                       EngineOptions{});
    auto prepared = engine_->Prepare(MakeExampleBatch(*data_));
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    prepared_ = std::move(prepared).value();
  }

  std::unique_ptr<FavoritaData> data_;
  std::unique_ptr<Engine> engine_;
  PreparedBatch prepared_;
};

TEST_F(ShardPlanTest, AutoPicksTheLargestEligibleRelation) {
  const EpochSnapshot epoch = data_->catalog.SnapshotEpoch();
  ShardSpec spec;
  spec.num_shards = 4;
  auto plan = MakeShardedPlan(prepared_.compiled(), data_->catalog, epoch,
                              spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Auto-pick partitions the eligible relation with the most rows.
  for (RelationId r = 0; r < data_->catalog.num_relations(); ++r) {
    EXPECT_LE(epoch.at(r), epoch.at(plan->relation))
        << data_->catalog.relation(r).name();
  }
  EXPECT_EQ(plan->num_shards, 4);
  EXPECT_GT(plan->dirty_groups, 0);

  spec.num_shards = 0;  // Unset: a single shard.
  auto one = MakeShardedPlan(prepared_.compiled(), data_->catalog, epoch,
                             spec);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->num_shards, 1);
}

TEST_F(ShardPlanTest, AutoPickSkipsRelationsOutsideEveryClosure) {
  const EpochSnapshot epoch = data_->catalog.SnapshotEpoch();
  ShardSpec spec;
  spec.num_shards = 2;
  auto largest = MakeShardedPlan(prepared_.compiled(), data_->catalog, epoch,
                                 spec);
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  // Doctor the compiled plans so no group reads the largest relation:
  // partitioning it would duplicate the result per shard, so the split
  // must pick a relation some group reads instead.
  CompiledBatch doctored = prepared_.compiled();
  for (GroupPlan& plan : doctored.plans) {
    plan.source_relation_mask &= ~(1ull << largest->relation);
  }
  auto plan = MakeShardedPlan(doctored, data_->catalog, epoch, spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->relation, largest->relation);
  EXPECT_GT(plan->dirty_groups, 0);

  // With no eligible relation at all, auto-pick has nothing to partition.
  for (GroupPlan& p : doctored.plans) p.source_relation_mask = 0;
  auto none = MakeShardedPlan(doctored, data_->catalog, epoch, spec);
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
}

// Relation ids beyond 63 saturate the closure masks. Such a relation is
// still read by the batch: it can be auto-picked for a split, and a
// refresh of it counts its dirty groups.
TEST(ShardPlanWideCatalogTest, RelationBeyond63ShardsAndRefreshes) {
  // A 65-relation star on one join attribute: R0 at the centre, R1..R64
  // around it, one row per key everywhere except R64 (four rows per key).
  Catalog catalog;
  const AttrId k = catalog.AddAttribute("k", AttrType::kInt).value();
  const AttrId v = catalog.AddAttribute("v", AttrType::kDouble).value();
  std::vector<std::pair<RelationId, RelationId>> edges;
  RelationId wide = kInvalidRelation;
  for (int r = 0; r < 65; ++r) {
    const bool last = r == 64;
    const std::vector<std::string> attrs =
        last ? std::vector<std::string>{"k", "v"}
             : std::vector<std::string>{"k"};
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(r), attrs).value();
    Relation& rel = catalog.mutable_relation(id);
    for (int i = 0; i < (last ? 40 : 10); ++i) {
      if (last) {
        rel.AppendRowUnchecked({Value::Int(i % 10), Value::Double(i)});
      } else {
        rel.AppendRowUnchecked({Value::Int(i)});
      }
    }
    if (r > 0) edges.emplace_back(0, id);
    wide = id;
  }
  ASSERT_EQ(wide, 64);
  catalog.RefreshDomainSizes();
  JoinTree tree = JoinTree::FromEdges(catalog, edges).value();

  Query q;
  q.name = "by_k";
  q.group_by = {k};
  q.aggregates = {Aggregate::Count(), Aggregate::Sum(v)};
  QueryBatch batch;
  batch.Add(std::move(q));
  Engine engine(&catalog, &tree, EngineOptions{});

  // Auto-pick sees the largest relation, id 64.
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto picked = MakeShardedPlan(prepared->compiled(), catalog,
                                catalog.SnapshotEpoch(), ShardSpec{3});
  ASSERT_TRUE(picked.ok()) << picked.status().ToString();
  EXPECT_EQ(picked->relation, wide);
  // Only R64's own group reads R64, but the group shipping R0's view to it
  // has the closure R0..R63, whose mask is all ones too: beyond id 63 the
  // count is an upper bound, and here it overcounts by that one group.
  EXPECT_EQ(picked->dirty_groups, 2);

  auto sharded = prepared->ExecuteSharded(3);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->stats.dist_relation, wide);
  EXPECT_EQ(sharded->stats.dist_shard_stats.size(), 3u);
  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ExpectResultsMatch(sharded->results, full->results, 0.0,
                     "sharded on relation 64");

  ASSERT_TRUE(catalog
                  .AppendRows(wide, {{Value::Int(3), Value::Double(100)},
                                     {Value::Int(7), Value::Double(5)}})
                  .ok());
  auto refreshed = prepared->ExecuteDelta(*sharded);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed->stats.delta_passes, 1);
  EXPECT_EQ(refreshed->stats.delta_dirty_groups, 2);  // Same upper bound.
  auto recomputed = prepared->Execute();
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  ExpectResultsMatch(refreshed->results, recomputed->results, 0.0,
                     "refresh of relation 64");
  auto joined = MaterializeJoin(catalog, tree, 0);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  auto baseline = EvaluateBatchSharedScan(*joined, batch);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ExpectResultsMatch(refreshed->results, *baseline, 0.0,
                     "refresh of relation 64 vs scan baseline");
}

// --- The split pass -------------------------------------------------------

// More shards than the partitioned relation has level-1 key blocks: only
// the shards that ran are counted, and their rows still cover the relation.
TEST(SplitPassTest, MoreShardsThanKeyBlocksCountsOnlyTheShardsThatRan) {
  // F (30 rows, three keys of ten rows each) joins D on k.
  Catalog catalog;
  const AttrId k = catalog.AddAttribute("k", AttrType::kInt).value();
  const AttrId v = catalog.AddAttribute("v", AttrType::kDouble).value();
  const RelationId f = catalog.AddRelation("F", {"k", "v"}).value();
  const RelationId d = catalog.AddRelation("D", {"k"}).value();
  for (int i = 0; i < 30; ++i) {
    catalog.mutable_relation(f).AppendRowUnchecked(
        {Value::Int(i % 3), Value::Double(i)});
  }
  for (int i = 0; i < 3; ++i) {
    catalog.mutable_relation(d).AppendRowUnchecked({Value::Int(i)});
  }
  catalog.RefreshDomainSizes();
  JoinTree tree = JoinTree::FromEdges(catalog, {{f, d}}).value();
  Query q;
  q.name = "by_k";
  q.group_by = {k};
  q.aggregates = {Aggregate::Count(), Aggregate::Sum(v)};
  QueryBatch batch;
  batch.Add(std::move(q));
  Engine engine(&catalog, &tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto sharded = prepared->ExecuteSharded(8);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const ExecutionStats& st = sharded->stats;
  EXPECT_EQ(st.dist_relation, f);
  ASSERT_EQ(st.dist_shard_stats.size(), 3u);
  const size_t split_groups = SplitGroups(st);
  ASSERT_GT(split_groups, 0u);
  double seconds = 0.0;
  for (const ShardStats& ss : st.dist_shard_stats) {
    EXPECT_EQ(ss.rows, 10 * split_groups) << "shard " << ss.shard;
    EXPECT_GT(ss.exchange_bytes, 0u) << "shard " << ss.shard;
    seconds += ss.seconds;
  }
  EXPECT_DOUBLE_EQ(st.shard_mean_seconds, seconds / 3);
  EXPECT_GE(st.shard_max_seconds, st.shard_mean_seconds);
  for (const GroupStats& gs : st.groups) {
    if (gs.node == f) {
      EXPECT_EQ(gs.shard_stats.size(), 3u) << "group " << gs.group_id;
    }
  }

  // A count far beyond the row count runs the same three shards.
  auto huge = prepared->ExecuteSharded(1 << 20);
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_EQ(huge->stats.dist_shard_stats.size(), 3u);

  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ExpectResultsMatch(sharded->results, full->results, 0.0,
                     "eight shards over three key blocks");
  ExpectResultsMatch(huge->results, full->results, 0.0,
                     "2^20 shards over three key blocks");
  auto joined = MaterializeJoin(catalog, tree, 0);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  auto baseline = EvaluateBatchSharedScan(*joined, batch);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ExpectResultsMatch(sharded->results, *baseline, 0.0,
                     "eight shards over three key blocks vs scan baseline");
}

/// Appends `rows` rows to relation `r`: duplicates of its existing rows and
/// fresh small integers, so the new keys interleave the sorted old ones.
void AppendInterleavedRows(ExactDatabase* db, RelationId r, int rows,
                           Rng* rng) {
  const Relation& rel = db->catalog.relation(r);
  std::vector<std::vector<Value>> batch_rows;
  for (int i = 0; i < rows; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < rel.num_columns(); ++c) {
      if (i % 2 == 0 && rel.num_rows() > 0) {
        row.push_back(rel.ValueAt(static_cast<size_t>(i) % rel.num_rows(), c));
        continue;
      }
      const int64_t v = rng->UniformInt(-3, 3);
      row.push_back(rel.column(c).type() == AttrType::kInt
                        ? Value::Int(v)
                        : Value::Double(static_cast<double>(v)));
    }
    batch_rows.push_back(std::move(row));
  }
  ASSERT_TRUE(db->catalog.AppendRows(r, batch_rows).ok());
}

// After an Append, every group of a sharded execution — the split groups
// included — reads the sorted-relation cache (which extends its previous
// epoch by a merge), and the answer is exact.
TEST(SplitPassTest, ShardedAfterAppendReadsTheExtendedCachedSort) {
  FailpointGuard guard;
  Failpoints::Clear();
  Rng rng(2718);
  ExactDatabase db = MakeExactDatabase(&rng);
  const QueryBatch batch = MakeExactBatch(db, &rng);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->ExecuteSharded(4).ok());  // Caches every sort.

  ShardSpec spec;
  spec.num_shards = 4;
  auto plan = MakeShardedPlan(prepared->compiled(), db.catalog,
                              db.catalog.SnapshotEpoch(), spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NO_FATAL_FAILURE(
      AppendInterleavedRows(&db, plan->relation, 7, &rng));

  // A zero-length delay counts the cache reads without changing them.
  ASSERT_TRUE(Failpoints::Configure("engine.sorted_cache=delay:0").ok());
  auto sharded = prepared->ExecuteSharded(4);
  const uint64_t cache_reads = Failpoints::Hits("engine.sorted_cache");
  Failpoints::Clear();
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const ExecutionStats& st = sharded->stats;
  EXPECT_EQ(st.dist_relation, plan->relation);
  EXPECT_EQ(cache_reads, static_cast<uint64_t>(st.num_groups));
  size_t rows = 0;
  for (const ShardStats& ss : st.dist_shard_stats) rows += ss.rows;
  EXPECT_EQ(rows, db.catalog.SnapshotEpoch().at(plan->relation) *
                      SplitGroups(st));

  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ExpectResultsMatch(sharded->results, full->results, 0.0,
                     "sharded after append vs execute");
  auto joined = MaterializeJoin(db.catalog, db.tree, 0);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  auto baseline = EvaluateBatchSharedScan(*joined, batch);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ExpectResultsMatch(sharded->results, *baseline, 0.0,
                     "sharded after append vs scan baseline");
}

// A delta slice is not a shard: refreshing a sharded base after an append
// to the partitioned relation serves that relation's appended rows (an
// uncached slice in insertion order) to its groups, and the sorted cache
// to every other group.
TEST(SplitPassTest, RefreshOfAShardedBaseServesTheDeltaSlice) {
  FailpointGuard guard;
  Failpoints::Clear();
  Rng rng(1618);
  ExactDatabase db = MakeExactDatabase(&rng);
  const QueryBatch batch = MakeExactBatch(db, &rng);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto base = prepared->ExecuteSharded(4);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const RelationId partitioned = base->stats.dist_relation;
  const size_t split_groups = SplitGroups(base->stats);
  ASSERT_GT(split_groups, 0u);

  for (int round = 0; round < 3; ++round) {
    ASSERT_NO_FATAL_FAILURE(
        AppendInterleavedRows(&db, partitioned, 3 + round, &rng));
    ASSERT_TRUE(Failpoints::Configure("engine.sorted_cache=delay:0").ok());
    auto refreshed = prepared->ExecuteDelta(*base);
    const uint64_t cache_reads = Failpoints::Hits("engine.sorted_cache");
    Failpoints::Clear();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    EXPECT_EQ(refreshed->stats.delta_passes, 1);
    EXPECT_TRUE(refreshed->stats.dist_shard_stats.empty());
    EXPECT_EQ(cache_reads,
              static_cast<uint64_t>(base->stats.num_groups) - split_groups)
        << "round " << round;

    auto full = prepared->Execute();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ExpectResultsMatch(refreshed->results, full->results, 0.0,
                       "round " + std::to_string(round) +
                           ": refresh of a sharded base vs execute");
    auto joined = MaterializeJoin(db.catalog, db.tree, 0);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    auto baseline = EvaluateBatchSharedScan(*joined, batch);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ExpectResultsMatch(refreshed->results, *baseline, 0.0,
                       "round " + std::to_string(round) +
                           ": refresh of a sharded base vs scan baseline");
    base = prepared->ExecuteSharded(4);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
  }
}

// --- Shard counts and observability --------------------------------------

// A shard count of zero or one runs the split pass with one shard, whose
// result is bit-for-bit the unsharded Execute's.
TEST(ShardCountTest, ZeroAndOneRunOneShard) {
  Rng rng(4242);
  ExactDatabase db = MakeExactDatabase(&rng);
  const QueryBatch batch = MakeExactBatch(db, &rng);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (int n : {0, 1}) {
    auto sharded = prepared->ExecuteSharded(n);
    ASSERT_TRUE(sharded.ok()) << "n=" << n << ": "
                              << sharded.status().ToString();
    EXPECT_EQ(sharded->stats.dist_shard_stats.size(), 1u) << "n=" << n;
    ExpectResultsMatch(sharded->results, full->results, 0.0,
                       "n=" + std::to_string(n) + ": one shard vs execute");
  }
}

TEST(DistStatsTest, ShardAndExchangeCountersAreCoherent) {
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 1500});
  ASSERT_TRUE(data.ok());
  Engine engine(&(*data)->catalog, &(*data)->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(**data));
  ASSERT_TRUE(prepared.ok());

  auto sharded = prepared->ExecuteSharded(4);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const ExecutionStats& stats = sharded->stats;
  ASSERT_NE(stats.dist_relation, kInvalidRelation);
  ASSERT_EQ(stats.dist_shard_stats.size(), 4u);

  const size_t sharded_rows =
      (*data)->catalog.SnapshotEpoch().at(stats.dist_relation);
  size_t rows = 0;
  size_t bytes = 0;
  double fold_seconds = 0.0;
  for (const ShardStats& s : stats.dist_shard_stats) {
    rows += s.rows;
    bytes += s.exchange_bytes;
    fold_seconds += s.fold_seconds;
    EXPECT_GT(s.exchange_bytes, 0u);
    EXPECT_GE(s.seconds, 0.0);
  }
  EXPECT_EQ(rows, sharded_rows * SplitGroups(stats));
  EXPECT_EQ(bytes, stats.exchange_bytes);
  EXPECT_NEAR(fold_seconds, stats.merge_seconds, 1e-9);
  EXPECT_GT(stats.exchange_bytes, 0u);
  EXPECT_GE(stats.merge_seconds, 0.0);
  EXPECT_GE(stats.shard_max_seconds, stats.shard_mean_seconds);

  // Favorita has non-integer doubles: sharded vs unsharded differ by
  // association order only.
  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok());
  ExpectResultsMatch(sharded->results, full->results, 1e-9,
                     "favorita sharded execute");

  const std::string report = ReportExecution(stats, (*data)->catalog);
  EXPECT_NE(report.find("sharded: 4 shards"), std::string::npos) << report;
  EXPECT_NE(report.find("shard 0:"), std::string::npos) << report;
}

// The Retailer covariance batch at the benchmark's dimensions partitions
// Inventory, whose group's level-1 attribute is locn (100 values): four
// shards all run, each scanning a quarter of the locations, and the merge
// matches the unsharded Execute.
TEST(DistStatsTest, CovarianceBatchRunsFourShards) {
  RetailerOptions options;
  options.num_inventory = 20000;
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
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto prepared = engine.Prepare(cov->batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto sharded = prepared->ExecuteSharded(4);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const ExecutionStats& stats = sharded->stats;
  EXPECT_EQ(stats.dist_relation, db.inventory);
  ASSERT_EQ(stats.dist_shard_stats.size(), 4u);
  for (const ShardStats& s : stats.dist_shard_stats) {
    EXPECT_GT(s.rows, 0u) << "shard " << s.shard;
    EXPECT_GT(s.exchange_bytes, 0u) << "shard " << s.shard;
  }
  ASSERT_EQ(SplitGroups(stats), 1u);
  for (const GroupStats& gs : stats.groups) {
    if (gs.node != db.inventory) continue;
    // The split group's own records are the per-shard figures.
    ASSERT_EQ(gs.shard_stats.size(), 4u);
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(gs.shard_stats[s].shard, static_cast<int>(s));
      EXPECT_EQ(gs.shard_stats[s].rows, stats.dist_shard_stats[s].rows);
    }
  }

  // Retailer has non-integer doubles: sharded vs unsharded differ by
  // association order only.
  auto full = prepared->Execute();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ExpectResultsMatch(sharded->results, full->results, 1e-9,
                     "retailer covariance, four shards vs execute");
}

// --- Fault injection through the dist seams -------------------------------

class DistFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Clear();
    Failpoints::ClearParked();
    Rng rng(31337);
    db_ = std::make_unique<ExactDatabase>(MakeExactDatabase(&rng));
    batch_ = MakeExactBatch(*db_, &rng);
    engine_ = std::make_unique<Engine>(&db_->catalog, &db_->tree,
                                       EngineOptions{});
    auto prepared = engine_->Prepare(batch_);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    prepared_ = std::move(prepared).value();
    auto oracle = prepared_.Execute();
    ASSERT_TRUE(oracle.ok());
    oracle_ = std::move(oracle).value();
  }

  /// Injects at `spec` (whose seam is `seam`), expects the sharded execute
  /// to fail without leaking views, then expects full recovery after Clear.
  void CheckInjectionAndRecovery(const std::string& spec,
                                 const char* seam) {
    FailpointGuard guard;
    const size_t base_views = ViewStore::GlobalLiveViews();
    const size_t base_bytes = ViewStore::GlobalLiveBytes();
    ASSERT_TRUE(Failpoints::Configure(spec).ok());

    auto failed = prepared_.ExecuteSharded(4);
    EXPECT_FALSE(failed.ok()) << spec << " did not inject";
    EXPECT_NE(failed.status().code(), StatusCode::kOk);
    EXPECT_GT(Failpoints::Hits(seam), 0u);
    // The failed execution unwound completely: no shard pass or half-merged
    // coordinator state keeps views alive.
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views);
    EXPECT_EQ(ViewStore::GlobalLiveBytes(), base_bytes);

    Failpoints::Clear();
    Failpoints::ClearParked();
    auto recovered = prepared_.ExecuteSharded(4);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectResultsMatch(recovered->results, oracle_.results, 0.0,
                       "recovery after " + spec);
  }

  std::unique_ptr<ExactDatabase> db_;
  QueryBatch batch_;
  std::unique_ptr<Engine> engine_;
  PreparedBatch prepared_;
  BatchResult oracle_;
};

TEST_F(DistFailpointTest, ShardExecuteInjectionFailsCleanly) {
  CheckInjectionAndRecovery("dist.shard_execute=fail", "dist.shard_execute");
  // Also mid-stream: the first shards succeed, the third fails.
  CheckInjectionAndRecovery("dist.shard_execute=fail#3",
                            "dist.shard_execute");
}

TEST_F(DistFailpointTest, ExchangeDecodeInjectionFailsCleanly) {
  CheckInjectionAndRecovery("dist.exchange_decode=fail",
                            "dist.exchange_decode");
  CheckInjectionAndRecovery("dist.exchange_decode=oom#2",
                            "dist.exchange_decode");
}

/// Runs under whatever LMFAO_FAILPOINTS the environment installed (the CI
/// failpoints job sweeps dist.* specs through this test); with none
/// configured it is a plain smoke test. Nothing may crash or leak views,
/// and clearing the injection must restore exact answers. The 1-thread
/// Engine runs the split shards in turn; the 4-thread one runs them on
/// the pool, where an ambient OOM reaches the split group's serial retry.
TEST(DistSweepTest, AmbientInjectionNeverCrashesAndRecovers) {
  FailpointGuard guard;
  const std::string ambient = Failpoints::CurrentSpec();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Build the fixture with injection suspended so ambient catalog/view
    // specs cannot fail construction before any ExecuteSharded runs.
    Failpoints::Clear();
    Failpoints::ClearParked();
    Rng rng(90210);
    ExactDatabase db = MakeExactDatabase(&rng);
    const QueryBatch batch = MakeExactBatch(db, &rng);
    EngineOptions options;
    options.scheduler.num_threads = threads;
    Engine engine(&db.catalog, &db.tree, options);
    auto prepared = engine.Prepare(batch);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto oracle = prepared->Execute();
    ASSERT_TRUE(oracle.ok());
    if (!ambient.empty()) {
      ASSERT_TRUE(Failpoints::Configure(ambient).ok());
    }

    const size_t base_views = ViewStore::GlobalLiveViews();
    int failures = 0;
    for (int i = 0; i < 15; ++i) {
      auto result = prepared->ExecuteSharded(1 + i % 4);
      if (!result.ok()) {
        ++failures;
      } else {
        ExpectResultsMatch(result->results, oracle->results, 0.0,
                           "injected-but-ok sharded run " + std::to_string(i));
      }
      EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views)
          << "iteration " << i;
    }
    Failpoints::Clear();
    Failpoints::ClearParked();
    auto clean = prepared->ExecuteSharded(4);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ExpectResultsMatch(clean->results, oracle->results, 0.0,
                       "clean sharded execute after ambient sweep (" +
                           std::to_string(failures) + "/15 runs failed)");
  }
}

}  // namespace
}  // namespace lmfao
