/// \file parallel_test.cc
/// \brief Tests of the group scheduler (task parallelism) and result parity
/// across all parallel modes.

#include "engine/parallel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/join.h"
#include "baseline/naive_engine.h"
#include "data/favorita.h"
#include "engine/engine.h"
#include "ml/feature.h"

namespace lmfao {
namespace {

GroupedWorkload MakeDiamond() {
  // 0 -> {1, 2} -> 3 (3 depends on 1 and 2; 1,2 depend on 0).
  GroupedWorkload g;
  for (int i = 0; i < 4; ++i) {
    ViewGroup vg;
    vg.id = i;
    vg.node = 0;
    vg.outputs.push_back(i);  // Dummy.
    g.groups.push_back(vg);
  }
  g.groups[1].depends_on = {0};
  g.groups[2].depends_on = {0};
  g.groups[3].depends_on = {1, 2};
  g.producer_group = {0, 1, 2, 3};
  return g;
}

TEST(ScheduleGroupsTest, SequentialRespectsOrder) {
  GroupedWorkload g = MakeDiamond();
  std::vector<int> order;
  auto st = ScheduleGroupsTimed(g, nullptr, [&](int gid, const GroupStart&) {
    order.push_back(gid);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
}

TEST(ScheduleGroupsTest, ParallelRespectsDependencies) {
  GroupedWorkload g = MakeDiamond();
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<int> done;
  auto st = ScheduleGroupsTimed(g, &pool, [&](int gid, const GroupStart&) {
    std::lock_guard<std::mutex> lock(mu);
    // Dependencies must already be complete.
    for (int dep : g.groups[static_cast<size_t>(gid)].depends_on) {
      EXPECT_TRUE(std::find(done.begin(), done.end(), dep) != done.end());
    }
    done.push_back(gid);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(done.size(), 4u);
}

TEST(ScheduleGroupsTest, ErrorAbortsDownstream) {
  GroupedWorkload g = MakeDiamond();
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  auto st = ScheduleGroupsTimed(g, &pool, [&](int gid, const GroupStart&) {
    runs.fetch_add(1);
    if (gid == 0) return Status::Internal("boom");
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  // Only group 0 ran; 1, 2, 3 were skipped.
  EXPECT_EQ(runs.load(), 1);
}

TEST(ScheduleGroupsTest, ErrorInParallelBranchPropagates) {
  GroupedWorkload g = MakeDiamond();
  ThreadPool pool(2);
  auto st = ScheduleGroupsTimed(g, &pool, [&](int gid, const GroupStart&) {
    if (gid == 2) return Status::IOError("branch failed");
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST(ScheduleGroupsTest, EmptyGraph) {
  GroupedWorkload g;
  ThreadPool pool(2);
  EXPECT_TRUE(ScheduleGroupsTimed(g, &pool, [](int, const GroupStart&) {
                return Status::OK();
              }).ok());
}

TEST(ScheduleGroupsTest, LargeChain) {
  GroupedWorkload g;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    ViewGroup vg;
    vg.id = i;
    vg.outputs.push_back(i);
    if (i > 0) vg.depends_on = {i - 1};
    g.groups.push_back(vg);
  }
  ThreadPool pool(4);
  std::atomic<int> last{-1};
  auto st = ScheduleGroupsTimed(g, &pool, [&](int gid, const GroupStart&) {
    // Strict chain: must observe predecessor already done.
    EXPECT_EQ(last.load(), gid - 1);
    last.store(gid);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(last.load(), n - 1);
}

TEST(ScheduleGroupsTimedTest, ReportsWaitTimes) {
  GroupedWorkload g = MakeDiamond();
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<GroupStart> starts;
  auto st = ScheduleGroupsTimed(g, &pool, [&](int, const GroupStart& s) {
    std::lock_guard<std::mutex> lock(mu);
    starts.push_back(s);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(starts.size(), 4u);
  for (const GroupStart& s : starts) {
    EXPECT_GE(s.wait_seconds, 0.0);
  }
}

TEST(ChooseShardCountTest, CostModel) {
  SchedulerOptions options;
  options.num_threads = 4;
  options.min_shard_rows = 1000;
  // Too small to shard.
  EXPECT_EQ(ChooseShardCount(1500, options, 3), 1);
  // Large relation, whole pool idle: one shard per thread.
  EXPECT_EQ(ChooseShardCount(100000, options, 3), 4);
  // Large relation, busy pool: only the caller's slot plus idle workers.
  EXPECT_EQ(ChooseShardCount(100000, options, 1), 2);
  EXPECT_EQ(ChooseShardCount(100000, options, 0), 1);
  // Size-bounded: 2500 rows support at most 2 shards of >= 1000 rows.
  EXPECT_EQ(ChooseShardCount(2500, options, 3), 2);
  // Domain parallelism off.
  options.domain_parallel = false;
  EXPECT_EQ(ChooseShardCount(100000, options, 3), 1);
  // Task parallelism off: the whole pool is available regardless of
  // free_threads.
  options.domain_parallel = true;
  options.task_parallel = false;
  EXPECT_EQ(ChooseShardCount(100000, options, 0), 4);
  // Sequential configuration never shards.
  options.num_threads = 1;
  EXPECT_EQ(ChooseShardCount(100000, options, 0), 1);
}

/// Checks the KeyAlignedRanges contract on `keys` (sorted) cut into `n`.
void ExpectKeyAlignedCut(const std::vector<int64_t>& keys, int n) {
  const size_t rows = keys.size();
  const std::vector<ShardRange> ranges =
      KeyAlignedRanges(keys.data(), rows, n);
  ASSERT_FALSE(ranges.empty());
  ASSERT_LE(ranges.size(), static_cast<size_t>(n));
  size_t longest_run = 0;
  for (size_t i = 0, run = 0; i < rows; ++i) {
    run = i > 0 && keys[i] == keys[i - 1] ? run + 1 : 1;
    longest_run = std::max(longest_run, run);
  }
  size_t lo = 0;
  for (const ShardRange& r : ranges) {
    // In order, contiguous and non-empty.
    EXPECT_EQ(r.lo, lo) << "n=" << n;
    EXPECT_GT(r.hi, r.lo) << "n=" << n;
    // No key straddles two ranges.
    if (r.hi < rows) EXPECT_NE(keys[r.hi - 1], keys[r.hi]) << "n=" << n;
    // Balanced to within one key run.
    EXPECT_LE(std::abs(static_cast<double>(r.rows()) -
                       static_cast<double>(rows) / n),
              static_cast<double>(longest_run))
        << "n=" << n << " range [" << r.lo << ", " << r.hi << ")";
    lo = r.hi;
  }
  EXPECT_EQ(lo, rows) << "n=" << n;
}

TEST(KeyAlignedRangesTest, CoversRowsOnKeyBoundaries) {
  // Runs of lengths 1..9 repeating: short and long keys side by side.
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 60; ++k) {
    keys.insert(keys.end(), static_cast<size_t>(k % 9 + 1), k * 3);
  }
  for (int n = 1; n <= 16; ++n) ExpectKeyAlignedCut(keys, n);
  // One dominant key.
  std::vector<int64_t> skewed(500, 1);
  for (int64_t k = 2; k < 50; ++k) skewed.push_back(k);
  for (int n = 1; n <= 8; ++n) ExpectKeyAlignedCut(skewed, n);
}

TEST(KeyAlignedRangesTest, EdgeCases) {
  // An empty relation yields one empty range.
  const std::vector<ShardRange> empty = KeyAlignedRanges(nullptr, 0, 4);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].lo, 0u);
  EXPECT_EQ(empty[0].hi, 0u);
  // Fewer keys than shards: one range per key at most.
  const std::vector<int64_t> two_keys = {5, 5, 5, 9, 9};
  const std::vector<ShardRange> two = KeyAlignedRanges(two_keys.data(), 5, 4);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].hi, 3u);
  EXPECT_EQ(two[1].hi, 5u);
  ExpectKeyAlignedCut(two_keys, 4);
  const std::vector<int64_t> one_key(7, 42);
  const std::vector<ShardRange> one = KeyAlignedRanges(one_key.data(), 7, 3);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].hi, 7u);
  // Distinct keys give the plain balanced row split; the first rows % n
  // ranges take the extra rows.
  std::vector<int64_t> distinct(10);
  for (size_t i = 0; i < distinct.size(); ++i) {
    distinct[i] = static_cast<int64_t>(i);
  }
  const std::vector<ShardRange> flat = KeyAlignedRanges(distinct.data(), 10, 3);
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].hi, 4u);
  EXPECT_EQ(flat[1].hi, 7u);
  EXPECT_EQ(flat[2].hi, 10u);
  // More shards than rows: empty cuts are dropped.
  EXPECT_EQ(KeyAlignedRanges(distinct.data(), 2, 4).size(), 2u);
}

/// Full-engine parity: every scheduler configuration (hybrid, task-only,
/// domain-only, forced fine-grained sharding) produces exactly the
/// sequential results on a wide covariance batch.
TEST(ParallelParityTest, CovarianceBatchAllSchedulerConfigs) {
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
  ASSERT_TRUE(data.ok());
  FeatureSet features;
  features.label = (*data)->units;
  features.continuous = {(*data)->txns, (*data)->price};
  features.categorical = {(*data)->stype, (*data)->family};
  auto cov = BuildCovarianceBatch(features, (*data)->catalog);
  ASSERT_TRUE(cov.ok());

  Engine seq(&(*data)->catalog, &(*data)->tree, EngineOptions{});
  auto ref = seq.Evaluate(cov->batch);
  ASSERT_TRUE(ref.ok());

  struct Config {
    bool task;
    bool domain;
    int64_t min_shard_rows;
  };
  const std::vector<Config> configs = {
      {true, true, 4096},  // Hybrid default.
      {true, false, 4096},  // Task-only.
      {false, true, 4096},  // Domain-only.
      {true, true, 1},      // Hybrid, every group sharded.
  };
  for (const Config& config : configs) {
    EngineOptions options;
    options.scheduler.num_threads = 4;
    options.scheduler.task_parallel = config.task;
    options.scheduler.domain_parallel = config.domain;
    options.scheduler.min_shard_rows = config.min_shard_rows;
    Engine par(&(*data)->catalog, &(*data)->tree, options);
    auto got = par.Evaluate(cov->batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (size_t q = 0; q < ref->results.size(); ++q) {
      EXPECT_TRUE(ResultsEquivalent(ref->results[q], got->results[q], 1e-9))
          << "task=" << config.task << " domain=" << config.domain
          << " min_shard_rows=" << config.min_shard_rows << " query " << q;
    }
    // A group's key-aligned blocks outnumber its shards at
    // min_shard_rows = 1; the shards, not the blocks, are capped.
    for (const GroupStats& gs : got->stats.groups) {
      EXPECT_LE(gs.shard_stats.size(), 4u);
    }
  }
}

}  // namespace
}  // namespace lmfao
