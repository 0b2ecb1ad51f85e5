/// \file failpoint_test.cc
/// \brief The failpoint framework itself (grammar, triggers, parked
/// seams) and fault injection through the execution runtime: every
/// injected failure must surface as a non-OK Status through the public
/// API — never a crash, hang, or silently wrong result — and after the
/// failure the same PreparedBatch must execute bit-for-bit correctly
/// with the ViewStore's process-wide accounting back at its baseline.

#include "util/failpoint.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "differential_harness.h"
#include "engine/engine.h"
#include "storage/view.h"
#include "storage/view_store.h"
#include "util/random.h"

namespace lmfao {
namespace {

using ::lmfao::testing::ExpectResultsMatch;

/// Saves the ambient failpoint configuration (a CI sweep sets
/// LMFAO_FAILPOINTS for the whole binary) and restores it on scope exit,
/// so tests can Configure/Clear programmatically without wiping the
/// sweep for the tests that follow.
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

// --- Grammar ------------------------------------------------------------

TEST(FailpointGrammarTest, ValidSpecsParse) {
  FailpointGuard guard;
  EXPECT_TRUE(Failpoints::Configure("viewstore.publish=fail").ok());
  EXPECT_TRUE(Failpoints::enabled());
  EXPECT_EQ(Failpoints::CurrentSpec(), "viewstore.publish=fail");
  EXPECT_TRUE(Failpoints::Configure("a=oom,b=panic,c=delay:5").ok());
  EXPECT_TRUE(Failpoints::Configure("a=fail@0.25#3*2").ok());
  EXPECT_TRUE(Failpoints::Configure("a=fail*2@0.25#3").ok());  // any order
  EXPECT_TRUE(Failpoints::Configure(",a=fail,,b=oom,").ok());  // empties ok
  EXPECT_TRUE(Failpoints::Configure("").ok());
  EXPECT_FALSE(Failpoints::enabled());
}

TEST(FailpointGrammarTest, MalformedSpecsRejectedAndPreviousConfigKept) {
  FailpointGuard guard;
  ASSERT_TRUE(Failpoints::Configure("keep.me=oom").ok());
  const char* bad_specs[] = {
      "noequals",      "=fail",       "x=explode",  "x=fail:5",
      "x=delay:junk",  "x=delay:-5",  "x=fail@2.0", "x=fail@-0.5",
      "x=fail@junk",   "x=fail#0",    "x=fail#junk", "x=fail*0",
      "x=fail@",       "x=fail#",     "x=fail*",
      // Numbers must be consumed whole, finite, and non-negative counts.
      "x=fail@0.5x",   "x=delay:5ms", "x=fail#3x",  "x=fail*2x",
      "x=fail@nan",    "x=fail@inf",  "x=fail#-1",  "x=fail*-1",
      "x=delay:+5",    "x=fail@ 0.5", "x=delay:99999999999",
  };
  for (const char* spec : bad_specs) {
    Status st = Failpoints::Configure(spec);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << spec;
    // The previous configuration stays in force.
    EXPECT_EQ(Failpoints::CurrentSpec(), "keep.me=oom") << spec;
    EXPECT_EQ(Failpoints::Check("keep.me").code(),
              StatusCode::kResourceExhausted)
        << spec;
  }
}

TEST(FailpointGrammarTest, DuplicateClauseLastWins) {
  FailpointGuard guard;
  ASSERT_TRUE(Failpoints::Configure("p=fail,p=oom").ok());
  EXPECT_EQ(Failpoints::Check("p").code(), StatusCode::kResourceExhausted);
}

// --- Actions and triggers ----------------------------------------------

TEST(FailpointTriggerTest, ActionsMapToStatusCodes) {
  FailpointGuard guard;
  ASSERT_TRUE(Failpoints::Configure("f=fail,o=oom,p=panic,d=delay:1").ok());
  EXPECT_EQ(Failpoints::Check("f").code(), StatusCode::kInternal);
  EXPECT_EQ(Failpoints::Check("o").code(), StatusCode::kResourceExhausted);
  Status panic = Failpoints::Check("p");
  EXPECT_EQ(panic.code(), StatusCode::kInternal);
  EXPECT_NE(panic.message().find("panic"), std::string::npos);
  EXPECT_TRUE(Failpoints::Check("d").ok());  // delay proceeds OK
  EXPECT_TRUE(Failpoints::Check("unconfigured").ok());
}

TEST(FailpointTriggerTest, NthFiresOnlyOnTheNthHit) {
  FailpointGuard guard;
  ASSERT_TRUE(Failpoints::Configure("p=fail#3").ok());
  EXPECT_TRUE(Failpoints::Check("p").ok());
  EXPECT_TRUE(Failpoints::Check("p").ok());
  EXPECT_FALSE(Failpoints::Check("p").ok());
  EXPECT_TRUE(Failpoints::Check("p").ok());
  EXPECT_EQ(Failpoints::Hits("p"), 4u);
}

TEST(FailpointTriggerTest, CountCapsTotalFires) {
  FailpointGuard guard;
  ASSERT_TRUE(Failpoints::Configure("p=fail*2").ok());
  EXPECT_FALSE(Failpoints::Check("p").ok());
  EXPECT_FALSE(Failpoints::Check("p").ok());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(Failpoints::Check("p").ok());
}

TEST(FailpointTriggerTest, ProbabilityIsDeterministicPerSeed) {
  FailpointGuard guard;
  auto pattern = [](uint64_t seed) {
    EXPECT_TRUE(Failpoints::Configure("p=fail@0.5", seed).ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!Failpoints::Check("p").ok());
    return fired;
  };
  const std::vector<bool> a = pattern(42);
  const std::vector<bool> b = pattern(42);  // reconfigure resets hit counts
  EXPECT_EQ(a, b);
  // At 0.5 over 64 hits, both outcomes occur (P[miss] = 2^-63 per side).
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST(FailpointTriggerTest, ParkedFirstFailureWins) {
  FailpointGuard guard;
  ASSERT_TRUE(Failpoints::Configure("a=fail,b=oom").ok());
  Failpoints::ClearParked();
  Failpoints::CheckParked("a");
  Failpoints::CheckParked("b");  // must not overwrite the parked 'a'
  Status st = Failpoints::TakeParked();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_TRUE(Failpoints::TakeParked().ok());  // take clears the slot
}

/// A dense ViewMap's seams: its cell-array allocation parks both ViewMap
/// seams (like a fresh hash map's Reserve), in-box upserts park nothing,
/// and the conversion to hash mode parks viewmap.rehash.
TEST(FailpointTriggerTest, DenseViewMapSeamsPark) {
  FailpointGuard guard;
  for (const char* seam : {"viewmap.reserve", "viewmap.rehash"}) {
    SCOPED_TRACE(seam);
    ASSERT_TRUE(Failpoints::Configure(std::string(seam) + "=oom").ok());
    Failpoints::ClearParked();
    ViewMap map(1, 1);
    map.ReserveDense({ValueRange{0, 9}}, 10);
    EXPECT_EQ(Failpoints::TakeParked().code(),
              StatusCode::kResourceExhausted);
    const int64_t in_box = 4;
    map.Upsert(&in_box)[0] += 1.0;
    EXPECT_TRUE(Failpoints::TakeParked().ok());
    const int64_t outside = 10;
    map.Upsert(&outside)[0] += 1.0;
    EXPECT_FALSE(map.dense());
    EXPECT_EQ(Failpoints::TakeParked().code(),
              std::string(seam) == "viewmap.rehash"
                  ? StatusCode::kResourceExhausted
                  : StatusCode::kOk);
    EXPECT_EQ(map.size(), 2u);
  }
}

// --- Injection through the execution runtime ---------------------------

class FailpointEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Engine-level tests need a clean slate; the guard restores any
    // ambient sweep configuration afterwards.
    Failpoints::Clear();
    Failpoints::ClearParked();
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
    Engine oracle_engine(&data_->catalog, &data_->tree, EngineOptions{});
    auto oracle = oracle_engine.Evaluate(MakeExampleBatch(*data_));
    ASSERT_TRUE(oracle.ok());
    oracle_ = std::move(oracle->results);
  }

  FailpointGuard guard_;
  std::unique_ptr<FavoritaData> data_;
  std::vector<QueryResult> oracle_;
};

/// Every Status-channel seam: injecting `fail` makes Execute return
/// kInternal (never crash), leaves no live views behind, and the very
/// next clean Execute of the same handle is bit-for-bit correct.
TEST_F(FailpointEngineTest, StatusSeamsFailCleanlyAndRecover) {
  const char* seams[] = {"viewstore.register", "viewstore.publish",
                         "scheduler.spawn", "engine.sorted_cache"};
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  for (const char* seam : seams) {
    SCOPED_TRACE(seam);
    const size_t base_views = ViewStore::GlobalLiveViews();
    const size_t base_bytes = ViewStore::GlobalLiveBytes();
    ASSERT_TRUE(Failpoints::Configure(std::string(seam) + "=fail").ok());
    auto result = prepared->Execute();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_GT(Failpoints::Hits(seam), 0u);
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views);
    EXPECT_EQ(ViewStore::GlobalLiveBytes(), base_bytes);
    Failpoints::Clear();
    auto clean = prepared->Execute();
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ExpectResultsMatch(clean->results, oracle_, 0.0,
                       std::string("recovery after ") + seam);
  }
}

/// The parked (void) seams inside ViewMap growth: the injected Status is
/// collected by the surrounding scan/publish frame and surfaces exactly
/// like a Status-channel failure.
TEST_F(FailpointEngineTest, ParkedViewMapSeamsSurfaceThroughExecute) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  for (const char* seam : {"viewmap.reserve", "viewmap.rehash"}) {
    SCOPED_TRACE(seam);
    const size_t base_views = ViewStore::GlobalLiveViews();
    ASSERT_TRUE(Failpoints::Configure(std::string(seam) + "=oom").ok());
    auto result = prepared->Execute();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views);
    Failpoints::Clear();
    auto clean = prepared->Execute();
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ExpectResultsMatch(clean->results, oracle_, 0.0,
                       std::string("recovery after ") + seam);
  }
}

/// catalog.append fires before any mutation: the epoch, watermark, and
/// row count are untouched and the very next append commits normally.
TEST_F(FailpointEngineTest, CatalogAppendFailpointIsAtomic) {
  const size_t rows_before = data_->catalog.relation(data_->sales).num_rows();
  const uint64_t epoch_before = data_->catalog.append_epoch();
  const std::vector<std::vector<Value>> rows = {
      {Value::Int(3), Value::Int(7), Value::Int(11), Value::Double(5.0),
       Value::Int(1)}};

  ASSERT_TRUE(Failpoints::Configure("catalog.append=fail").ok());
  Status st = data_->catalog.AppendRows(data_->sales, rows);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(data_->catalog.relation(data_->sales).num_rows(), rows_before);
  EXPECT_EQ(data_->catalog.CommittedRows(data_->sales), rows_before);
  EXPECT_EQ(data_->catalog.append_epoch(), epoch_before);

  Failpoints::Clear();
  ASSERT_TRUE(data_->catalog.AppendRows(data_->sales, rows).ok());
  EXPECT_EQ(data_->catalog.relation(data_->sales).num_rows(), rows_before + 1);
  EXPECT_GT(data_->catalog.append_epoch(), epoch_before);
}

/// viewstore.freeze guards the freeze every consumed inner view passes at
/// publish; the example batch has inner views, so the seam always fires.
TEST_F(FailpointEngineTest, FreezeFailureUnwinds) {
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto prepared = engine.Prepare(MakeExampleBatch(*data_));
  ASSERT_TRUE(prepared.ok());
  auto clean = prepared->Execute();
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->stats.num_views, 0);
  ASSERT_TRUE(Failpoints::Configure("viewstore.freeze=fail").ok());
  auto result = prepared->Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  Failpoints::Clear();
  auto again = prepared->Execute();
  ASSERT_TRUE(again.ok());
  ExpectResultsMatch(again->results, oracle_, 0.0, "recovery after freeze");
}

/// Pool workers outlive a pass. Here a query output's shrink-rehash parks
/// an injected failure on the worker running the group, and the next
/// publish fails the group before anything harvests the park. The passes
/// that worker runs afterwards, with injection still armed, must not
/// inherit that park.
TEST(FailpointParkTest, ParkAbandonedOnAWorkerFailsNoLaterPass) {
  FailpointGuard guard;
  Failpoints::Clear();
  Failpoints::ClearParked();
  // Three equal keys: each output's dense box (20 x 20 cells) is sized
  // from the domain product, but only its 20 diagonal cells fill, so
  // publishing the output shrinks it with a rehash.
  Catalog catalog;
  const AttrId a = catalog.AddAttribute("a", AttrType::kInt).value();
  const AttrId b = catalog.AddAttribute("b", AttrType::kInt).value();
  const AttrId c = catalog.AddAttribute("c", AttrType::kInt).value();
  const RelationId rid = catalog.AddRelation("R", {"a", "b", "c"}).value();
  Relation& rel = catalog.mutable_relation(rid);
  for (int i = 0; i < 400; ++i) {
    rel.AppendRowUnchecked(
        {Value::Int(i % 20), Value::Int(i % 20), Value::Int(i % 20)});
  }
  catalog.RefreshDomainSizes();
  JoinTree tree = JoinTree::FromEdges(catalog, {}).value();
  QueryBatch batch;
  for (AttrId second : {b, c}) {
    Query q;
    q.name = "by_a_" + std::to_string(second);
    q.group_by = {a, second};
    q.aggregates.push_back(Aggregate::Count());
    batch.Add(std::move(q));
  }

  // Two workers, one group, one shard: the group runs on a pool worker
  // and its seams hit in a fixed order.
  EngineOptions options;
  options.scheduler.num_threads = 2;
  options.scheduler.domain_parallel = false;
  Engine engine(&catalog, &tree, options);
  auto prepared = engine.Prepare(batch);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared->compiled().grouped.groups.size(), 1u);
  auto oracle = prepared->Execute();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  // Count the rehash hits of one pass: the two slot allocations, then one
  // shrink per published output. The first publish's shrink is the
  // second-to-last hit.
  const std::string armed = "viewstore.register=fail#1000000";
  ASSERT_TRUE(Failpoints::Configure(armed + ",viewmap.rehash=fail#1000000")
                  .ok());
  ASSERT_TRUE(prepared->Execute().ok());
  const uint64_t rehashes = Failpoints::Hits("viewmap.rehash");
  ASSERT_EQ(rehashes, 4u) << "recipe changed: expected 2 allocations and "
                             "2 shrinks";

  ASSERT_TRUE(Failpoints::Configure("viewmap.rehash=oom#" +
                                    std::to_string(rehashes - 1) +
                                    ",viewstore.publish=fail#2")
                  .ok());
  auto failed = prepared->Execute();
  ASSERT_FALSE(failed.ok());
  // The publish failure, not the parked oom: the park was abandoned.
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal)
      << failed.status().ToString();

  ASSERT_TRUE(Failpoints::Configure(armed).ok());
  for (int i = 0; i < 8; ++i) {
    auto later = prepared->Execute();
    ASSERT_TRUE(later.ok()) << "pass " << i << ": "
                            << later.status().ToString();
    ExpectResultsMatch(later->results, oracle->results, 0.0,
                       "pass " + std::to_string(i) + " after the park");
  }
}

// --- Randomized schedules over the differential harness -----------------

class FailpointFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// Random specs (seams x actions x triggers) over random scheduler
/// shapes: every Execute either fails with a non-OK Status or succeeds
/// with bit-for-bit correct results — injection may abort work but never
/// corrupt it — and the accounting always returns to baseline.
TEST_P(FailpointFuzzTest, RandomSchedulesNeverCorruptOrLeak) {
  FailpointGuard guard;
  Failpoints::Clear();
  Failpoints::ClearParked();
  Rng rng(GetParam() * 6151 + 13);
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 1500});
  ASSERT_TRUE(data.ok());

  EngineOptions options;
  options.scheduler.num_threads = static_cast<int>(rng.UniformInt(1, 4));
  options.scheduler.min_shard_rows = rng.Bernoulli(0.5) ? 64 : 4096;
  Engine engine(&(*data)->catalog, &(*data)->tree, options);
  auto prepared = engine.Prepare(MakeExampleBatch(**data));
  ASSERT_TRUE(prepared.ok());
  auto oracle = prepared->Execute();
  ASSERT_TRUE(oracle.ok());

  const char* seams[] = {"viewstore.register", "viewstore.publish",
                         "viewstore.freeze",   "scheduler.spawn",
                         "engine.sorted_cache", "viewmap.reserve",
                         "viewmap.rehash"};
  const char* actions[] = {"fail", "oom", "panic", "delay:1"};
  const char* triggers[] = {"", "@0.5", "#2", "*1"};
  const size_t base_views = ViewStore::GlobalLiveViews();
  const size_t base_bytes = ViewStore::GlobalLiveBytes();

  for (int round = 0; round < 6; ++round) {
    std::string spec;
    const int clauses = static_cast<int>(rng.UniformInt(1, 3));
    for (int c = 0; c < clauses; ++c) {
      if (c > 0) spec += ",";
      spec += seams[rng.Uniform(std::size(seams))];
      spec += "=";
      spec += actions[rng.Uniform(std::size(actions))];
      spec += triggers[rng.Uniform(std::size(triggers))];
    }
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " round=" +
                 std::to_string(round) + " spec=" + spec);
    ASSERT_TRUE(Failpoints::Configure(spec, GetParam()).ok());
    auto result = prepared->Execute();
    if (result.ok()) {
      // Delays, unfired probabilities, and recovered retries must leave
      // the answers untouched.
      ExpectResultsMatch(result->results, oracle->results, 0.0,
                         "injected-but-ok run");
    } else {
      EXPECT_NE(result.status().code(), StatusCode::kOk);
    }
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views);
    EXPECT_EQ(ViewStore::GlobalLiveBytes(), base_bytes);
  }

  Failpoints::Clear();
  auto clean = prepared->Execute();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ExpectResultsMatch(clean->results, oracle->results, 0.0,
                     "clean execute after injection rounds");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailpointFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

/// Runs under whatever LMFAO_FAILPOINTS the environment installed (the
/// CI failpoints job sweeps several specs); with none configured this is
/// a plain smoke test. Nothing may crash, and clearing the injection
/// must restore exact answers.
TEST(FailpointSweepTest, AmbientInjectionNeverCrashesAndRecovers) {
  FailpointGuard guard;
  // Build the fixture with injection suspended: this test targets the
  // execution path, and an ambient catalog.append or viewstore spec would
  // otherwise fail data construction before any Execute runs.
  const std::string ambient = Failpoints::CurrentSpec();
  Failpoints::Clear();
  Failpoints::ClearParked();
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 1500});
  ASSERT_TRUE(data.ok());
  EngineOptions options;
  options.scheduler.num_threads = 2;
  Engine engine(&(*data)->catalog, &(*data)->tree, options);
  auto prepared = engine.Prepare(MakeExampleBatch(**data));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  if (!ambient.empty()) {
    ASSERT_TRUE(Failpoints::Configure(ambient).ok());
  }

  const size_t base_views = ViewStore::GlobalLiveViews();
  int failures = 0;
  for (int i = 0; i < 20; ++i) {
    auto result = prepared->Execute();
    if (!result.ok()) ++failures;
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views) << "iteration " << i;
  }
  Failpoints::Clear();
  Failpoints::ClearParked();
  auto clean = prepared->Execute();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  Engine oracle_engine(&(*data)->catalog, &(*data)->tree, EngineOptions{});
  auto oracle = oracle_engine.Evaluate(MakeExampleBatch(**data));
  ASSERT_TRUE(oracle.ok());
  ExpectResultsMatch(clean->results, oracle->results, 0.0,
                     "clean execute after ambient sweep (" +
                         std::to_string(failures) + "/20 runs failed)");
}

/// The sweep's reach into direct-addressed outputs. Single-threaded, every
/// output of the example batch is dense (pinned on a clean run), so every
/// ViewMap seam hit of these passes lands on a dense map: its cell-array
/// allocation parks viewmap.reserve and viewmap.rehash, an out-of-box
/// conversion viewmap.rehash. An ambient viewmap sweep must register hits;
/// nothing may leak, and clearing the injection restores exact results.
TEST(FailpointSweepTest, AmbientInjectionReachesDenseOutputs) {
  FailpointGuard guard;
  const std::string ambient = Failpoints::CurrentSpec();
  Failpoints::Clear();
  Failpoints::ClearParked();
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 1500});
  ASSERT_TRUE(data.ok());
  EngineOptions options;
  options.scheduler.num_threads = 1;
  Engine engine(&(*data)->catalog, &(*data)->tree, options);
  auto prepared = engine.Prepare(MakeExampleBatch(**data));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto oracle = prepared->Execute();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  int outputs = 0;
  int dense = 0;
  for (const GroupStats& gs : oracle->stats.groups) {
    outputs += gs.num_outputs;
    dense += gs.dense_outputs;
    EXPECT_TRUE(gs.shard_stats.empty());
  }
  ASSERT_GT(dense, 0);
  ASSERT_EQ(dense, outputs) << "some output of the fixture is hashed";
  if (!ambient.empty()) {
    ASSERT_TRUE(Failpoints::Configure(ambient).ok());
  }

  const size_t base_views = ViewStore::GlobalLiveViews();
  int failures = 0;
  for (int i = 0; i < 20; ++i) {
    auto result = prepared->Execute();
    if (!result.ok()) ++failures;
    EXPECT_EQ(ViewStore::GlobalLiveViews(), base_views) << "iteration " << i;
  }
  for (const char* seam : {"viewmap.reserve", "viewmap.rehash"}) {
    if (ambient.find(seam) != std::string::npos) {
      EXPECT_GT(Failpoints::Hits(seam), 0u) << seam;
    }
  }
  Failpoints::Clear();
  Failpoints::ClearParked();
  auto clean = prepared->Execute();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ExpectResultsMatch(clean->results, oracle->results, 0.0,
                     "clean execute after ambient sweep (" +
                         std::to_string(failures) + "/20 runs failed)");
}

}  // namespace
}  // namespace lmfao
