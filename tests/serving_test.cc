/// \file serving_test.cc
/// \brief The serving front-end's contract, pinned four ways:
///
///   1. Chaos soak — concurrent clients + a live appender push a mixed
///      workload through the server while failpoints fire across the
///      sorted-cache/viewstore/catalog seams (the ambient LMFAO_FAILPOINTS
///      spec when the CI sweep sets one, a default probabilistic spec
///      otherwise).
///      Afterwards: zero leaked views against the ViewStore baseline, and
///      every OK response replays bit-for-bit via a sequential
///      ExecuteAt(response.epoch) — chaos may fail requests, but it must
///      never corrupt an answer the server actually gave.
///   2. Overload — 2x-capacity bursts against a 1-worker server shed with
///      ResourceExhausted, keep the backlog bounded, and hold the admitted
///      prepared-execute p99 within 3x the unloaded p99.
///   3. Admission policy — queue-full and watermark shedding, in-queue
///      deadline expiry, retry/degrade semantics, drain vs. abort
///      shutdown; all made deterministic with delay/fail failpoints.
///   4. Epoch isolation — appends racing served executes never tear a
///      result (run under TSan by the tsan ctest preset).
///
/// The data is integer-exact (small integers, sums far below 2^53) so
/// "bit-for-bit" is meaningful across summation orders — the same trick
/// delta_execution_test.cc uses.

#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "differential_harness.h"
#include "engine/engine.h"
#include "engine/report.h"
#include "ml/feature.h"
#include "query/parser.h"
#include "storage/view_store.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace lmfao {
namespace {

using ::lmfao::testing::ExpectResultsMatch;

/// Saves the ambient (environment-driven) failpoint spec and restores it
/// on scope exit, so tests can reconfigure freely.
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

  const std::string& saved() const { return saved_; }

 private:
  std::string saved_;
};

/// A small acyclic database whose every column (doubles included) holds
/// integers in [-3, 3]: all sums are exact, so serving results can be
/// compared bit-for-bit against sequential replays.
struct ExactServingDb {
  Catalog catalog;
  JoinTree tree;
  AttrId j0 = 0, j1 = 0, a = 0, b = 0, d0 = 0;
};

ExactServingDb MakeExactServingDb(uint64_t seed) {
  ExactServingDb db;
  db.j0 = db.catalog.AddAttribute("j0", AttrType::kInt).value();
  db.j1 = db.catalog.AddAttribute("j1", AttrType::kInt).value();
  db.a = db.catalog.AddAttribute("a", AttrType::kInt).value();
  db.b = db.catalog.AddAttribute("b", AttrType::kInt).value();
  db.d0 = db.catalog.AddAttribute("d0", AttrType::kDouble).value();
  LMFAO_CHECK(db.catalog.AddRelation("R0", {"j0", "a"}).ok());
  LMFAO_CHECK(db.catalog.AddRelation("R1", {"j0", "j1", "d0"}).ok());
  LMFAO_CHECK(db.catalog.AddRelation("R2", {"j1", "b"}).ok());
  Rng rng(seed);
  for (int r = 0; r < 3; ++r) {
    Relation& rel = db.catalog.mutable_relation(static_cast<RelationId>(r));
    for (int i = 0; i < 48; ++i) {
      std::vector<Value> row;
      for (int c = 0; c < rel.schema().arity(); ++c) {
        const int64_t v = rng.UniformInt(-3, 3);
        row.push_back(rel.column(c).type() == AttrType::kInt
                          ? Value::Int(v)
                          : Value::Double(static_cast<double>(v)));
      }
      rel.AppendRowUnchecked(row);
    }
  }
  db.catalog.RefreshDomainSizes();
  std::vector<std::pair<RelationId, RelationId>> edges = {{0, 1}, {1, 2}};
  db.tree = JoinTree::FromEdges(db.catalog, edges).value();
  return db;
}

QueryBatch MakeExactServingBatch(const ExactServingDb& db) {
  QueryBatch batch;
  {
    Query q;
    q.name = "by_a";
    q.group_by.push_back(db.a);
    q.aggregates.push_back(Aggregate(std::vector<Factor>{}));  // SUM(1)
    q.aggregates.push_back(Aggregate({Factor{db.d0, Function::Identity()}}));
    batch.Add(std::move(q));
  }
  {
    Query q;
    q.name = "totals";
    q.aggregates.push_back(Aggregate({Factor{db.d0, Function::Identity()},
                                      Factor{db.b, Function::Identity()}}));
    q.aggregates.push_back(Aggregate({Factor{db.a, Function::Square()}}));
    batch.Add(std::move(q));
  }
  return batch;
}

constexpr char kAdHocText[] = "SELECT a, SUM(d0) FROM D GROUP BY a";

/// Appends 1-4 integer-exact rows to a random relation through the
/// concurrent commit path. Under chaos the catalog.append failpoint may
/// fail the commit; that is the appender's problem to tolerate, so
/// failures are counted, not asserted.
void AppendExactRows(Catalog* catalog, Rng* rng, size_t* failures) {
  const RelationId r = static_cast<RelationId>(
      rng->UniformInt(0, catalog->num_relations() - 1));
  const Relation& rel = catalog->relation(r);
  std::vector<std::vector<Value>> rows;
  const int n = static_cast<int>(rng->UniformInt(1, 4));
  for (int i = 0; i < n; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < rel.schema().arity(); ++c) {
      const int64_t v = rng->UniformInt(-3, 3);
      row.push_back(rel.column(c).type() == AttrType::kInt
                        ? Value::Int(v)
                        : Value::Double(static_cast<double>(v)));
    }
    rows.push_back(std::move(row));
  }
  if (!catalog->AppendRows(r, rows).ok() && failures != nullptr) {
    ++*failures;
  }
}

Request MakeMixedRequest(uint64_t draw) {
  Request req;
  if (draw < 6) {
    req.cls = RequestClass::kPreparedExecute;
    req.batch = "exact";
  } else if (draw < 8) {
    req.cls = RequestClass::kDeltaRefresh;
    req.batch = "exact";
  } else {
    req.cls = RequestClass::kAdHoc;
    req.text = kAdHocText;
  }
  return req;
}

Request PreparedRequest(const std::string& batch = "exact") {
  Request req;
  req.cls = RequestClass::kPreparedExecute;
  req.batch = batch;
  return req;
}

/// The tentpole pin: concurrent clients + live appends + injected faults.
/// Requests may be shed or fail — but the process must not crash, no view
/// may leak, and every answer the server *did* give must replay
/// bit-for-bit at its reported epoch.
TEST(ServingChaosTest, SoakIsCrashFreeLeakFreeAndBitForBit) {
  FailpointGuard guard;
  Failpoints::Clear();  // Clean setup; chaos starts once serving does.

  ExactServingDb db = MakeExactServingDb(0x50a1);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  const QueryBatch batch = MakeExactServingBatch(db);

  // Sequential replay handles, prepared before any fault is armed. The
  // plan cache hands back the same compiled artifact the server uses.
  auto replay = engine.Prepare(batch);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  auto adhoc_parsed = ParseQueryBatch(kAdHocText, db.catalog);
  ASSERT_TRUE(adhoc_parsed.ok()) << adhoc_parsed.status().ToString();
  auto adhoc_replay = engine.Prepare(*adhoc_parsed);
  ASSERT_TRUE(adhoc_replay.ok()) << adhoc_replay.status().ToString();

  const size_t live_baseline = ViewStore::GlobalLiveViews();

  ServerOptions options;
  options.num_workers = 3;
  options.prepared_queue_capacity = 128;
  options.delta_queue_capacity = 64;
  options.adhoc_queue_capacity = 64;
  Server server(&engine, &db.catalog, options);
  ASSERT_TRUE(server.RegisterBatch("exact", batch).ok());

  // The CI sweeps drive the spec through LMFAO_FAILPOINTS; standalone runs
  // get a default probabilistic mix over the execution/storage/commit
  // seams. (A sweep spec must leave some probability of success — an
  // always-fail spec starves the ok_count assertion below by design.)
  const std::string spec =
      guard.saved().empty()
          ? "engine.sorted_cache=fail@0.05,viewstore.publish=fail@0.03,"
            "catalog.append=fail@0.05"
          : guard.saved();
  ASSERT_TRUE(Failpoints::Configure(spec, 0xc4a05).ok());

  std::atomic<bool> stop_appender{false};
  size_t append_failures = 0;
  std::thread appender([&] {
    Rng rng(0xa99e4d);
    while (!stop_appender.load(std::memory_order_relaxed)) {
      AppendExactRows(&db.catalog, &rng, &append_failures);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 24;
  std::vector<std::vector<std::pair<RequestClass, Response>>> responses(
      kClients);
  {
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        Rng rng(0xc11e47 + static_cast<uint64_t>(t));
        std::vector<std::pair<RequestClass, std::future<Response>>> futures;
        for (int i = 0; i < kRequestsPerClient; ++i) {
          Request req = MakeMixedRequest(rng.Uniform(10));
          const RequestClass cls = req.cls;
          futures.emplace_back(cls, server.Submit(std::move(req)));
          if (i % 4 == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        for (auto& [cls, f] : futures) {
          responses[static_cast<size_t>(t)].emplace_back(cls, f.get());
        }
      });
    }
    for (std::thread& th : clients) th.join();
  }
  stop_appender.store(true, std::memory_order_relaxed);
  appender.join();

  Failpoints::Clear();  // Replays below must run clean.
  server.Shutdown();

  // No execution — server-driven or injected-to-fail — may leak a view.
  EXPECT_EQ(ViewStore::GlobalLiveViews(), live_baseline);

  size_t ok_count = 0;
  for (const auto& per_client : responses) {
    for (const auto& [cls, resp] : per_client) {
      if (!resp.status.ok()) continue;  // Chaos casualty; allowed.
      ++ok_count;
      PreparedBatch& handle =
          cls == RequestClass::kAdHoc ? *adhoc_replay : *replay;
      auto want = handle.ExecuteAt(resp.epoch);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ExpectResultsMatch(resp.results, want->results, 0.0,
                         std::string("soak replay (") +
                             RequestClassName(cls) + ")");
    }
  }
  EXPECT_GT(ok_count, 0u);

  // The serving report renders from any stats snapshot.
  const std::string report = ReportServing(server.stats());
  EXPECT_NE(report.find("prepared-execute"), std::string::npos);
}

/// Satellite: appends racing served executes (delta refreshes and ad-hoc
/// evaluations included) never tear a result — every response is
/// internally consistent with the epoch it reports. No failpoints; every
/// request must succeed. Runs under TSan via the tsan ctest preset.
TEST(ServingTest, EpochIsolationUnderConcurrentAppends) {
  FailpointGuard guard;
  Failpoints::Clear();

  ExactServingDb db = MakeExactServingDb(0xe90c);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  const QueryBatch batch = MakeExactServingBatch(db);
  auto replay = engine.Prepare(batch);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  auto adhoc_parsed = ParseQueryBatch(kAdHocText, db.catalog);
  ASSERT_TRUE(adhoc_parsed.ok());
  auto adhoc_replay = engine.Prepare(*adhoc_parsed);
  ASSERT_TRUE(adhoc_replay.ok());

  ServerOptions options;
  options.num_workers = 2;
  options.prepared_queue_capacity = 128;
  options.delta_queue_capacity = 64;
  options.adhoc_queue_capacity = 64;
  Server server(&engine, &db.catalog, options);
  ASSERT_TRUE(server.RegisterBatch("exact", batch).ok());

  std::atomic<bool> stop_appender{false};
  size_t append_failures = 0;
  std::thread appender([&] {
    Rng rng(0xbeef);
    while (!stop_appender.load(std::memory_order_relaxed)) {
      AppendExactRows(&db.catalog, &rng, &append_failures);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kClients = 2;
  constexpr int kRequestsPerClient = 20;
  std::vector<std::vector<std::pair<RequestClass, Response>>> responses(
      kClients);
  {
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        Rng rng(0x15011 + static_cast<uint64_t>(t));
        std::vector<std::pair<RequestClass, std::future<Response>>> futures;
        for (int i = 0; i < kRequestsPerClient; ++i) {
          Request req = MakeMixedRequest(rng.Uniform(10));
          futures.emplace_back(req.cls, server.Submit(std::move(req)));
        }
        for (auto& [cls, f] : futures) {
          responses[static_cast<size_t>(t)].emplace_back(cls, f.get());
        }
      });
    }
    for (std::thread& th : clients) th.join();
  }
  stop_appender.store(true, std::memory_order_relaxed);
  appender.join();
  server.Shutdown();

  EXPECT_EQ(append_failures, 0u);
  for (const auto& per_client : responses) {
    for (const auto& [cls, resp] : per_client) {
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      EXPECT_FALSE(resp.degraded);
      PreparedBatch& handle =
          cls == RequestClass::kAdHoc ? *adhoc_replay : *replay;
      auto want = handle.ExecuteAt(resp.epoch);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ExpectResultsMatch(resp.results, want->results, 0.0,
                         std::string("epoch isolation (") +
                             RequestClassName(cls) + ")");
    }
  }
}

/// 2x-capacity bursts against a deliberately tiny server: excess load is
/// shed with ResourceExhausted (never a crash, never an unbounded queue),
/// and the requests that *are* admitted keep their latency — p99 within 3x
/// of the unloaded p99.
TEST(ServingTest, OverloadShedsAndBoundsAdmittedLatency) {
  FailpointGuard guard;
  Failpoints::Clear();

  // A workload with a real (millisecond-scale) service time, so the
  // latency ratio is not dominated by scheduler wake-up noise.
  auto data = MakeFavorita(FavoritaOptions{.num_sales = 10000});
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  auto db = std::move(data).value();
  FeatureSet features;
  features.label = db->units;
  features.continuous = {db->txns, db->price};
  features.categorical = {db->promo, db->cluster};
  auto cov = BuildCovarianceBatch(features, db->catalog);
  ASSERT_TRUE(cov.ok()) << cov.status().ToString();

  Engine engine(&db->catalog, &db->tree, EngineOptions{});
  ServerOptions options;
  options.num_workers = 1;
  options.prepared_queue_capacity = 1;
  options.delta_queue_capacity = 1;
  options.adhoc_queue_capacity = 1;
  Server server(&engine, &db->catalog, options);
  ASSERT_TRUE(server.RegisterBatch("cov", cov->batch).ok());
  const size_t capacity = 3;

  // Phase 1: unloaded baseline — sequential, so the queue stays empty.
  for (int i = 0; i < 15; ++i) {
    Response resp = server.Submit(PreparedRequest("cov")).get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  }
  const double unloaded_p99 =
      server.stats().of(RequestClass::kPreparedExecute).latency.Percentile(99);
  ASSERT_GT(unloaded_p99, 0.0);

  // Phase 2: 2x-capacity bursts.
  size_t shed = 0;
  for (int burst = 0; burst < 12; ++burst) {
    std::vector<std::future<Response>> futures;
    for (size_t i = 0; i < 2 * capacity; ++i) {
      futures.push_back(server.Submit(PreparedRequest("cov")));
    }
    for (auto& f : futures) {
      Response resp = f.get();
      if (resp.status.ok()) continue;
      ASSERT_EQ(resp.status.code(), StatusCode::kResourceExhausted)
          << resp.status.ToString();
      ++shed;
    }
  }
  server.Shutdown();

  const ServerStats stats = server.stats();
  const ClassStats& prepared = stats.of(RequestClass::kPreparedExecute);
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(prepared.shed_queue_full + prepared.shed_watermark, shed);
  EXPECT_LE(stats.total_queue_depth_highwater, capacity);
  // Admission control's point: overload must not destroy the latency of
  // the admitted steady-state workload.
  const double admitted_p99 = prepared.latency.Percentile(99);
  EXPECT_LE(admitted_p99, 3.0 * unloaded_p99)
      << "admitted p99 " << admitted_p99 * 1e3 << " ms vs unloaded p99 "
      << unloaded_p99 * 1e3 << " ms";
}

/// Queue-full rejection, watermark shedding of low-priority classes, and
/// in-queue deadline expiry — made deterministic by pinning the single
/// worker inside a delay failpoint while the backlog builds.
TEST(ServingTest, QueueFullWatermarkAndQueueDeadline) {
  FailpointGuard guard;
  Failpoints::Clear();

  ExactServingDb db = MakeExactServingDb(0x9d3b);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  ServerOptions options;
  options.num_workers = 1;
  options.prepared_queue_capacity = 8;
  options.delta_queue_capacity = 2;
  options.adhoc_queue_capacity = 2;
  // Total capacity 12: ad-hoc sheds at backlog >= 6, delta at >= 9.6.
  Server server(&engine, &db.catalog, options);
  ASSERT_TRUE(server.RegisterBatch("exact", MakeExactServingBatch(db)).ok());

  // Every sorted-input fetch now stalls 40 ms, so the worker is pinned
  // inside the first request long enough for the backlog to be exact.
  ASSERT_TRUE(Failpoints::Configure("engine.sorted_cache=delay:40", 1).ok());

  std::vector<std::future<Response>> slow;
  slow.push_back(server.Submit(PreparedRequest()));  // Occupies the worker.

  // Wait until the worker has popped the occupier and reached the stalled
  // seam: once the failpoint registers a hit, the 40 ms sleep is already
  // committed, so everything below happens against a pinned worker.
  for (int spin = 0; Failpoints::Hits("engine.sorted_cache") == 0; ++spin) {
    ASSERT_LT(spin, 20000) << "worker never reached the stalled seam";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // Expires while queued: 0.1 ms deadline behind a >= 40 ms occupier.
  Request doomed = PreparedRequest();
  doomed.deadline_seconds = 1e-4;
  std::future<Response> doomed_future = server.Submit(std::move(doomed));

  // Fill the prepared queue past capacity: the doomed request holds one of
  // the eight slots, so exactly two of these nine must bounce.
  size_t queue_full = 0;
  for (int i = 0; i < 9; ++i) {
    std::future<Response> f = server.Submit(PreparedRequest());
    // Rejections resolve at admission; probe without blocking on admits.
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      Response resp = f.get();
      if (resp.status.code() == StatusCode::kResourceExhausted) {
        ++queue_full;
        EXPECT_NE(resp.status.message().find("queue full"),
                  std::string::npos);
        EXPECT_NE(resp.status.message().find("depth"), std::string::npos);
        continue;
      }
    }
    slow.push_back(std::move(f));
  }
  EXPECT_EQ(queue_full, 2u);

  // Backlog is now 8 of 12 (>= 0.5 watermark): ad-hoc is shed even
  // though its own queue is empty.
  Request adhoc;
  adhoc.cls = RequestClass::kAdHoc;
  adhoc.text = kAdHocText;
  Response adhoc_resp = server.Submit(std::move(adhoc)).get();
  EXPECT_EQ(adhoc_resp.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(adhoc_resp.status.message().find("load shedding"),
            std::string::npos);

  // Below the 0.8 watermark the delta class still gets through.
  Request delta;
  delta.cls = RequestClass::kDeltaRefresh;
  delta.batch = "exact";
  std::future<Response> delta_future = server.Submit(std::move(delta));

  // Un-stall and drain.
  Failpoints::Clear();
  Response doomed_resp = doomed_future.get();
  EXPECT_EQ(doomed_resp.status.code(), StatusCode::kDeadlineExceeded);
  for (auto& f : slow) {
    Response resp = f.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  }
  EXPECT_TRUE(delta_future.get().status.ok());
  server.Shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.of(RequestClass::kPreparedExecute).shed_queue_full,
            queue_full);
  EXPECT_GE(stats.of(RequestClass::kPreparedExecute).expired_in_queue, 1u);
  EXPECT_GE(stats.of(RequestClass::kPreparedExecute).deadline_trips, 1u);
  EXPECT_EQ(stats.of(RequestClass::kAdHoc).shed_watermark, 1u);
  EXPECT_LE(stats.total_queue_depth_highwater, 12u);
}

/// Retry semantics: a transient fault that clears within the retry budget
/// is invisible to the client (beyond Response::retries); one that does
/// not clear fails prepared-execute with the transient status but only
/// *degrades* delta-refresh, which falls back to its pinned base epoch.
TEST(ServingTest, RetriesRecoverDegradeOrExhaust) {
  FailpointGuard guard;
  Failpoints::Clear();

  ExactServingDb db = MakeExactServingDb(0x7e57);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  const QueryBatch batch = MakeExactServingBatch(db);
  auto replay = engine.Prepare(batch);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  ServerOptions options;
  options.num_workers = 1;
  Server server(&engine, &db.catalog, options);
  ASSERT_TRUE(server.RegisterBatch("exact", batch).ok());
  const EpochSnapshot epoch0 = db.catalog.SnapshotEpoch();

  // Fires twice, then never again: attempts 1 and 2 fail, attempt 3
  // succeeds. The client just sees an OK answer that cost two retries.
  ASSERT_TRUE(Failpoints::Configure("engine.sorted_cache=fail*2", 7).ok());
  Response recovered = server.Submit(PreparedRequest()).get();
  ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  EXPECT_EQ(recovered.retries, 2);
  {
    auto want = replay->ExecuteAt(recovered.epoch);
    ASSERT_TRUE(want.ok());
    ExpectResultsMatch(recovered.results, want->results, 0.0,
                       "recovered execute");
  }

  // A fault that never clears: prepared-execute exhausts its retries and
  // surfaces the transient status...
  ASSERT_TRUE(Failpoints::Configure("engine.sorted_cache=fail", 7).ok());
  Response exhausted = server.Submit(PreparedRequest()).get();
  ASSERT_FALSE(exhausted.status.ok());
  EXPECT_TRUE(exhausted.status.IsRetryable());
  EXPECT_EQ(exhausted.retries, Server::kMaxRetries);

  // ...but delta-refresh degrades instead: the pinned base epoch is served
  // (stale — appends happened since — yet correct as of that epoch).
  size_t append_failures = 0;
  Rng rng(0xadd);
  AppendExactRows(&db.catalog, &rng, &append_failures);
  ASSERT_EQ(append_failures, 0u);
  Request delta;
  delta.cls = RequestClass::kDeltaRefresh;
  delta.batch = "exact";
  Response degraded = server.Submit(std::move(delta)).get();
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.epoch.rows, epoch0.rows);

  // Fault cleared: the next refresh is full-fidelity at a newer epoch.
  Failpoints::Clear();
  Request delta2;
  delta2.cls = RequestClass::kDeltaRefresh;
  delta2.batch = "exact";
  Response refreshed = server.Submit(std::move(delta2)).get();
  ASSERT_TRUE(refreshed.status.ok()) << refreshed.status.ToString();
  EXPECT_FALSE(refreshed.degraded);
  EXPECT_NE(refreshed.epoch.rows, epoch0.rows);
  {
    auto want = replay->ExecuteAt(refreshed.epoch);
    ASSERT_TRUE(want.ok());
    ExpectResultsMatch(refreshed.results, want->results, 0.0,
                       "post-chaos refresh");
  }
  server.Shutdown();

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.of(RequestClass::kPreparedExecute).retries,
            static_cast<uint64_t>(2 + Server::kMaxRetries));
  EXPECT_EQ(stats.of(RequestClass::kDeltaRefresh).degraded, 1u);
}

/// Drain shutdown: everything already admitted completes OK; later
/// submissions are rejected with FailedPrecondition.
TEST(ServingTest, DrainShutdownCompletesAdmittedRequests) {
  FailpointGuard guard;
  Failpoints::Clear();

  ExactServingDb db = MakeExactServingDb(0xd4a1);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  ServerOptions options;
  options.num_workers = 1;
  Server server(&engine, &db.catalog, options);
  ASSERT_TRUE(server.RegisterBatch("exact", MakeExactServingBatch(db)).ok());

  // A real backlog, so drain has actual work left to finish.
  ASSERT_TRUE(Failpoints::Configure("engine.sorted_cache=delay:10", 1).ok());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.Submit(PreparedRequest()));
  }
  server.Shutdown(/*drain=*/true);
  for (auto& f : futures) {
    Response resp = f.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  }

  Response late = server.Submit(PreparedRequest()).get();
  EXPECT_EQ(late.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_GE(server.stats().of(RequestClass::kPreparedExecute).rejected_draining,
            1u);
}

/// Abort shutdown: still-queued requests are answered FailedPrecondition
/// immediately; an in-flight one (if any) still finishes — workers are
/// never killed mid-execution.
TEST(ServingTest, AbortShutdownFailsQueuedRequests) {
  FailpointGuard guard;
  Failpoints::Clear();

  ExactServingDb db = MakeExactServingDb(0xab07);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  ServerOptions options;
  options.num_workers = 1;
  Server server(&engine, &db.catalog, options);
  ASSERT_TRUE(server.RegisterBatch("exact", MakeExactServingBatch(db)).ok());

  ASSERT_TRUE(Failpoints::Configure("engine.sorted_cache=delay:10", 1).ok());
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.Submit(PreparedRequest()));
  }
  server.Shutdown(/*drain=*/false);

  size_t ok = 0, flushed = 0;
  for (auto& f : futures) {
    Response resp = f.get();  // Every future resolves — none may hang.
    if (resp.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status.code(), StatusCode::kFailedPrecondition)
          << resp.status.ToString();
      ++flushed;
    }
  }
  EXPECT_EQ(ok + flushed, 6u);
  // The worker pops at most one request before the 30 ms stall; the rest
  // must have been flushed.
  EXPECT_GE(flushed, 5u);
}

/// Admission validation: malformed requests are answered immediately with
/// a self-explanatory status instead of occupying a worker; an ad-hoc
/// parse error carries the parser's line/column position through to the
/// client.
TEST(ServingTest, AdmissionValidationAndParseErrors) {
  FailpointGuard guard;
  Failpoints::Clear();

  ExactServingDb db = MakeExactServingDb(0xbad0);
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  Server server(&engine, &db.catalog, ServerOptions{});
  ASSERT_TRUE(server.RegisterBatch("exact", MakeExactServingBatch(db)).ok());

  Response unknown = server.Submit(PreparedRequest("ghost")).get();
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status.message().find("ghost"), std::string::npos);

  Request empty_adhoc;
  empty_adhoc.cls = RequestClass::kAdHoc;
  Response no_text = server.Submit(std::move(empty_adhoc)).get();
  EXPECT_EQ(no_text.status.code(), StatusCode::kInvalidArgument);

  Request bad_adhoc;
  bad_adhoc.cls = RequestClass::kAdHoc;
  bad_adhoc.text = "SELECT % FROM D";
  Response parse_error = server.Submit(std::move(bad_adhoc)).get();
  EXPECT_EQ(parse_error.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parse_error.status.message().find("line 1"), std::string::npos);
  EXPECT_EQ(parse_error.retries, 0);  // Parse errors are not retryable.
  server.Shutdown();
}

TEST(LatencyHistogramTest, PercentilesAreConservativeAndOrdered) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(99), 0.0);
  for (int i = 0; i < 100; ++i) h.Record(1e-3);
  h.Record(1.0);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1.0);
  // Buckets are ~19% wide and percentiles report bucket upper bounds, so
  // the estimate never under-reports and overshoots by < 1.2x.
  EXPECT_GE(h.Percentile(50), 1e-3);
  EXPECT_LE(h.Percentile(50), 1.3e-3);
  EXPECT_LE(h.Percentile(50), h.Percentile(95));
  EXPECT_LE(h.Percentile(95), h.Percentile(99));
  // The top percentile clamps to the true maximum, not a bucket bound.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1.0);
}

TEST(LatencyHistogramTest, MergeAccumulates) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(1e-3);
  b.Record(2e-3);
  b.Record(4e-3);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max_seconds(), 4e-3);
  EXPECT_NEAR(a.sum_seconds(), 7e-3, 1e-12);
}

}  // namespace
}  // namespace lmfao
