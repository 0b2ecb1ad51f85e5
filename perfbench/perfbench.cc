/// \file perfbench.cc
/// \brief The repo benchmark: four closed-loop workloads over the public
/// API of lmfao_core, each checked against an oracle.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--scale full|tiny] [--trace-out <file>]
///
/// Workloads (README.md in this directory says why each was chosen):
///   linreg-bgd      Execute -> AssembleSigma -> TrainRidgeBgd on the
///                   prepared covariance batch (warm caches).
///   cart-train      one CART tree on a fresh Engine (cold caches).
///   append-refresh  AppendRows + Server delta refresh.
///   sharded-cov     ExecuteSharded(4) of the covariance batch.
///
/// With --trace 0 the last stdout line carries the end-to-end metrics;
/// with --trace 1 it carries the per-layer metrics, taken from spans the
/// benchmark records around its calls into each module (trace.h), and the
/// spans are written as a Chrome trace to --trace-out.

#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/join.h"
#include "data/retailer.h"
#include "dist/shard_plan.h"
#include "engine/attribute_order.h"
#include "engine/engine.h"
#include "engine/grouping.h"
#include "engine/plan.h"
#include "engine/view_generation.h"
#include "ml/cart.h"
#include "ml/feature.h"
#include "ml/linreg.h"
#include "serve/server.h"
#include "storage/sort.h"
#include "trace.h"
#include "util/random.h"
#include "util/timer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace lmfao {
namespace perfbench {
namespace {

// bench_common.h's Retailer dimensions.
constexpr int64_t kLocations = 100;
constexpr int64_t kDates = 200;
constexpr int64_t kItems = 2000;
constexpr int64_t kZips = 50;
constexpr int kShards = 4;
/// Set-ups in an untraced run; setup_s is their median. A traced run sets
/// up once.
constexpr int kSetups = 6;
/// Threads of the CART scan oracle (outside the timed phase).
constexpr int kOracleThreads = 4;
/// Relative tolerance of every oracle comparison.
constexpr double kRelTol = 1e-9;
/// Marks a figure nothing recorded; it is printed as null and makes the
/// run incorrect, so a layer that stops being measured cannot pass as 0.
constexpr double kNoSample = std::numeric_limits<double>::quiet_NaN();

/// Environment variables that change what the program does.
const char* const kPinnedEnv[] = {"LMFAO_JIT", "LMFAO_JIT_CC",
                                  "LMFAO_FAILPOINTS", "LMFAO_DIST_SHARDS"};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: error: %s\n", what.c_str());
  std::exit(1);
}

void Require(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(StatusOr<T> value, const char* what) {
  Require(value.status(), what);
  return std::move(value).value();
}

/// Calls `fn` inside a span called `name` and returns what it returns.
template <typename Fn>
auto InSpan(Tracer* tracer, const char* name, Fn&& fn) {
  ScopedSpan span(tracer, name);
  return fn();
}

/// Process CPU time, user + sys, all threads.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ---------------------------------------------------------------------------
// Answer fingerprints and comparisons.

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

uint64_t HashDoubles(const std::vector<double>& values, uint64_t h) {
  for (double v : values) h = Mix(h ^ Bits(v));
  return h;
}

/// Bit-exact, iteration-order-independent fingerprint of query results.
uint64_t ResultsFingerprint(const std::vector<QueryResult>& results) {
  uint64_t sum = 0;
  for (size_t q = 0; q < results.size(); ++q) {
    const int width = results[q].data.width();
    results[q].data.ForEach([&](const TupleKey& key, const double* payload) {
      uint64_t h = Mix(q + 1);
      for (int c = 0; c < key.size(); ++c) {
        h = Mix(h ^ static_cast<uint64_t>(key[c]));
      }
      for (int s = 0; s < width; ++s) h = Mix(h ^ Bits(payload[s]));
      sum += h;
    });
  }
  return Mix(sum ^ results.size());
}

/// The differential suites' rule: relative to max(1, |x|, |y|).
bool Agree(double x, double y, double rel_tol) {
  if (x == y) return true;
  const double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
  return std::fabs(x - y) <= rel_tol * scale;
}

/// Every key of either side must agree slot by slot; a key missing on one
/// side counts as zeros there.
Status ResultsAgree(const std::vector<QueryResult>& got,
                    const std::vector<QueryResult>& want) {
  if (got.size() != want.size()) return Status::Internal("query count differs");
  for (size_t q = 0; q < want.size(); ++q) {
    bool ok = true;
    auto check = [&](const QueryResult& a, const QueryResult& b) {
      const int width = std::max(a.data.width(), b.data.width());
      a.data.ForEach([&](const TupleKey& key, const double* pa) {
        const double* pb = b.data.Lookup(key);
        for (int s = 0; s < width; ++s) {
          const double va = s < a.data.width() ? pa[s] : 0.0;
          const double vb =
              pb != nullptr && s < b.data.width() ? pb[s] : 0.0;
          if (!Agree(va, vb, kRelTol)) ok = false;
        }
      });
    };
    check(got[q], want[q]);
    check(want[q], got[q]);
    if (!ok) return Status::Internal("query " + std::to_string(q) + " differs");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Inputs.

std::unique_ptr<RetailerData> Generate(int64_t rows, uint64_t seed,
                                       Tracer* tracer) {
  ScopedSpan span(tracer, "data.generate");
  RetailerOptions options;
  options.num_inventory = rows;
  options.num_locations = kLocations;
  options.num_dates = kDates;
  options.num_items = kItems;
  options.num_zips = kZips;
  options.seed = seed;
  return Must(MakeRetailer(options), "MakeRetailer");
}

/// The paper's Retailer learning task (bench_common.h's RetailerFeatures).
FeatureSet Features(const RetailerData& db) {
  FeatureSet features;
  features.label = db.inventoryunits;
  for (AttrId a : db.continuous) {
    if (a != db.inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = db.categorical;
  return features;
}

CartOptions TreeOptions() {
  CartOptions options;
  options.max_depth = 2;
  options.num_thresholds = 32;
  return options;
}

/// Fresh Inventory rows drawn like the generator's own (uniform location
/// and date, Zipf items, normal units), from a stream seeded by the
/// workload seed.
class AppendStream {
 public:
  explicit AppendStream(uint64_t seed)
      : rng_(Mix(seed ^ 0xa99e7dull)), items_(kItems, 0.7) {}

  std::vector<std::vector<Value>> Next(int64_t n) {
    std::vector<std::vector<Value>> rows;
    rows.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      rows.push_back(
          {Value::Int(rng_.UniformInt(0, kLocations - 1)),
           Value::Int(rng_.UniformInt(0, kDates - 1)),
           Value::Int(static_cast<int64_t>(items_.Sample(&rng_))),
           Value::Double(std::max(0.0, rng_.Normal(20.0, 12.0)))});
    }
    return rows;
  }

 private:
  Rng rng_;
  ZipfTable items_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Config {
  int64_t rows = 0;
  int64_t append_rows = 0;
  uint64_t seed = 0;
};

class BenchWorkload {
 public:
  explicit BenchWorkload(const Config& config) : config_(config) {}
  virtual ~BenchWorkload() = default;

  /// Everything a user pays before the first answer: data generation,
  /// batch build, Prepare or RegisterBatch, and the first operation.
  virtual Status Setup(Tracer* tracer) = 0;
  /// Fingerprint of the first answer Setup produced; equal seeds must give
  /// equal fingerprints.
  virtual uint64_t FirstAnswer() const = 0;
  /// Generates the next operation's input, outside the timed operation.
  virtual void NextInput() {}
  /// One operation; false when it failed or its answer is wrong.
  virtual bool Op(Tracer* tracer) = 0;
  /// Checks the held answers against the workload's oracle. Runs after
  /// the timed phase.
  virtual Status Oracle() = 0;
  /// The workload's batch and bindings, rebuilt for the layer sweep.
  virtual void BuildBatch(Tracer* tracer, QueryBatch* batch,
                          ParamPack* params) = 0;
  /// Counters only the workload's own objects know.
  virtual void RecordCounters(Tracer* tracer) { (void)tracer; }

  RetailerData& db() { return *db_; }
  const FeatureSet& features() const { return features_; }
  const Config& config() const { return config_; }

 protected:
  void GenerateData(Tracer* tracer) {
    db_ = Generate(config_.rows, config_.seed, tracer);
    features_ = Features(*db_);
  }

  CovarianceBatch BuildCov(Tracer* tracer) {
    ScopedSpan span(tracer, "ml.build_batch");
    return Must(BuildCovarianceBatch(features_, db_->catalog),
                "BuildCovarianceBatch");
  }

  Config config_;
  std::unique_ptr<RetailerData> db_;
  FeatureSet features_;
};

/// Workloads whose batch is the covariance batch.
class CovWorkload : public BenchWorkload {
 public:
  using BenchWorkload::BenchWorkload;

  void BuildBatch(Tracer* tracer, QueryBatch* batch,
                  ParamPack* params) override {
    *batch = BuildCov(tracer).batch;
    *params = ParamPack{};
  }

 protected:
  CovarianceBatch cov_;
};

class LinregBgd : public CovWorkload {
 public:
  using CovWorkload::CovWorkload;

  Status Setup(Tracer* tracer) override {
    GenerateData(tracer);
    cov_ = BuildCov(tracer);
    engine_ = std::make_unique<Engine>(&db_->catalog, &db_->tree);
    {
      ScopedSpan span(tracer, "engine.prepare");
      LMFAO_ASSIGN_OR_RETURN(prepared_, engine_->Prepare(cov_.batch));
    }
    SigmaMatrix sigma;
    LMFAO_ASSIGN_OR_RETURN(first_,
                           Train(tracer, "engine.first_execute", &sigma));
    sigma_ = std::move(sigma);
    return Status::OK();
  }

  uint64_t FirstAnswer() const override { return first_; }

  bool Op(Tracer* tracer) override {
    SigmaMatrix sigma;
    auto answer = Train(tracer, "engine.execute", &sigma);
    return answer.ok() && *answer == first_;
  }

  Status Oracle() override {
    LMFAO_ASSIGN_OR_RETURN(
        Relation joined,
        MaterializeJoin(db_->catalog, db_->tree, db_->inventory));
    LMFAO_ASSIGN_OR_RETURN(SigmaMatrix scan,
                           ComputeSigmaScan(joined, features_, db_->catalog));
    if (scan.index.dim != sigma_.index.dim) {
      return Status::Internal("sigma dimension differs from the scan");
    }
    for (size_t i = 0; i < sigma_.data.size(); ++i) {
      if (!Agree(sigma_.data[i], scan.data[i], kRelTol)) {
        return Status::Internal("sigma entry " + std::to_string(i) +
                                " differs from the scan");
      }
    }
    return Status::OK();
  }

 private:
  /// Execute -> AssembleSigma -> TrainRidgeBgd; returns the fingerprint of
  /// Sigma and the model.
  StatusOr<uint64_t> Train(Tracer* tracer, const char* execute_span,
                           SigmaMatrix* sigma) {
    LMFAO_ASSIGN_OR_RETURN(
        BatchResult result,
        InSpan(tracer, execute_span, [&] { return prepared_.Execute(); }));
    LMFAO_ASSIGN_OR_RETURN(*sigma, InSpan(tracer, "ml.assemble_sigma", [&] {
                             return AssembleSigma(cov_, features_,
                                                  result.results);
                           }));
    LMFAO_ASSIGN_OR_RETURN(
        BgdResult model,
        InSpan(tracer, "ml.bgd", [&] { return TrainRidgeBgd(*sigma); }));
    tracer->Count("ml.bgd_iterations", model.iterations);
    return HashDoubles(model.theta, HashDoubles(sigma->data, 1));
  }

  std::unique_ptr<Engine> engine_;
  PreparedBatch prepared_;
  SigmaMatrix sigma_;
  uint64_t first_ = 0;
};

/// Benchmark-side decorator: one span per node batch the trainer asks for.
class TimedCartProvider : public CartAggregateProvider {
 public:
  TimedCartProvider(CartAggregateProvider* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  StatusOr<std::vector<QueryResult>> EvaluateBatch(
      const QueryBatch& batch, const ParamPack& params) override {
    ScopedSpan span(tracer_, "ml.cart_node");
    return inner_->EvaluateBatch(batch, params);
  }

 private:
  CartAggregateProvider* inner_;
  Tracer* tracer_;
};

/// Trains one tree on a fresh Engine, so the plan cache and the sorted
/// relation cache start cold.
StatusOr<DecisionTree> TrainTree(RetailerData& db, const FeatureSet& features,
                                 const CartOptions& options, Tracer* tracer) {
  ScopedSpan span(tracer, "ml.cart_tree");
  Engine engine(&db.catalog, &db.tree);
  LmfaoCartProvider lmfao(&engine);
  TimedCartProvider timed(&lmfao, tracer);
  CartTrainer trainer(features, &db.catalog, options);
  return trainer.Train(&timed);
}

void DescribeTree(const CartNode* node, std::string* out) {
  char buf[160];
  if (node->is_leaf) {
    std::snprintf(buf, sizeof(buf), "L(%.17g,%.17g,%.17g)", node->prediction,
                  node->count, node->variance);
    *out += buf;
    return;
  }
  std::snprintf(buf, sizeof(buf), "S(%d,%d,%.17g,%.17g,%.17g)[",
                static_cast<int>(node->split.attr),
                static_cast<int>(node->split.op), node->split.threshold,
                node->prediction, node->count);
  *out += buf;
  DescribeTree(node->left.get(), out);
  *out += "][";
  DescribeTree(node->right.get(), out);
  *out += "]";
}

/// Split for split: same shape, the same split attribute at every inner
/// node, and node counts and predictions within kRelTol. A split and its
/// mirror image (the same partition with the sides swapped, such as
/// `thunder == 0` against `thunder == 1`) have equal gains up to rounding,
/// so either side of the comparison may pick either; the subtrees must then
/// match crosswise. Any other difference in op or threshold is a mismatch.
bool SameTree(const CartNode* a, const CartNode* b) {
  if (a->is_leaf != b->is_leaf) return false;
  if (!Agree(a->count, b->count, kRelTol) ||
      !Agree(a->prediction, b->prediction, kRelTol)) {
    return false;
  }
  if (a->is_leaf) return true;
  if (a->split.attr != b->split.attr) return false;
  if (a->split.op == b->split.op && a->split.threshold == b->split.threshold) {
    return SameTree(a->left.get(), b->left.get()) &&
           SameTree(a->right.get(), b->right.get());
  }
  return SameTree(a->left.get(), b->right.get()) &&
         SameTree(a->right.get(), b->left.get());
}

/// The scan baseline over row slices of the materialized join, one
/// ScanCartProvider per slice on its own thread, with the slices' partial
/// sums added per query. The same oracle in a fraction of the wall time; it
/// runs after the timed phase only.
class SlicedScanProvider : public CartAggregateProvider {
 public:
  SlicedScanProvider(const Relation& joined, int slices) {
    const size_t rows = joined.num_rows();
    for (int s = 0; s < slices; ++s) {
      slices_.push_back(std::make_unique<Relation>(
          joined.SliceRows(rows * s / slices, rows * (s + 1) / slices)));
    }
  }

  StatusOr<std::vector<QueryResult>> EvaluateBatch(
      const QueryBatch& batch, const ParamPack& params) override {
    std::vector<StatusOr<std::vector<QueryResult>>> parts(
        slices_.size(), Status::Internal("not run"));
    {
      std::vector<std::thread> threads;
      struct Joiner {
        std::vector<std::thread>* threads;
        ~Joiner() {
          for (std::thread& t : *threads) t.join();
        }
      } joiner{&threads};
      for (size_t s = 0; s < slices_.size(); ++s) {
        threads.emplace_back([&, s] {
          try {
            ScanCartProvider scan(slices_[s].get());
            parts[s] = scan.EvaluateBatch(batch, params);
          } catch (const std::exception& e) {
            parts[s] = Status::Internal(e.what());
          }
        });
      }
    }
    for (const auto& part : parts) LMFAO_RETURN_NOT_OK(part.status());
    std::vector<QueryResult> merged = std::move(parts[0]).value();
    for (size_t s = 1; s < parts.size(); ++s) {
      for (size_t q = 0; q < merged.size(); ++q) {
        merged[q].data.MergeAdd((*parts[s])[q].data);
      }
    }
    return merged;
  }

 private:
  std::vector<std::unique_ptr<Relation>> slices_;
};

class CartTrain : public BenchWorkload {
 public:
  using BenchWorkload::BenchWorkload;

  Status Setup(Tracer* tracer) override {
    GenerateData(tracer);
    LMFAO_ASSIGN_OR_RETURN(first_tree_,
                           TrainTree(*db_, features_, TreeOptions(), tracer));
    DescribeTree(first_tree_.root.get(), &first_);
    return Status::OK();
  }

  uint64_t FirstAnswer() const override {
    return std::hash<std::string>{}(first_);
  }

  bool Op(Tracer* tracer) override {
    auto tree = TrainTree(*db_, features_, TreeOptions(), tracer);
    if (!tree.ok()) return false;
    std::string description;
    DescribeTree(tree->root.get(), &description);
    return description == first_;
  }

  Status Oracle() override {
    LMFAO_ASSIGN_OR_RETURN(
        Relation joined,
        MaterializeJoin(db_->catalog, db_->tree, db_->inventory));
    SlicedScanProvider scan(joined, kOracleThreads);
    CartTrainer trainer(features_, &db_->catalog, TreeOptions());
    LMFAO_ASSIGN_OR_RETURN(DecisionTree tree, trainer.Train(&scan));
    if (!SameTree(first_tree_.root.get(), tree.root.get())) {
      std::string scan_tree;
      DescribeTree(tree.root.get(), &scan_tree);
      return Status::Internal("tree differs from the scan-trained tree:\n"
                              "  lmfao " + first_ + "\n  scan  " + scan_tree);
    }
    return Status::OK();
  }

  void BuildBatch(Tracer* tracer, QueryBatch* batch,
                  ParamPack* params) override {
    CartTrainer trainer(features_, &db_->catalog, TreeOptions());
    ScopedSpan span(tracer, "ml.build_batch");
    CartNodeBatch root = trainer.BuildNodeBatch({});
    *batch = std::move(root.batch);
    *params = std::move(root.params);
  }

 private:
  DecisionTree first_tree_;
  std::string first_;
};

/// Submit + wait, with the serve layer's figures recorded as counters.
Response SubmitAndWait(Server* server, Request request, Tracer* tracer) {
  Timer timer;
  Response response = InSpan(tracer, "serve.submit", [&] {
    return server->Submit(std::move(request)).get();
  });
  const double submit_ms = timer.ElapsedMillis();
  tracer->Count("serve.queue_ms", response.queue_seconds * 1e3);
  tracer->Count("serve.exec_ms", response.exec_seconds * 1e3);
  tracer->Count("serve.overhead_ms",
                submit_ms - (response.queue_seconds + response.exec_seconds) *
                                1e3);
  return response;
}

void RecordServerCounters(const Server& server, Tracer* tracer) {
  const ClassStats totals = server.stats().Totals();
  tracer->Count("serve.retries", static_cast<double>(totals.retries));
  tracer->Count("serve.degraded", static_cast<double>(totals.degraded));
  tracer->Count("serve.shed", static_cast<double>(totals.shed_queue_full +
                                                  totals.shed_watermark));
}

class AppendRefresh : public CovWorkload {
 public:
  using CovWorkload::CovWorkload;

  Status Setup(Tracer* tracer) override {
    GenerateData(tracer);
    cov_ = BuildCov(tracer);
    engine_ = std::make_unique<Engine>(&db_->catalog, &db_->tree);
    server_ = std::make_unique<Server>(engine_.get(), &db_->catalog);
    {
      ScopedSpan span(tracer, "serve.register");
      LMFAO_RETURN_NOT_OK(server_->RegisterBatch("cov", cov_.batch));
    }
    for (size_t q = 0; q < cov_.info.size(); ++q) {
      if (cov_.info[q].kind == SigmaQueryInfo::Kind::kCount) count_query_ = q;
    }
    stream_ = std::make_unique<AppendStream>(config_.seed);
    NextInput();
    if (!Op(tracer)) return Status::Internal("first refresh failed");
    first_ = ResultsFingerprint(last_.results);
    return Status::OK();
  }

  uint64_t FirstAnswer() const override { return first_; }

  void NextInput() override { pending_ = stream_->Next(config_.append_rows); }

  bool Op(Tracer* tracer) override {
    {
      ScopedSpan span(tracer, "storage.append");
      if (!db_->catalog.AppendRows(db_->inventory, pending_).ok()) {
        return false;
      }
    }
    const size_t expected = db_->catalog.CommittedRows(db_->inventory);
    Request request;
    request.cls = RequestClass::kDeltaRefresh;
    request.batch = "cov";
    last_ = SubmitAndWait(server_.get(), std::move(request), tracer);
    // A degraded or retried answer is a failed operation. Every Inventory
    // row meets exactly one row of each dimension relation, so the join's
    // SUM(1) must equal the Inventory rows at the served epoch.
    return last_.status.ok() && !last_.degraded && last_.retries == 0 &&
           last_.epoch.at(db_->inventory) == expected &&
           last_.results[count_query_].TotalOf(0) ==
               static_cast<double>(expected);
  }

  /// The last served result against a full prepared Execute at the final
  /// epoch. Each refresh folds into the previous one, so a wrong delta
  /// anywhere in the run shows here.
  Status Oracle() override {
    LMFAO_ASSIGN_OR_RETURN(PreparedBatch prepared,
                           engine_->Prepare(cov_.batch));
    LMFAO_ASSIGN_OR_RETURN(BatchResult full, prepared.Execute());
    if (full.epoch.rows != last_.epoch.rows) {
      return Status::Internal(
          "the last served result is not at the final epoch");
    }
    return ResultsAgree(last_.results, full.results);
  }

  void RecordCounters(Tracer* tracer) override {
    RecordServerCounters(*server_, tracer);
  }

 private:
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Server> server_;  // Joins its workers before engine_ goes.
  std::unique_ptr<AppendStream> stream_;
  std::vector<std::vector<Value>> pending_;
  Response last_;
  size_t count_query_ = 0;  ///< The batch's SUM(1) query.
  uint64_t first_ = 0;
};

class ShardedCov : public CovWorkload {
 public:
  using CovWorkload::CovWorkload;

  Status Setup(Tracer* tracer) override {
    GenerateData(tracer);
    cov_ = BuildCov(tracer);
    engine_ = std::make_unique<Engine>(&db_->catalog, &db_->tree);
    {
      ScopedSpan span(tracer, "engine.prepare");
      LMFAO_ASSIGN_OR_RETURN(prepared_, engine_->Prepare(cov_.batch));
    }
    {
      ScopedSpan span(tracer, "dist.execute_sharded");
      LMFAO_ASSIGN_OR_RETURN(first_result_, prepared_.ExecuteSharded(kShards));
    }
    first_ = ResultsFingerprint(first_result_.results);
    return Status::OK();
  }

  uint64_t FirstAnswer() const override { return first_; }

  bool Op(Tracer* tracer) override {
    ScopedSpan span(tracer, "dist.execute_sharded");
    auto result = prepared_.ExecuteSharded(kShards);
    return result.ok() && ResultsFingerprint(result->results) == first_;
  }

  Status Oracle() override {
    LMFAO_ASSIGN_OR_RETURN(BatchResult full, prepared_.Execute());
    return ResultsAgree(first_result_.results, full.results);
  }

 private:
  std::unique_ptr<Engine> engine_;
  PreparedBatch prepared_;
  BatchResult first_result_;
  uint64_t first_ = 0;
};

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name,
                                            const Config& config) {
  if (name == "linreg-bgd") return std::make_unique<LinregBgd>(config);
  if (name == "cart-train") return std::make_unique<CartTrain>(config);
  if (name == "append-refresh") return std::make_unique<AppendRefresh>(config);
  if (name == "sharded-cov") return std::make_unique<ShardedCov>(config);
  return nullptr;
}

Config MakeConfig(const std::string& workload, bool tiny, uint64_t seed) {
  Config config;
  config.seed = seed;
  config.rows = workload == "cart-train" ? 100000 : 200000;
  if (tiny) config.rows = 4000;
  config.append_rows = config.rows / 100;  // 1% of the base per append.
  return config;
}

// ---------------------------------------------------------------------------
// Layer sweep (traced run only).

/// Times each layer's public entry points once on the workload's own data
/// and batch, after the timed operations and the oracle. Layers the
/// workload's operations did not reach are probed here, so every traced
/// run reports every layer.
void LayerSweep(BenchWorkload* w, Tracer* tracer, int first_op) {
  RetailerData& db = w->db();
  const Catalog& catalog = db.catalog;
  int op = first_op;
  QueryBatch batch;
  ParamPack params;

  // Compile layers, called directly.
  tracer->set_op(op++);
  {
    ScopedSpan sweep(tracer, "sweep.compile");
    w->BuildBatch(tracer, &batch, &params);
    const lmfao::Workload workload =
        Must(InSpan(tracer, "engine.viewgen",
                    [&] { return GenerateViews(batch, catalog, db.tree); }),
             "GenerateViews");
    const GroupedWorkload grouped =
        Must(InSpan(tracer, "engine.grouping",
                    [&] { return GroupViews(workload, catalog); }),
             "GroupViews");
    {
      ScopedSpan span(tracer, "engine.plan");
      for (const ViewGroup& group : grouped.groups) {
        const std::vector<AttrId> order = Must(
            ComputeAttributeOrder(workload, group, catalog),
            "ComputeAttributeOrder");
        Must(BuildGroupPlan(workload, group, catalog, order),
             "BuildGroupPlan");
      }
    }
    int aggregates = 0;
    for (const ViewInfo& v : workload.views) {
      aggregates += static_cast<int>(v.aggregates.size());
    }
    tracer->Count("engine.views", workload.NumInnerViews());
    tracer->Count("engine.groups", static_cast<double>(grouped.groups.size()));
    tracer->Count("engine.aggregates", aggregates);
  }

  // Prepare, first (cold sorted cache) and warm Execute on a fresh engine.
  Engine engine(&catalog, &db.tree);
  PreparedBatch prepared;
  tracer->set_op(op++);
  {
    ScopedSpan sweep(tracer, "sweep.execute");
    prepared = Must(InSpan(tracer, "engine.prepare",
                           [&] { return engine.Prepare(batch); }),
                    "Prepare");
    Must(InSpan(tracer, "engine.first_execute",
                [&] { return prepared.Execute(params); }),
         "first Execute");
    const BatchResult warm = Must(
        InSpan(tracer, "engine.execute",
               [&] { return prepared.Execute(params); }),
        "Execute");
    tracer->Count("engine.peak_view_mib",
                  static_cast<double>(warm.stats.peak_view_bytes) /
                      (1024.0 * 1024.0));
  }

  // Relation sorts: a copy of each node relation, per distinct order.
  tracer->set_op(op++);
  {
    ScopedSpan sweep(tracer, "sweep.sort");
    const CompiledBatch& compiled = prepared.compiled();
    std::set<std::pair<RelationId, std::vector<AttrId>>> done;
    for (size_t g = 0; g < compiled.plans.size(); ++g) {
      const RelationId node = compiled.plans[g].node;
      const Relation& rel = catalog.relation(node);
      std::vector<AttrId> order;
      for (AttrId a : compiled.attr_orders[g]) {
        if (rel.ColumnIndex(a) >= 0) order.push_back(a);
      }
      if (!done.insert({node, order}).second) continue;
      Relation copy = rel;
      ScopedSpan span(tracer, "storage.sort");
      Require(SortRelation(&copy, order), "SortRelation");
    }
  }

  // Sharding: the split, and the CPU cost of ExecuteSharded against an
  // unsharded Execute, interleaved.
  tracer->set_op(op++);
  {
    ScopedSpan sweep(tracer, "sweep.dist");
    ShardSpec spec;
    spec.num_shards = kShards;
    const ShardedPlan plan = Must(
        InSpan(tracer, "dist.shard_plan",
               [&] {
                 return MakeShardedPlan(prepared.compiled(), catalog,
                                        catalog.SnapshotEpoch(), spec);
               }),
        "MakeShardedPlan");
    tracer->Count("dist.dirty_group_ratio",
                  static_cast<double>(plan.dirty_groups) /
                      static_cast<double>(prepared.compiled().plans.size()));
    constexpr int kPairs = 2;
    double sharded_cpu = 0.0, unsharded_cpu = 0.0;
    std::vector<double> merge_ms, exchange_kib, skew;
    for (int i = 0; i < kPairs; ++i) {
      const double c0 = CpuSeconds();
      const BatchResult sharded = Must(
          InSpan(tracer, "dist.execute_sharded",
                 [&] { return prepared.ExecuteSharded(kShards, params); }),
          "ExecuteSharded");
      const double c1 = CpuSeconds();
      Must(InSpan(tracer, "dist.unsharded_execute",
                  [&] { return prepared.Execute(params); }),
           "Execute");
      const double c2 = CpuSeconds();
      sharded_cpu += c1 - c0;
      unsharded_cpu += c2 - c1;
      const ExecutionStats& s = sharded.stats;
      merge_ms.push_back(s.merge_seconds * 1e3);
      exchange_kib.push_back(static_cast<double>(s.exchange_bytes) / 1024.0);
      skew.push_back(s.shard_mean_seconds > 0.0
                         ? s.shard_max_seconds / s.shard_mean_seconds
                         : 1.0);
    }
    tracer->Count("dist.work_ratio", unsharded_cpu > 0.0
                                         ? sharded_cpu / unsharded_cpu
                                         : kNoSample);
    tracer->Count("dist.merge_ms", Median(merge_ms));
    tracer->Count("dist.exchange_kib", Median(exchange_kib));
    tracer->Count("dist.shard_skew", Median(skew));
  }

  // Sigma assembly and descent, when the operations did not run them.
  if (!tracer->Has("ml.bgd")) {
    tracer->set_op(op++);
    ScopedSpan sweep(tracer, "sweep.linreg");
    const CovarianceBatch cov = Must(
        BuildCovarianceBatch(w->features(), catalog), "BuildCovarianceBatch");
    const BatchResult cov_result =
        Must(engine.Evaluate(cov.batch), "Evaluate covariance batch");
    const SigmaMatrix sigma = Must(
        InSpan(tracer, "ml.assemble_sigma",
               [&] {
                 return AssembleSigma(cov, w->features(), cov_result.results);
               }),
        "AssembleSigma");
    const BgdResult model =
        Must(InSpan(tracer, "ml.bgd", [&] { return TrainRidgeBgd(sigma); }),
             "TrainRidgeBgd");
    tracer->Count("ml.bgd_iterations", model.iterations);
  }

  // One shallow tree, when the operations did not train any.
  if (!tracer->Has("ml.cart_node")) {
    tracer->set_op(op++);
    ScopedSpan sweep(tracer, "sweep.cart");
    CartOptions options;
    options.max_depth = 1;
    options.num_thresholds = 8;
    Must(TrainTree(db, w->features(), options, tracer), "CART probe");
  }

  // The rest appends, so it runs last. A direct delta refresh:
  AppendStream stream(w->config().seed + 1);
  tracer->set_op(op++);
  {
    ScopedSpan sweep(tracer, "sweep.delta");
    const BatchResult base = Must(prepared.Execute(params), "Execute");
    {
      ScopedSpan span(tracer, "storage.append");
      Require(db.catalog.AppendRows(db.inventory,
                                     stream.Next(w->config().append_rows)),
              "AppendRows");
    }
    const BatchResult delta =
        Must(InSpan(tracer, "engine.execute_delta",
                    [&] { return prepared.ExecuteDelta(base, params); }),
             "ExecuteDelta");
    tracer->Count("engine.delta_dirty_groups", delta.stats.delta_dirty_groups);
  }

  // And a served refresh, when the operations made none.
  if (!tracer->Has("serve.submit")) {
    tracer->set_op(op++);
    ScopedSpan sweep(tracer, "sweep.serve");
    Server server(&engine, &catalog);
    Require(server.RegisterBatch("probe", batch, params), "RegisterBatch");
    {
      ScopedSpan span(tracer, "storage.append");
      Require(db.catalog.AppendRows(db.inventory,
                                     stream.Next(w->config().append_rows)),
              "AppendRows");
    }
    Request request;
    request.cls = RequestClass::kDeltaRefresh;
    request.batch = "probe";
    Response response = SubmitAndWait(&server, std::move(request), tracer);
    Require(response.status, "served delta refresh");
    RecordServerCounters(server, tracer);
  }
}

// ---------------------------------------------------------------------------
// Run.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <linreg-bgd|cart-train|"
               "append-refresh|sharded-cov> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale full|tiny] "
               "[--trace-out <file>]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") Usage("--scale is full|tiny");
      args.tiny = value == "tiny";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (MakeWorkload(args.workload, Config{}) == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!have_seed) Usage("--seed needs a whole number");
  if (!have_seconds) Usage("--seconds needs a positive number");
  return args;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

double MedianOrNone(const std::vector<double>& values) {
  return values.empty() ? kNoSample : Median(values);
}

/// The per-layer figures of a traced run; each is a median over the
/// operations (ops, the set-up, sweep steps) that recorded it.
std::vector<Metric> LayerMetrics(const Tracer& t,
                                 const std::vector<double>& traced_ms,
                                 const std::vector<double>& untraced_ms) {
  auto ms = [&](const char* span) { return MedianOrNone(t.TotalsMs(span)); };
  auto counter = [&](const char* name) {
    return MedianOrNone(t.Counter(name));
  };
  const double first_execute = ms("engine.first_execute");
  const double execute = ms("engine.execute");
  const double untraced = MedianOrNone(untraced_ms);
  return {
      {"data.generate_s", "s", ms("data.generate") / 1e3},
      {"ml.build_batch_ms", "ms", ms("ml.build_batch")},
      {"ml.assemble_sigma_ms", "ms", ms("ml.assemble_sigma")},
      {"ml.bgd_ms", "ms", ms("ml.bgd")},
      {"ml.bgd_iterations", "count", counter("ml.bgd_iterations")},
      {"ml.cart_node_ms", "ms", ms("ml.cart_node")},
      {"ml.cart_nodes", "count", MedianOrNone(t.Occurrences("ml.cart_node"))},
      {"ml.cart_self_ms", "ms", MedianOrNone(t.SelfMs("ml.cart_tree"))},
      {"engine.prepare_ms", "ms", ms("engine.prepare")},
      {"engine.viewgen_ms", "ms", ms("engine.viewgen")},
      {"engine.grouping_ms", "ms", ms("engine.grouping")},
      {"engine.plan_ms", "ms", ms("engine.plan")},
      {"engine.views", "count", counter("engine.views")},
      {"engine.groups", "count", counter("engine.groups")},
      {"engine.aggregates", "count", counter("engine.aggregates")},
      {"engine.first_execute_ms", "ms", first_execute},
      {"engine.execute_ms", "ms", execute},
      {"engine.sort_fill_ms", "ms", first_execute - execute},
      {"engine.peak_view_mib", "MiB", counter("engine.peak_view_mib")},
      {"engine.delta_dirty_groups", "count",
       counter("engine.delta_dirty_groups")},
      {"storage.append_ms", "ms", ms("storage.append")},
      {"storage.sort_ms", "ms", ms("storage.sort")},
      {"dist.shard_plan_ms", "ms", ms("dist.shard_plan")},
      {"dist.dirty_group_ratio", "ratio", counter("dist.dirty_group_ratio")},
      {"dist.work_ratio", "ratio", counter("dist.work_ratio")},
      {"dist.merge_ms", "ms", counter("dist.merge_ms")},
      {"dist.exchange_kib", "KiB", counter("dist.exchange_kib")},
      {"dist.shard_skew", "ratio", counter("dist.shard_skew")},
      {"serve.submit_ms", "ms", ms("serve.submit")},
      {"serve.queue_ms", "ms", counter("serve.queue_ms")},
      {"serve.exec_ms", "ms", counter("serve.exec_ms")},
      {"serve.overhead_ms", "ms", counter("serve.overhead_ms")},
      {"serve.retries", "count", counter("serve.retries")},
      {"serve.degraded", "count", counter("serve.degraded")},
      {"serve.shed", "count", counter("serve.shed")},
      {"op.self_ms", "ms", MedianOrNone(t.SelfMs("op"))},
      {"trace.overhead_pct", "%",
       (MedianOrNone(traced_ms) / untraced - 1.0) * 100.0},
  };
}

std::string ResultJson(bool correct, long attempted, long failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str());
    out += buf;
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
      out += buf;
    } else {
      out += "null";
    }
    out += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

/// Linear-interpolation quantile (numpy's default).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

int Run(const Args& args) {
  for (const char* var : kPinnedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: %s is set; run with it cleared\n",
                   var);
      return 2;
    }
  }
#ifdef NDEBUG
  const int ndebug = 1;
#else
  const int ndebug = 0;
#endif
  std::printf("# perfbench build_type=%s NDEBUG=%d env: LMFAO_JIT "
              "LMFAO_JIT_CC LMFAO_FAILPOINTS LMFAO_DIST_SHARDS unset\n",
              PERFBENCH_BUILD_TYPE, ndebug);
  const Config config = MakeConfig(args.workload, args.tiny, args.seed);
  const int setups = args.trace ? 1 : kSetups;
  std::printf("# workload=%s seed=%llu rows=%lld append_rows=%lld "
              "seconds=%g trace=%d setups=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<long long>(config.rows),
              static_cast<long long>(config.append_rows), args.seconds,
              args.trace ? 1 : 0, setups);
  std::fflush(stdout);

  // The run is `setups` segments. Each sets the workload up from scratch
  // (freeing the previous instance first), then runs its share of the timed
  // phase: a closed loop with one client. Spreading the set-ups over the
  // run keeps one spell of host load from moving all of them. Every
  // set-up's first answer must match the first one.
  //
  // Each operation's wall and process CPU time are taken separately. The
  // bounded figures are their 90th percentiles: host load changes the share
  // of fast operations in a run, which moves the median from run to run,
  // while the slow end stays put. A traced run has one segment and
  // alternates traced and untraced operations, for trace.overhead_pct,
  // and runs at least one of each.
  Tracer tracer;
  std::unique_ptr<BenchWorkload> w;
  std::vector<double> setup_s, op_ms, op_cpu_ms, traced_ms, untraced_ms;
  long attempted = 0, failed = 0;
  uint64_t first_answer = 0;
  int op = 0;
  for (int k = 0; k < setups; ++k) {
    w.reset();
    w = MakeWorkload(args.workload, config);
    tracer.set_enabled(args.trace);
    tracer.set_op(0);
    Timer timer;
    const Status status =
        InSpan(&tracer, "setup", [&] { return w->Setup(&tracer); });
    setup_s.push_back(timer.ElapsedSeconds());
    Require(status, "setup");
    ++attempted;
    if (k == 0) {
      first_answer = w->FirstAnswer();
    } else if (w->FirstAnswer() != first_answer) {
      ++failed;
    }

    Timer segment;
    const double segment_s = args.seconds / setups;
    const int min_ops = args.trace ? 2 : 1;
    for (int n = 0; n < min_ops || segment.ElapsedSeconds() < segment_s;
         ++n) {
      w->NextInput();
      ++op;
      const bool traced = args.trace && op % 2 == 1;
      tracer.set_enabled(traced);
      tracer.set_op(op);
      const double cpu0 = CpuSeconds();
      Timer op_timer;
      bool ok = false;
      {
        ScopedSpan span(&tracer, "op");
        ok = w->Op(&tracer);
      }
      const double ms = op_timer.ElapsedMillis();
      op_cpu_ms.push_back((CpuSeconds() - cpu0) * 1e3);
      ++attempted;
      if (!ok) ++failed;
      op_ms.push_back(ms);
      (traced ? traced_ms : untraced_ms).push_back(ms);
    }
  }
  const double peak_rss_mib = PeakRssMib();
  tracer.set_enabled(false);

  // The oracle runs after the timed phase and after ru_maxrss is read:
  // materializing the join would otherwise dominate both.
  const Status oracle = w->Oracle();
  if (!oracle.ok()) {
    std::fprintf(stderr, "perfbench: oracle check failed: %s\n",
                 oracle.ToString().c_str());
    failed = attempted;
  }

  std::string setups_text;
  for (double s : setup_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", setups_text.empty() ? "" : ",",
                  s);
    setups_text += buf;
  }
  std::printf("# ops=%zu op_p50_ms=%.3f op_p90_ms=%.3f cpu_p50_ms=%.3f "
              "cpu_p90_ms=%.3f setup_s=[%s] attempted=%ld failed=%ld\n",
              op_ms.size(), Median(op_ms), Quantile(op_ms, 0.9),
              Median(op_cpu_ms), Quantile(op_cpu_ms, 0.9),
              setups_text.c_str(), attempted, failed);

  std::vector<Metric> metrics;
  bool measured = true;
  if (!args.trace) {
    metrics = {
        {"op_p90_ms", "ms", Quantile(op_ms, 0.9)},
        {"cpu_p90_ms", "ms", Quantile(op_cpu_ms, 0.9)},
        {"peak_rss_mib", "MiB", peak_rss_mib},
        {"setup_s", "s", Median(setup_s)},
    };
  } else {
    tracer.set_enabled(true);
    tracer.set_op(op + 1);
    w->RecordCounters(&tracer);
    LayerSweep(w.get(), &tracer, op + 2);
    metrics = LayerMetrics(tracer, traced_ms, untraced_ms);
    std::map<std::string, double> summary;
    for (const Metric& m : metrics) {
      std::printf("# layer %-26s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      summary[m.name] = m.value;
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: no sample for %s\n", m.name.c_str());
        measured = false;
      }
    }
    if (!args.trace_out.empty()) {
      if (!tracer.WriteChromeTrace(args.trace_out, summary)) {
        Die("cannot write " + args.trace_out);
      }
      std::printf("# trace written to %s\n", args.trace_out.c_str());
    }
  }
  w.reset();  // Joins the serving workers, if any.
  std::printf("%s\n",
              ResultJson(failed == 0 && measured, attempted, failed, metrics)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace lmfao

int main(int argc, char** argv) {
  return lmfao::perfbench::Run(lmfao::perfbench::ParseArgs(argc, argv));
}
