/// \file executor_test.cc
/// \brief Focused executor tests on hand-built micro-databases (edge cases
/// that the e2e tests cover only statistically).

#include "engine/executor.h"

#include <map>
#include <utility>

#include <gtest/gtest.h>

#include "baseline/join.h"
#include "baseline/naive_engine.h"
#include "engine/attribute_order.h"
#include "engine/engine.h"
#include "engine/grouping.h"
#include "engine/view_generation.h"
#include "exact_generator.h"
#include "ml/feature.h"

namespace lmfao {
namespace {

/// Two-relation database R(a,b,x) -- S(b,y) with controllable rows.
struct Micro {
  Catalog catalog;
  JoinTree tree;
  AttrId a, b, x, y;
  RelationId r, s;
};

Micro MakeMicro() {
  Micro m;
  m.a = m.catalog.AddAttribute("a", AttrType::kInt).value();
  m.b = m.catalog.AddAttribute("b", AttrType::kInt).value();
  m.x = m.catalog.AddAttribute("x", AttrType::kDouble).value();
  m.y = m.catalog.AddAttribute("y", AttrType::kDouble).value();
  m.r = m.catalog.AddRelation("R", {"a", "b", "x"}).value();
  m.s = m.catalog.AddRelation("S", {"b", "y"}).value();
  return m;
}

void Finish(Micro* m) {
  m->catalog.RefreshDomainSizes();
  m->tree = JoinTree::FromEdges(m->catalog, {{m->r, m->s}}).value();
}

StatusOr<BatchResult> RunBatch(Micro* m, QueryBatch batch) {
  Engine engine(&m->catalog, &m->tree, EngineOptions{});
  return engine.Evaluate(batch);
}

TEST(ExecutorMicroTest, SimpleJoinCount) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  // R: (1,1,·) (1,2,·) (2,1,·); S: b=1 twice, b=2 once.
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(1)});
  r.AppendRowUnchecked({Value::Int(1), Value::Int(2), Value::Double(1)});
  r.AppendRowUnchecked({Value::Int(2), Value::Int(1), Value::Double(1)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(5)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(7)});
  s.AppendRowUnchecked({Value::Int(2), Value::Double(9)});
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.aggregates.push_back(Aggregate::Count());
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Join size: rows with b=1 join 2 S-rows (2 R-rows) + b=2 joins 1: 2*2+1=5.
  EXPECT_DOUBLE_EQ(result->results[0].data.Lookup(TupleKey())[0], 5.0);
}

TEST(ExecutorMicroTest, EmptyJoinYieldsZero) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(1)});
  s.AppendRowUnchecked({Value::Int(2), Value::Double(5)});  // No match.
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.aggregates.push_back(Aggregate::Count());
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok());
  const double* p = result->results[0].data.Lookup(TupleKey());
  // Either no entry or a zero-valued one.
  EXPECT_TRUE(p == nullptr || p[0] == 0.0);
}

TEST(ExecutorMicroTest, EmptyRelation) {
  Micro m = MakeMicro();
  m.catalog.mutable_relation(m.s).AppendRowUnchecked(
      {Value::Int(1), Value::Double(5)});
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.aggregates.push_back(Aggregate::Count());
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok());
  const double* p = result->results[0].data.Lookup(TupleKey());
  EXPECT_TRUE(p == nullptr || p[0] == 0.0);
}

TEST(ExecutorMicroTest, ProductAcrossRelations) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(3)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(5)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(7)});
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.aggregates.push_back(Aggregate::SumProduct(m.x, m.y));
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok());
  // 3*5 + 3*7 = 36.
  EXPECT_DOUBLE_EQ(result->results[0].data.Lookup(TupleKey())[0], 36.0);
}

TEST(ExecutorMicroTest, GroupByWithDuplicateRelationRows) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  // Duplicate (a,b) pairs exercise bag semantics via leaf counts.
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(2)});
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(4)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(10)});
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.group_by = {m.a};
  q.aggregates.push_back(Aggregate::Count());
  q.aggregates.push_back(Aggregate::Sum(m.x));
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok());
  const double* p = result->results[0].data.Lookup(TupleKey({1}));
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], 6.0);
}

TEST(ExecutorMicroTest, GroupByAttributeOfNonRootRelation) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(2)});
  r.AppendRowUnchecked({Value::Int(2), Value::Int(2), Value::Double(3)});
  r.AppendRowUnchecked({Value::Int(3), Value::Int(1), Value::Double(4)});
  s.AppendRowUnchecked({Value::Int(1), Value::Double(1)});
  s.AppendRowUnchecked({Value::Int(2), Value::Double(1)});
  Finish(&m);
  // Group by a (in R) but force root S: "a" travels through V_{R->S}.
  QueryBatch batch;
  Query q;
  q.group_by = {m.a};
  q.aggregates.push_back(Aggregate::Sum(m.x));
  q.root_hint = m.s;
  batch.Add(std::move(q));
  auto result = RunBatch(&m, batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->results[0].data.Lookup(TupleKey({1}))[0], 2.0);
  EXPECT_DOUBLE_EQ(result->results[0].data.Lookup(TupleKey({2}))[0], 3.0);
  EXPECT_DOUBLE_EQ(result->results[0].data.Lookup(TupleKey({3}))[0], 4.0);
}

TEST(ExecutorMicroTest, ShardsPartitionTopLevel) {
  Micro m = MakeMicro();
  auto& r = m.catalog.mutable_relation(m.r);
  auto& s = m.catalog.mutable_relation(m.s);
  for (int64_t i = 0; i < 50; ++i) {
    r.AppendRowUnchecked(
        {Value::Int(i % 7), Value::Int(i % 3), Value::Double(1.0)});
  }
  for (int64_t b = 0; b < 3; ++b) {
    s.AppendRowUnchecked({Value::Int(b), Value::Double(1.0)});
  }
  Finish(&m);
  QueryBatch batch;
  Query q;
  q.group_by = {m.a};
  q.aggregates.push_back(Aggregate::Count());
  batch.Add(std::move(q));

  // Sequential reference.
  Engine seq(&m.catalog, &m.tree, EngineOptions{});
  auto ref = seq.Evaluate(batch);
  ASSERT_TRUE(ref.ok());
  // Domain-parallel run, sharding forced on the tiny relation.
  EngineOptions par;
  par.scheduler.num_threads = 3;
  par.scheduler.task_parallel = false;
  par.scheduler.min_shard_rows = 1;
  Engine dom(&m.catalog, &m.tree, par);
  auto got = dom.Evaluate(batch);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(ref->results[0].data.size(), got->results[0].data.size());
  ref->results[0].data.ForEach([&](const TupleKey& k, const double* p) {
    const double* q2 = got->results[0].data.Lookup(k);
    ASSERT_NE(q2, nullptr);
    EXPECT_DOUBLE_EQ(p[0], q2[0]);
  });
}

// ---------------------------------------------------------------------------
// Level kernels: the lowered level program (runs, gathers, generic steps,
// keyed writes) against the scan baseline and hand-computed sums, on
// integer-exact data so every comparison is bit-for-bit.

using ::lmfao::testing::ExactDatabase;
using ::lmfao::testing::ExpectResultsMatch;

GroupExecutor::ProgramShape& operator+=(GroupExecutor::ProgramShape& a,
                                        const GroupExecutor::ProgramShape& b) {
  a.alpha_runs += b.alpha_runs;
  a.beta_runs += b.beta_runs;
  a.beta_pair_runs += b.beta_pair_runs;
  a.write_runs += b.write_runs;
  a.alpha_gathers += b.alpha_gathers;
  a.beta_gathers_one += b.beta_gathers_one;
  a.beta_gathers_leaf += b.beta_gathers_leaf;
  a.beta_gathers_beta += b.beta_gathers_beta;
  a.write_gathers += b.write_gathers;
  a.generic += b.generic;
  a.keyed_writes += b.keyed_writes;
  a.max_key_views = std::max(a.max_key_views, b.max_key_views);
  return a;
}

/// The level programs of every group of `batch`, lowered against empty
/// stand-ins of the incoming views in their permuted-copy layouts
/// (IncomingView::CopyLayout: single-entry row-major, multi-entry
/// columnar).
GroupExecutor::ProgramShape ShapeOf(const Engine& engine,
                                    const Catalog& catalog,
                                    const QueryBatch& batch) {
  GroupExecutor::ProgramShape total;
  auto compiled = engine.Compile(batch);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled.ok()) return total;
  for (const GroupPlan& plan : compiled->plans) {
    std::vector<SortView> views;
    std::vector<const SortView*> ptrs;
    views.reserve(plan.incoming.size());
    for (const GroupPlan::IncomingView& in : plan.incoming) {
      const int arity =
          static_cast<int>(in.key_perm.size() + in.extra_perm.size());
      views.push_back(
          SortView::FromMap(ViewMap(arity, in.width), in.CopyLayout()));
      ptrs.push_back(&views.back());
    }
    GroupExecutor executor(plan, catalog.relation(plan.node), ptrs);
    total += executor.Shape();
  }
  return total;
}

/// A star of integer-exact relations around F(a, b, c, f1, f2): A(a, x1,
/// x2, ca), B(b, y1, y2, cb) and C(c, z1). Small domains force duplicate
/// keys and unmatched rows.
struct StarDb {
  ExactDatabase db;
  FeatureSet features;
};

StarDb MakeStarDb(uint64_t seed) {
  StarDb s;
  Catalog& cat = s.db.catalog;
  auto attr = [&](const char* name, AttrType t) {
    return cat.AddAttribute(name, t).value();
  };
  const AttrId a = attr("a", AttrType::kInt);
  const AttrId b = attr("b", AttrType::kInt);
  const AttrId c = attr("c", AttrType::kInt);
  const AttrId f1 = attr("f1", AttrType::kDouble);
  const AttrId f2 = attr("f2", AttrType::kDouble);
  const AttrId x1 = attr("x1", AttrType::kDouble);
  const AttrId x2 = attr("x2", AttrType::kDouble);
  const AttrId ca = attr("ca", AttrType::kInt);
  const AttrId y1 = attr("y1", AttrType::kDouble);
  const AttrId y2 = attr("y2", AttrType::kDouble);
  const AttrId cb = attr("cb", AttrType::kInt);
  const AttrId z1 = attr("z1", AttrType::kDouble);
  const RelationId rf =
      cat.AddRelation("F", {"a", "b", "c", "f1", "f2"}).value();
  const RelationId ra = cat.AddRelation("A", {"a", "x1", "x2", "ca"}).value();
  const RelationId rb = cat.AddRelation("B", {"b", "y1", "y2", "cb"}).value();
  const RelationId rc = cat.AddRelation("C", {"c", "z1"}).value();
  Rng rng(seed);
  auto fill = [&](RelationId r, int rows) {
    Relation& rel = cat.mutable_relation(r);
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row;
      for (int col = 0; col < rel.schema().arity(); ++col) {
        const int64_t v = rng.UniformInt(-2, 3);
        row.push_back(rel.column(col).type() == AttrType::kInt
                          ? Value::Int(v)
                          : Value::Double(static_cast<double>(v)));
      }
      rel.AppendRowUnchecked(row);
    }
  };
  fill(rf, 120);
  fill(ra, 12);
  fill(rb, 12);
  fill(rc, 8);
  cat.RefreshDomainSizes();
  s.db.tree = JoinTree::FromEdges(cat, {{rf, ra}, {rf, rb}, {rf, rc}}).value();
  s.db.int_attrs = {a, b, c, ca, cb};
  s.db.double_attrs = {f1, f2, x1, x2, y1, y2, z1};
  s.features.label = f1;
  s.features.continuous = {f2, x1, x2, y1, y2, z1};
  s.features.categorical = {ca, cb};
  return s;
}

void ExpectMatchesBaseline(const ExactDatabase& db, const QueryBatch& batch,
                           const EngineOptions& options,
                           const std::string& label) {
  Engine engine(&db.catalog, &db.tree, options);
  auto got = engine.Evaluate(batch);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  auto joined = MaterializeJoin(db.catalog, db.tree, 0);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  auto want = EvaluateBatchSharedScan(*joined, batch);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectResultsMatch(got->results, *want, 0.0, label);
}

TEST(LevelKernelTest, GeneratedPlansMatchBaselineBitForBit) {
  GroupExecutor::ProgramShape shape;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    LMFAO_REPRO_TRACE(seed);
    // The covariance batch: hundreds of payload registers per level, the
    // shape the runs and gathers were built for.
    StarDb star = MakeStarDb(seed);
    auto cov = BuildCovarianceBatch(star.features, star.db.catalog);
    ASSERT_TRUE(cov.ok()) << cov.status().ToString();
    // Plus cross-branch group-bys: one write iterates two key views.
    QueryBatch batch = cov->batch;
    const AttrId x1 = star.features.continuous[1];
    const AttrId ca = star.features.categorical[0];
    const AttrId cb = star.features.categorical[1];
    for (RelationId root = 0; root < 2; ++root) {
      Query q;
      q.group_by = {ca, cb};
      q.aggregates.push_back(Aggregate::Count());
      q.aggregates.push_back(Aggregate::Sum(x1));
      q.root_hint = root;
      batch.Add(std::move(q));
    }
    ExpectMatchesBaseline(star.db, batch, EngineOptions{}, "star");
    Engine engine(&star.db.catalog, &star.db.tree, EngineOptions{});
    shape += ShapeOf(engine, star.db.catalog, batch);

    // Random exact batches on random acyclic schemas, for breadth.
    Rng rng(seed * 7919);
    ExactDatabase db = ::lmfao::testing::MakeExactDatabase(&rng);
    const QueryBatch random = ::lmfao::testing::MakeExactBatch(db, &rng);
    ExpectMatchesBaseline(db, random, EngineOptions{}, "random");
    Engine random_engine(&db.catalog, &db.tree, EngineOptions{});
    shape += ShapeOf(random_engine, db.catalog, random);
  }
  // Together the generated plans lower to every entry kind but two, which
  // the hand-built plan below covers: pair runs (covariance-style batches
  // share suffixes instead) and suffixes of kOne (BuildGroupPlan never
  // emits one).
  EXPECT_GT(shape.alpha_runs, 0);
  EXPECT_GT(shape.beta_runs, 0);
  EXPECT_GT(shape.write_runs, 0);
  EXPECT_GT(shape.alpha_gathers, 0);
  EXPECT_GT(shape.beta_gathers_leaf, 0);
  EXPECT_GT(shape.beta_gathers_beta, 0);
  EXPECT_GT(shape.write_gathers, 0);
  EXPECT_GT(shape.generic, 0);
  EXPECT_GT(shape.keyed_writes, 0);
  EXPECT_GE(shape.max_key_views, 2);
}

/// A hand-built two-level plan over R(a, b) with single-entry views V (on
/// a, width 6) and W (on b, width 3), lowering to every register entry
/// kind, and the sums it must produce, computed directly from the rows.
struct HandPlan {
  Catalog catalog;
  ViewMap v{1, 6};
  ViewMap w{1, 3};
  GroupPlan plan;
  /// Expected O0 (no key, 7 slots) and O1 (key (a, b), 4 slots).
  std::vector<double> o0 = std::vector<double>(7, 0.0);
  std::map<std::pair<int64_t, int64_t>, std::vector<double>> o1;
};

PlanPart Payload(int view, int slot, int level) {
  PlanPart p;
  p.kind = PlanPart::Kind::kViewPayload;
  p.view_index = view;
  p.slot = slot;
  p.level = level;
  return p;
}

GroupPlan::Suffix Suffix(GroupPlan::SuffixKind kind, int index = -1) {
  GroupPlan::Suffix s;
  s.kind = kind;
  s.index = index;
  return s;
}

void MakeHandPlan(HandPlan* h) {
  h->catalog.AddAttribute("a", AttrType::kInt).value();
  h->catalog.AddAttribute("b", AttrType::kInt).value();
  const RelationId r = h->catalog.AddRelation("R", {"a", "b"}).value();
  Relation& rel = h->catalog.mutable_relation(r);
  // Sorted by (a, b), with duplicate rows; a = 4 and b = 4 find no view
  // entry.
  const std::vector<std::pair<int64_t, int64_t>> rows = {
      {1, 1}, {1, 1}, {1, 2}, {2, 1}, {2, 3}, {2, 3}, {2, 3},
      {3, 2}, {3, 4}, {4, 1}, {5, 2}, {5, 2}};
  for (const auto& [a, b] : rows) {
    rel.AppendRowUnchecked({Value::Int(a), Value::Int(b)});
  }
  auto vv = [](int64_t a, int s) { return static_cast<double>(a + s - 2); };
  auto wv = [](int64_t b, int s) {
    return static_cast<double>(b * (s + 1) - 3);
  };
  for (int64_t a : {1, 2, 3, 5, 6}) {
    double* p = h->v.Upsert(TupleKey({a}));
    for (int s = 0; s < 6; ++s) p[s] = vv(a, s);
  }
  for (int64_t b : {1, 2, 3}) {
    double* p = h->w.Upsert(TupleKey({b}));
    for (int s = 0; s < 3; ++s) p[s] = wv(b, s);
  }

  GroupPlan& plan = h->plan;
  plan.attr_order = {0, 1};
  plan.level_column = {0, 1};
  for (int level : {1, 2}) {
    GroupPlan::IncomingView in;
    in.key_perm = {0};
    in.key_levels = {level};
    in.consumed_perm = {0};
    in.bound_level = level;
    in.width = level == 1 ? 6 : 3;
    in.identity_perm = true;
    plan.incoming.push_back(in);
  }
  const int kV = 0;
  const int kW = 1;
  using SK = GroupPlan::SuffixKind;
  plan.leaf_sums.emplace_back();  // Leaf 0: the tuple count.
  plan.alphas_at_level.assign(3, {});
  plan.betas_at_level.assign(3, {});
  plan.writes_at_level.assign(3, {});
  auto alpha = [&](int level, int prev, std::vector<PlanPart> parts) {
    plan.alphas.push_back(GroupPlan::AlphaReg{prev, level, std::move(parts)});
    plan.alphas_at_level[static_cast<size_t>(level)].push_back(
        static_cast<int>(plan.alphas.size()) - 1);
  };
  auto beta = [&](int level, std::vector<PlanPart> parts,
                  GroupPlan::Suffix next) {
    plan.betas.push_back(GroupPlan::BetaReg{level, std::move(parts), next});
    plan.betas_at_level[static_cast<size_t>(level)].push_back(
        static_cast<int>(plan.betas.size()) - 1);
  };
  alpha(1, -1, {Payload(kV, 0, 1)});                    // A0: gather.
  for (int k = 0; k < 3; ++k) alpha(2, 0, {Payload(kW, k, 2)});  // A1-3: run.
  alpha(2, -1, {Payload(kW, 1, 2)});                    // A4: gather.
  // Level 1 (betas 0-4, 11, 12) and level 2 (betas 5-10).
  for (int k = 0; k < 3; ++k) {                          // B0-2: pair run.
    beta(1, {Payload(kV, 3 + k, 1)}, Suffix(SK::kBeta, 5 + k));
  }
  beta(1, {Payload(kV, 0, 1)}, Suffix(SK::kBeta, 8));   // B3: beta gather.
  beta(1, {Payload(kV, 1, 1)}, Suffix(SK::kOne));       // B4: one gather.
  for (int k = 0; k < 3; ++k) {                          // B5-7: run.
    beta(2, {Payload(kW, k, 2)}, Suffix(SK::kLeaf, 0));
  }
  beta(2, {Payload(kW, 2, 2)}, Suffix(SK::kOne));       // B8: one gather.
  beta(2, {}, Suffix(SK::kLeaf, 0));                     // B9: leaf gather.
  beta(2, {Payload(kW, 0, 2), Payload(kW, 1, 2)},        // B10: generic.
       Suffix(SK::kLeaf, 0));
  beta(1, {}, Suffix(SK::kBeta, 10));                    // B11: beta gather.
  beta(1, {Payload(kV, 2, 1)}, Suffix(SK::kBeta, 9));   // B12: beta gather.

  GroupPlan::OutputInfo o0;
  o0.width = 7;
  plan.outputs.push_back(o0);
  GroupPlan::OutputInfo o1;
  o1.write_level = 2;
  o1.width = 4;
  for (int level : {1, 2}) {
    GroupPlan::KeySource src;
    src.level = level;
    o1.key_sources.push_back(src);
  }
  plan.outputs.push_back(o1);
  auto write = [&](int level, int output, int slot, int a,
                   GroupPlan::Suffix suffix) {
    GroupPlan::Write w;
    w.output = output;
    w.slot = slot;
    w.alpha = a;
    w.suffix = suffix;
    plan.writes_at_level[static_cast<size_t>(level)].push_back(w);
  };
  for (int k = 0; k < 5; ++k) write(0, 0, k, -1, Suffix(SK::kBeta, k));
  write(0, 0, 5, -1, Suffix(SK::kBeta, 11));
  write(0, 0, 6, -1, Suffix(SK::kBeta, 12));
  for (int k = 0; k < 3; ++k) {                          // Write run.
    write(2, 1, k, 1 + k, Suffix(SK::kLeaf, 0));
  }
  write(2, 1, 3, 4, Suffix(SK::kOne));                   // Write gather.

  // The sums, straight from the rows.
  std::map<int64_t, std::map<int64_t, double>> counts;
  for (const auto& [a, b] : rows) {
    if (h->v.Lookup(TupleKey({a})) && h->w.Lookup(TupleKey({b}))) {
      counts[a][b] += 1.0;
    }
  }
  for (const auto& [a, by_b] : counts) {
    double g[5] = {0, 0, 0, 0, 0};  // B5-9.
    double g10 = 0.0;
    for (const auto& [b, c] : by_b) {
      for (int k = 0; k < 3; ++k) g[k] += wv(b, k) * c;
      g[3] += wv(b, 2);
      g[4] += c;
      g10 += wv(b, 0) * wv(b, 1) * c;
      h->o1[{a, b}] = {vv(a, 0) * wv(b, 0) * c, vv(a, 0) * wv(b, 1) * c,
                       vv(a, 0) * wv(b, 2) * c, wv(b, 1)};
    }
    for (int k = 0; k < 3; ++k) h->o0[k] += vv(a, 3 + k) * g[k];
    h->o0[3] += vv(a, 0) * g[3];
    h->o0[4] += vv(a, 1);
    h->o0[5] += g10;
    h->o0[6] += vv(a, 2) * g[4];
  }
}

Status RunHandPlan(const HandPlan& h, const GroupPlan& plan,
                   PayloadLayout layout, ViewMap* o0, ViewMap* o1,
                   GroupExecutor::ProgramShape* shape = nullptr) {
  // Both views are single-entry and read in canonical order, so the
  // executor reads their frozen form as is, in either layout.
  const SortView sv = SortView::FromMap(h.v, layout);
  const SortView sw = SortView::FromMap(h.w, layout);
  GroupExecutor executor(plan, h.catalog.relation(0), {&sv, &sw});
  if (shape != nullptr) *shape = executor.Shape();
  return executor.Execute({o0, o1});
}

TEST(LevelKernelTest, HandBuiltPlanCoversEveryEntryKindInBothLayouts) {
  HandPlan h;
  MakeHandPlan(&h);
  for (PayloadLayout layout :
       {PayloadLayout::kRowMajor, PayloadLayout::kColumnar}) {
    const bool row_major = layout == PayloadLayout::kRowMajor;
    SCOPED_TRACE(row_major ? "row-major" : "columnar");
    ViewMap o0(0, 7);
    ViewMap o1(2, 4);
    GroupExecutor::ProgramShape shape;
    ASSERT_TRUE(RunHandPlan(h, h.plan, layout, &o0, &o1, &shape).ok());
    const double* got0 = o0.Lookup(TupleKey());
    ASSERT_NE(got0, nullptr);
    for (int s = 0; s < 7; ++s) EXPECT_EQ(got0[s], h.o0[s]) << "slot " << s;
    EXPECT_EQ(o1.size(), h.o1.size());
    for (const auto& [key, want] : h.o1) {
      const double* got1 = o1.Lookup(TupleKey({key.first, key.second}));
      ASSERT_NE(got1, nullptr);
      for (int s = 0; s < 4; ++s) EXPECT_EQ(got1[s], want[s]) << "slot " << s;
    }
    // Runs need unit slot stride; a columnar view's registers all gather.
    EXPECT_EQ(shape.alpha_runs, row_major ? 1 : 0);
    EXPECT_EQ(shape.beta_runs, row_major ? 1 : 0);
    EXPECT_EQ(shape.beta_pair_runs, row_major ? 1 : 0);
    EXPECT_EQ(shape.write_runs, 1);
    EXPECT_EQ(shape.alpha_gathers, row_major ? 2 : 5);
    EXPECT_EQ(shape.beta_gathers_one, 2);
    EXPECT_EQ(shape.beta_gathers_leaf, row_major ? 1 : 4);
    EXPECT_EQ(shape.beta_gathers_beta, row_major ? 3 : 6);
    EXPECT_EQ(shape.write_gathers, 8);
    EXPECT_EQ(shape.generic, 1);
  }
}

TEST(LevelKernelTest, RejectsRegistersReadingTheirOwnLevel) {
  HandPlan h;
  MakeHandPlan(&h);
  // B0-2 reading B1-3 would be a pair run whose suffixes overlap its
  // destinations; a level's steps only reorder safely when no register
  // reads its own level, so the plan is refused, not run.
  GroupPlan overlap = h.plan;
  for (int k = 0; k < 3; ++k) {
    overlap.betas[static_cast<size_t>(k)].next.index = k + 1;
  }
  // An alpha chained to an alpha of its own level.
  GroupPlan chained = h.plan;
  chained.alphas[2].prev = 1;
  for (const GroupPlan* plan : {&overlap, &chained}) {
    ViewMap o0(0, 7);
    ViewMap o1(2, 4);
    const Status st =
        RunHandPlan(h, *plan, PayloadLayout::kRowMajor, &o0, &o1);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
}

TEST(LevelKernelTest, RejectsMissingOrOutOfRangeLoweredIds) {
  HandPlan h;
  MakeHandPlan(&h);
  // Leaf factors without their ids into the leaf factor table, or with ids
  // outside it.
  GroupPlan no_ids = h.plan;
  no_ids.leaf_sums[0].factors = {{1, Function::Identity()}};
  GroupPlan bad_id = no_ids;
  bad_id.leaf_factor_table = no_ids.leaf_sums[0].factors;
  bad_id.leaf_sums[0].factor_ids = {1};
  // An incoming view without its consumed permutation, or with a position
  // outside its key.
  GroupPlan no_perm = h.plan;
  no_perm.incoming[1].consumed_perm.clear();
  GroupPlan bad_perm = h.plan;
  bad_perm.incoming[1].consumed_perm = {1};
  for (const GroupPlan* plan : {&no_ids, &bad_id, &no_perm, &bad_perm}) {
    ViewMap o0(0, 7);
    ViewMap o1(2, 4);
    const Status st =
        RunHandPlan(h, *plan, PayloadLayout::kColumnar, &o0, &o1);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
  // The same plan with valid ids runs.
  GroupPlan good = bad_id;
  good.leaf_sums[0].factor_ids = {0};
  ViewMap o0(0, 7);
  ViewMap o1(2, 4);
  EXPECT_TRUE(RunHandPlan(h, good, PayloadLayout::kColumnar, &o0, &o1).ok());
}

}  // namespace
}  // namespace lmfao
