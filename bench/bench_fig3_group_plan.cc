/// \file bench_fig3_group_plan.cc
/// \brief Experiment E3: the multi-output execution plan of Fig. 3.
///
/// Benchmarks the group computing {Q1, Q2, V_{S->I}} over Sales — the exact
/// plan of Fig. 3 — with factorized registers versus the per-tuple
/// evaluation of the same loop nest (no loop-invariant code motion), at
/// increasing Sales cardinalities. The factorized plan wins because alpha
/// lookups hoist out of inner loops and running sums share work across the
/// three outputs.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "storage/sort.h"

namespace lmfao {
namespace {

/// Executes only the Fig. 3 group (its inputs are computed once outside the
/// timed region).
class Fig3Fixture {
 public:
  explicit Fig3Fixture(int64_t num_sales, bool factorize)
      : db_(bench::Favorita(num_sales)) {
    EngineOptions options;
    options.plan.factorize = factorize;
    Engine engine(&db_.catalog, &db_.tree, options);
    auto compiled = engine.Compile(MakeExampleBatch(db_));
    LMFAO_CHECK(compiled.ok());
    compiled_ = std::make_unique<CompiledBatch>(std::move(compiled).value());
    // Locate the Sales group with 3 outputs.
    for (size_t g = 0; g < compiled_->plans.size(); ++g) {
      if (compiled_->plans[g].node == db_.sales &&
          compiled_->plans[g].outputs.size() == 3) {
        group_ = static_cast<int>(g);
      }
    }
    LMFAO_CHECK_GE(group_, 0);
    // Plan it with Fig. 3's order (item, date, store), not the cost
    // model's, then redo the layouts its producers write for it.
    auto fig3_plan = BuildGroupPlan(
        compiled_->workload,
        compiled_->grouped.groups[static_cast<size_t>(group_)], db_.catalog,
        {db_.item, db_.date, db_.store}, options.plan);
    LMFAO_CHECK(fig3_plan.ok());
    compiled_->plans[static_cast<size_t>(group_)] =
        std::move(fig3_plan).value();
    AssignLayoutsAndClosures(compiled_->grouped, &compiled_->plans);
    const GroupPlan& plan = compiled_->plans[static_cast<size_t>(group_)];
    // Produce the incoming views with a fresh default engine run of the
    // full batch, then snapshot the ones this group consumes.
    Engine warm(&db_.catalog, &db_.tree, EngineOptions{});
    auto warm_compiled = warm.Compile(MakeExampleBatch(db_));
    LMFAO_CHECK(warm_compiled.ok());
    // Execute dependencies directly: run groups in topo order with the
    // interpreter until all inputs of `group_` exist.
    produced_.resize(compiled_->workload.views.size());
    for (int gid : compiled_->grouped.TopologicalOrder()) {
      if (gid == group_) break;
      RunGroup(gid);
    }
    consumed_ = Consume(plan, &permuted_);
    // Sorted relation.
    sorted_ = db_.catalog.relation(db_.sales);
    LMFAO_CHECK(SortRelation(&sorted_, plan.attr_order).ok());
  }

  /// The incoming views of `plan` as the engine hands them over: the
  /// frozen view itself in canonical order, else a permuted copy (owned by
  /// `permuted`).
  std::vector<const SortView*> Consume(const GroupPlan& plan,
                                       std::vector<SortView>* permuted) {
    std::vector<const SortView*> views;
    permuted->reserve(plan.incoming.size());
    for (const auto& in : plan.incoming) {
      const SortView& stored = produced_[static_cast<size_t>(in.view)];
      if (in.identity_perm) {
        views.push_back(&stored);
      } else {
        permuted->push_back(stored.Permuted(in.consumed_perm,
                                            in.CopyLayout()));
        views.push_back(&permuted->back());
      }
    }
    return views;
  }

  void RunGroup(int gid) {
    const GroupPlan& plan = compiled_->plans[static_cast<size_t>(gid)];
    Relation rel = db_.catalog.relation(plan.node);
    std::vector<AttrId> sub;
    for (AttrId a : plan.attr_order) {
      if (rel.schema().Contains(a)) sub.push_back(a);
    }
    if (!sub.empty()) LMFAO_CHECK(SortRelation(&rel, sub).ok());
    std::vector<SortView> permuted;
    const std::vector<const SortView*> ptrs = Consume(plan, &permuted);
    std::vector<std::unique_ptr<ViewMap>> outs;
    std::vector<ViewMap*> out_ptrs;
    for (const auto& out : plan.outputs) {
      const ViewInfo& info = compiled_->workload.view(out.view);
      outs.push_back(std::make_unique<ViewMap>(
          static_cast<int>(info.key.size()), out.width));
      out_ptrs.push_back(outs.back().get());
    }
    GroupExecutor executor(plan, rel, ptrs);
    LMFAO_CHECK(executor.Execute(out_ptrs).ok());
    for (size_t o = 0; o < plan.outputs.size(); ++o) {
      produced_[static_cast<size_t>(plan.outputs[o].view)] =
          SortView::FromMap(std::move(*outs[o]),
                            plan.outputs[o].payload_layout);
    }
  }

  /// One timed execution of the Fig. 3 group.
  double Execute() {
    const GroupPlan& plan = compiled_->plans[static_cast<size_t>(group_)];
    std::vector<std::unique_ptr<ViewMap>> outs;
    std::vector<ViewMap*> out_ptrs;
    for (const auto& out : plan.outputs) {
      const ViewInfo& info = compiled_->workload.view(out.view);
      outs.push_back(std::make_unique<ViewMap>(
          static_cast<int>(info.key.size()), out.width));
      out_ptrs.push_back(outs.back().get());
    }
    GroupExecutor executor(plan, sorted_, consumed_);
    LMFAO_CHECK(executor.Execute(out_ptrs).ok());
    // Checksum so the work cannot be optimized away.
    double checksum = 0.0;
    for (const auto& m : outs) {
      m->ForEach([&checksum](const TupleKey&, const double* p) {
        checksum += p[0];
      });
    }
    return checksum;
  }

 private:
  FavoritaData& db_;
  std::unique_ptr<CompiledBatch> compiled_;
  int group_ = -1;
  Relation sorted_;
  /// Every view produced so far, frozen as the view store holds it.
  std::vector<SortView> produced_;
  std::vector<SortView> permuted_;
  std::vector<const SortView*> consumed_;
};

void BM_Fig3_Factorized(benchmark::State& state) {
  Fig3Fixture fixture(state.range(0), /*factorize=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.Execute());
  }
  state.counters["sales_rows"] =
      static_cast<double>(state.range(0));
}
BENCHMARK(BM_Fig3_Factorized)
    ->Arg(100000)
    ->Arg(400000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_Fig3_PerTuple(benchmark::State& state) {
  Fig3Fixture fixture(state.range(0), /*factorize=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.Execute());
  }
  state.counters["sales_rows"] =
      static_cast<double>(state.range(0));
}
BENCHMARK(BM_Fig3_PerTuple)
    ->Arg(100000)
    ->Arg(400000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lmfao
