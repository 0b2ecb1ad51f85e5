// Profiling harness for the executor hot path: prints the register-program
// shape of every group plan in the Retailer covariance batch (op counts,
// part kinds, suffix kinds, write fan-out per trie level), each group's
// trie attribute order with its estimated cost (attribute_order.h), and
// the per-group execution times (same fixture knobs as bench_common.h).
// This is the tool behind the per-level cost breakdowns recorded in
// EXPERIMENTS.md — run it before and after touching executor.cc.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "data/retailer.h"
#include "engine/attribute_order.h"
#include "engine/engine.h"
#include "ml/feature.h"

using namespace lmfao;

int main() {
  RetailerOptions options;
  options.num_inventory = 200000;
  options.num_locations = 100;
  options.num_dates = 200;
  options.num_items = 2000;
  options.num_zips = 50;
  auto data = MakeRetailer(options);
  if (!data.ok()) return 1;
  auto& db = **data;
  FeatureSet features;
  features.label = db.inventoryunits;
  for (AttrId a : db.continuous) {
    if (a != db.inventoryunits) features.continuous.push_back(a);
  }
  features.categorical = db.categorical;
  auto cov = BuildCovarianceBatch(features, db.catalog);
  if (!cov.ok()) {
    std::fprintf(stderr, "cov: %s\n", cov.status().ToString().c_str());
    return 1;
  }
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto compiled = engine.Compile(cov->batch);
  if (!compiled.ok()) return 1;
  // "locn dateid ksn (cost 123)": the group's order and its estimated cost.
  auto order_text = [&](int g) {
    const std::vector<AttrId>& order =
        compiled->attr_orders[static_cast<size_t>(g)];
    std::string text;
    for (AttrId a : order) {
      text += (text.empty() ? "" : " ") + db.catalog.attr(a).name;
    }
    auto cost = EstimateOrderCost(
        compiled->workload,
        compiled->grouped.groups[static_cast<size_t>(g)], db.catalog, order);
    return text + " (cost " +
           (cost.ok() ? std::to_string(*cost) : cost.status().ToString()) +
           ")";
  };
  for (const GroupPlan& p : compiled->plans) {
    size_t alpha_parts = 0, beta_parts = 0, rs = 0;
    for (const auto& a : p.alphas) alpha_parts += a.parts.size();
    for (const auto& b : p.betas) beta_parts += b.parts.size();
    for (const auto& b : p.betas) {
      for (const auto& part : b.parts) {
        if (part.kind == PlanPart::Kind::kViewRangeSum) ++rs;
      }
    }
    size_t writes = 0;
    for (const auto& wl : p.writes_at_level) writes += wl.size();
    std::printf(
        "plan g%d: %zu alphas (%zu parts), %zu betas (%zu parts, %zu "
        "range-sum), %zu leaf sums, %zu writes, %d range-sum ids; "
        "order %s\n",
        p.group_id, p.alphas.size(), alpha_parts, p.betas.size(),
        beta_parts, rs, p.leaf_sums.size(), writes, p.num_range_sums,
        order_text(p.group_id).c_str());
    for (int l = 0; l <= p.num_levels(); ++l) {
      size_t nb = p.betas_at_level[l].size();
      size_t nw = p.writes_at_level[l].size();
      size_t na = p.alphas_at_level[l].size();
      if (na + nb + nw == 0) continue;
      size_t bparts = 0, bpayload = 0, bfactor = 0;
      size_t sleaf = 0, sbeta = 0, sone = 0;
      for (int b : p.betas_at_level[l]) {
        bparts += p.betas[b].parts.size();
        for (const auto& part : p.betas[b].parts) {
          if (part.kind == PlanPart::Kind::kViewPayload) ++bpayload;
          if (part.kind == PlanPart::Kind::kFactor) ++bfactor;
        }
        switch (p.betas[b].next.kind) {
          case GroupPlan::SuffixKind::kLeaf: ++sleaf; break;
          case GroupPlan::SuffixKind::kBeta: ++sbeta; break;
          default: ++sone;
        }
      }
      std::set<int> wouts;
      std::map<int, int> key_arity_hist;
      for (const auto& w : p.writes_at_level[l]) {
        wouts.insert(w.output);
        ++key_arity_hist[static_cast<int>(
            p.outputs[w.output].key_sources.size())];
      }
      std::string arities;
      for (auto [a, cnt] : key_arity_hist) {
        arities += " " + std::to_string(cnt) + "x(arity " +
                   std::to_string(a) + ")";
      }
      std::printf(
          "  g%d L%d: %zu alphas, %zu betas (%zu parts: %zu payload "
          "%zu factor; suffix %zu leaf %zu beta %zu one), %zu writes "
          "-> %zu outputs,%s\n",
          p.group_id, l, na, nb, bparts, bpayload, bfactor, sleaf,
          sbeta, sone, nw, wouts.size(), arities.c_str());
    }
  }
  // Prepare once, then warmup + measured Execute-only runs (the profile
  // targets the execution layer; compile costs are reported separately).
  auto prepared = engine.Prepare(cov->batch);
  if (!prepared.ok()) return 1;
  std::printf("prepare: %.1f ms\n", prepared->compile_seconds() * 1e3);
  for (int r = 0; r < 3; ++r) {
    auto result = prepared->Execute();
    if (!result.ok()) return 1;
    if (r < 2) continue;
    const ExecutionStats& st = result->stats;
    std::printf("compile: vg %.1f grp %.1f plan %.1f | exec %.1f total %.1f ms\n",
                st.viewgen_seconds * 1e3, st.grouping_seconds * 1e3,
                st.plan_seconds * 1e3, st.execute_seconds * 1e3,
                st.total_seconds * 1e3);
    std::vector<GroupStats> groups = st.groups;
    std::sort(groups.begin(), groups.end(),
              [](const GroupStats& a, const GroupStats& b) {
                return a.seconds > b.seconds;
              });
    for (size_t i = 0; i < groups.size() && i < 12; ++i) {
      std::printf(
          "  group %d @ %s: %.2f ms (%d outputs, %d dense, %zu entries) "
          "order %s\n",
          groups[i].group_id,
          db.catalog.relation(groups[i].node).name().c_str(),
          groups[i].seconds * 1e3, groups[i].num_outputs,
          groups[i].dense_outputs, groups[i].output_entries,
          order_text(groups[i].group_id).c_str());
    }
  }
  return 0;
}
