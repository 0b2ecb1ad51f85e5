/// \file codegen_dump.cpp
/// \brief The Code Generation tab of the demo (Fig. 4(c)): prints the C++
/// translation unit the engine's JIT compiles for the running example,
/// one `extern "C"` function per view group. The output compiles on its
/// own (`c++ -std=c++17 -fsyntax-only`).
///
/// Run: ./codegen_dump [group_id]   (default: every group of the batch)

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "data/favorita.h"
#include "engine/codegen.h"
#include "engine/engine.h"

using namespace lmfao;

int main(int argc, char** argv) {
  auto data_or = MakeFavorita(FavoritaOptions{.num_sales = 1000});
  if (!data_or.ok()) {
    std::fprintf(stderr, "%s\n", data_or.status().ToString().c_str());
    return 1;
  }
  FavoritaData& db = **data_or;
  Engine engine(&db.catalog, &db.tree, EngineOptions{});
  auto compiled_or = engine.Compile(MakeExampleBatch(db));
  if (!compiled_or.ok()) {
    std::fprintf(stderr, "%s\n", compiled_or.status().ToString().c_str());
    return 1;
  }
  CompiledBatch& compiled = *compiled_or;
  const int only = argc > 1 ? std::atoi(argv[1]) : -1;
  std::vector<GroupPlan> plans;
  for (const GroupPlan& plan : compiled.plans) {
    if (only < 0 || plan.group_id == only) plans.push_back(plan);
  }
  if (plans.empty()) {
    std::fprintf(stderr, "no group %d (the batch has %zu groups)\n", only,
                 compiled.plans.size());
    return 1;
  }
  auto code_or = GenerateRuntimeBatchCode(plans, compiled.workload, db.catalog);
  if (!code_or.ok()) {
    std::fprintf(stderr, "%s\n", code_or.status().ToString().c_str());
    return 1;
  }
  std::fputs(code_or->source.c_str(), stdout);
  return 0;
}
