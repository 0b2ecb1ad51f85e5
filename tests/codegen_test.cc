/// \file codegen_test.cc
/// \brief Code Generation layer tests: structural checks on the runtime
/// translation unit GenerateRuntimeBatchCode emits. That the unit compiles
/// and computes what the interpreter computes is pinned by jit_test (which
/// loads and runs it) and by the codegen_dump_compiles ctest (which
/// compiles it where the JIT is off).

#include "engine/codegen.h"

#include <limits>
#include <regex>
#include <string>

#include <gtest/gtest.h>

#include "data/favorita.h"
#include "engine/engine.h"

namespace lmfao {
namespace {

class CodegenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 120,
                                             .num_dates = 8,
                                             .num_stores = 4,
                                             .num_items = 15});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
    Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
    auto compiled = engine.Compile(MakeExampleBatch(*data_));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    compiled_ = std::make_unique<CompiledBatch>(std::move(compiled).value());
  }

  std::string Generate(const std::vector<GroupPlan>& plans) {
    auto code =
        GenerateRuntimeBatchCode(plans, compiled_->workload, data_->catalog);
    EXPECT_TRUE(code.ok()) << code.status().ToString();
    return code.ok() ? code->source : "";
  }

  std::unique_ptr<FavoritaData> data_;
  std::unique_ptr<CompiledBatch> compiled_;
};

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(CodegenTest, EmitsLoopNestAndRegisters) {
  // The Fig. 3 group: Q1, Q2, V_{S->I} over Sales.
  for (const GroupPlan& plan : compiled_->plans) {
    if (plan.node != data_->sales || plan.outputs.size() < 3) continue;
    const std::string code = Generate({plan});
    EXPECT_NE(code.find("// level 1: item"), std::string::npos);
    EXPECT_NE(code.find("// level 2: date"), std::string::npos);
    EXPECT_NE(code.find("// level 3: store"), std::string::npos);
    EXPECT_NE(code.find("double alpha0"), std::string::npos);
    EXPECT_NE(code.find("double beta0"), std::string::npos);
    EXPECT_NE(code.find("struct LmfaoJitInput"), std::string::npos);
    EXPECT_NE(code.find("extern \"C\" void lmfao_jit_group_" +
                        std::to_string(plan.group_id) +
                        "(const LmfaoJitInput* in, LmfaoJitOutput* out)"),
              std::string::npos);
    return;
  }
  FAIL() << "Fig. 3 group not found";
}

TEST_F(CodegenTest, OneFunctionPerGroupWithMatchingMeta) {
  auto code = GenerateRuntimeBatchCode(compiled_->plans, compiled_->workload,
                                       data_->catalog);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  ASSERT_EQ(code->groups.size(), compiled_->plans.size());
  EXPECT_EQ(CountOf(code->source, "extern \"C\" void lmfao_jit_group_"),
            compiled_->plans.size());
  for (size_t g = 0; g < compiled_->plans.size(); ++g) {
    const RuntimeGroupMeta& meta = code->groups[g];
    EXPECT_EQ(meta.group_id, compiled_->plans[g].group_id);
    EXPECT_EQ(meta.symbol, "lmfao_jit_group_" + std::to_string(meta.group_id));
    EXPECT_NE(code->source.find("void " + meta.symbol + "("),
              std::string::npos);
  }
}

TEST_F(CodegenTest, InternsDictionaryDefinitions) {
  // Q2 uses g(item)*h(date): each distinct dictionary becomes one static
  // switch table named dict_<n>_<name>, defined once per unit however many
  // groups call it.
  const std::string code = Generate(compiled_->plans);
  for (const char* name : {"g", "h"}) {
    const std::regex def(std::string("static double (dict_[0-9]+_") + name +
                         ")\\(double x\\) \\{");
    std::smatch m;
    ASSERT_TRUE(std::regex_search(code, m, def)) << name;
    const std::string symbol = m[1];
    EXPECT_EQ(CountOf(code, "static double " + symbol + "("), 1u) << symbol;
    EXPECT_GT(CountOf(code, symbol + "("), 1u) << symbol << " never called";
  }
}

/// Non-finite thresholds print as compiler builtins: `%.17g` would print
/// `inf` or `nan`, which are not C++, and one such literal would fail the
/// whole batch's module.
TEST_F(CodegenTest, NonFiniteThresholdsAreCxxLiterals) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  QueryBatch batch;
  Query q;
  q.name = "inf";
  q.group_by = {data_->store};
  q.aggregates.push_back(Aggregate(
      {Factor{data_->price, Function::Indicator(FunctionKind::kIndicatorLe,
                                                inf)},
       Factor{data_->units, Function::Indicator(FunctionKind::kIndicatorGt,
                                                -inf)},
       Factor{data_->txns, Function::Indicator(FunctionKind::kIndicatorNe,
                                               nan)}}));
  batch.Add(std::move(q));
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto compiled = engine.Compile(batch);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto code = GenerateRuntimeBatchCode(compiled->plans, compiled->workload,
                                       data_->catalog);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  EXPECT_NE(code->source.find("<= __builtin_inf())"), std::string::npos)
      << code->source;
  EXPECT_NE(code->source.find("> (-__builtin_inf()))"), std::string::npos)
      << code->source;
  EXPECT_NE(code->source.find("!= __builtin_nan(\"\"))"), std::string::npos)
      << code->source;
  for (const char* bad : {" inf)", " -inf)", " nan)", " -nan)"}) {
    EXPECT_EQ(code->source.find(bad), std::string::npos) << bad;
  }
}

}  // namespace
}  // namespace lmfao
