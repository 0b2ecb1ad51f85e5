/// \file report_test.cc
/// \brief Smoke tests of the report printers (the demo-UI panels).

#include "engine/report.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/favorita.h"

namespace lmfao {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 2000});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
    engine_ = std::make_unique<Engine>(&data_->catalog, &data_->tree,
                                       EngineOptions{});
  }
  std::unique_ptr<FavoritaData> data_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(ReportTest, ViewGenerationPanel) {
  auto compiled = engine_->Compile(MakeExampleBatch(*data_));
  ASSERT_TRUE(compiled.ok());
  const std::string report =
      ReportViewGeneration(*compiled, data_->catalog);
  EXPECT_NE(report.find("merged views: 6"), std::string::npos);
  EXPECT_NE(report.find("Q0 -> Sales"), std::string::npos);
  EXPECT_NE(report.find("Q2 -> Items"), std::string::npos);
  EXPECT_NE(report.find("arrow widths"), std::string::npos);
  EXPECT_NE(report.find("Transactions -> Sales: 1"), std::string::npos);
}

TEST_F(ReportTest, ViewGroupsPanel) {
  auto compiled = engine_->Compile(MakeExampleBatch(*data_));
  ASSERT_TRUE(compiled.ok());
  const std::string report = ReportViewGroups(*compiled, data_->catalog);
  EXPECT_NE(report.find("View Groups (7)"), std::string::npos);
  // One "attribute order:" line per group, in group order, naming
  // compiled.attr_orders.
  std::vector<std::string> printed;
  std::istringstream lines(report);
  for (std::string line; std::getline(lines, line);) {
    const std::string tag = "attribute order:";
    const size_t at = line.find(tag);
    if (at == std::string::npos) continue;
    printed.push_back(line.substr(at, line.find("  (") - at));
  }
  std::vector<std::string> expected;
  for (const std::vector<AttrId>& order : compiled->attr_orders) {
    std::string text = "attribute order:";
    for (AttrId a : order) text += " " + data_->catalog.attr(a).name;
    expected.push_back(text);
  }
  EXPECT_EQ(printed, expected);
  EXPECT_NE(report.find("alphas"), std::string::npos);
}

TEST_F(ReportTest, ExecutionPanel) {
  auto result = engine_->Evaluate(MakeExampleBatch(*data_));
  ASSERT_TRUE(result.ok());
  const std::string report =
      ReportExecution(result->stats, data_->catalog);
  EXPECT_NE(report.find("3 queries -> 6 views"), std::string::npos);
  EXPECT_NE(report.find("in 7 groups"), std::string::npos);
  EXPECT_NE(report.find("group 0"), std::string::npos);
}

}  // namespace
}  // namespace lmfao
