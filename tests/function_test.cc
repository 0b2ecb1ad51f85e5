/// \file function_test.cc

#include "query/function.h"

#include <gtest/gtest.h>

namespace lmfao {
namespace {

TEST(FunctionTest, Identity) {
  EXPECT_DOUBLE_EQ(Function::Identity().Eval(3.5), 3.5);
}

TEST(FunctionTest, Square) {
  EXPECT_DOUBLE_EQ(Function::Square().Eval(-4.0), 16.0);
}

TEST(FunctionTest, Dictionary) {
  auto dict = std::make_shared<FunctionDict>();
  dict->name = "g";
  dict->table = {{1, 10.0}, {2, 20.0}};
  dict->default_value = -1.0;
  Function f = Function::Dictionary(dict);
  EXPECT_DOUBLE_EQ(f.Eval(1.0), 10.0);
  EXPECT_DOUBLE_EQ(f.Eval(2.0), 20.0);
  EXPECT_DOUBLE_EQ(f.Eval(3.0), -1.0);
}

TEST(FunctionTest, Indicators) {
  EXPECT_DOUBLE_EQ(
      Function::Indicator(FunctionKind::kIndicatorLe, 2.0).Eval(2.0), 1.0);
  EXPECT_DOUBLE_EQ(
      Function::Indicator(FunctionKind::kIndicatorLe, 2.0).Eval(2.1), 0.0);
  EXPECT_DOUBLE_EQ(
      Function::Indicator(FunctionKind::kIndicatorLt, 2.0).Eval(2.0), 0.0);
  EXPECT_DOUBLE_EQ(
      Function::Indicator(FunctionKind::kIndicatorGe, 2.0).Eval(2.0), 1.0);
  EXPECT_DOUBLE_EQ(
      Function::Indicator(FunctionKind::kIndicatorGt, 2.0).Eval(2.0), 0.0);
  EXPECT_DOUBLE_EQ(
      Function::Indicator(FunctionKind::kIndicatorEq, 2.0).Eval(2.0), 1.0);
  EXPECT_DOUBLE_EQ(
      Function::Indicator(FunctionKind::kIndicatorNe, 2.0).Eval(2.0), 0.0);
  EXPECT_DOUBLE_EQ(
      Function::Indicator(FunctionKind::kIndicatorNe, 2.0).Eval(3.0), 1.0);
}

TEST(FunctionTest, IsIndicator) {
  EXPECT_TRUE(Function::Indicator(FunctionKind::kIndicatorLe, 0).IsIndicator());
  EXPECT_FALSE(Function::Identity().IsIndicator());
  EXPECT_FALSE(Function::Square().IsIndicator());
}

TEST(FunctionTest, EqualityStructural) {
  EXPECT_EQ(Function::Identity(), Function::Identity());
  EXPECT_NE(Function::Identity(), Function::Square());
  EXPECT_EQ(Function::Indicator(FunctionKind::kIndicatorLe, 1.5),
            Function::Indicator(FunctionKind::kIndicatorLe, 1.5));
  EXPECT_NE(Function::Indicator(FunctionKind::kIndicatorLe, 1.5),
            Function::Indicator(FunctionKind::kIndicatorLe, 2.5));
  EXPECT_NE(Function::Indicator(FunctionKind::kIndicatorLe, 1.5),
            Function::Indicator(FunctionKind::kIndicatorGe, 1.5));
}

// Dictionaries compare by content (name, default value, entries), so two
// separately built tables with equal content are one function.
TEST(FunctionTest, DictionaryEqualityByContent) {
  auto make = [](const std::string& name, double default_value) {
    auto d = std::make_shared<FunctionDict>();
    d->name = name;
    d->default_value = default_value;
    for (int64_t k = 0; k < 20; ++k) d->table[k * 3 - 10] = 0.5 * k;
    return d;
  };
  const auto d1 = make("g", 0.5);
  EXPECT_EQ(Function::Dictionary(d1), Function::Dictionary(d1));
  EXPECT_EQ(Function::Dictionary(d1), Function::Dictionary(make("g", 0.5)));
  EXPECT_EQ(Function::Dictionary(std::make_shared<FunctionDict>()),
            Function::Dictionary(std::make_shared<FunctionDict>()));
  // The name is not hashed, so this pair shares a content hash.
  EXPECT_NE(Function::Dictionary(d1), Function::Dictionary(make("h", 0.5)));
  EXPECT_NE(Function::Dictionary(d1), Function::Dictionary(make("g", 1.5)));
  auto changed = make("g", 0.5);
  changed->table[-10] = 9.0;
  EXPECT_NE(Function::Dictionary(d1), Function::Dictionary(changed));
  auto extra = make("g", 0.5);
  extra->table[1000] = 0.0;
  EXPECT_NE(Function::Dictionary(d1), Function::Dictionary(extra));
}

// Factors and plan parts are ordered by signature, so a signature that
// depended on where a dictionary was allocated would let the product
// order, and with it a floating-point result, vary between processes.
TEST(FunctionTest, DictionarySignatureHashesContentNotAddress) {
  auto make = [](double default_value) {
    auto d = std::make_shared<FunctionDict>();
    d->name = "g";
    d->default_value = default_value;
    for (int64_t k = 0; k < 50; ++k) d->table[k * 7 - 100] = 0.25 * k;
    return d;
  };
  const auto d1 = make(0.5);
  const auto d2 = make(0.5);
  ASSERT_NE(d1.get(), d2.get());
  EXPECT_EQ(Function::Dictionary(d1).Signature(),
            Function::Dictionary(d2).Signature());
  EXPECT_EQ(Function::Dictionary(d1), Function::Dictionary(d2));
  // Different content, different signature.
  EXPECT_NE(Function::Dictionary(d1).Signature(),
            Function::Dictionary(make(1.5)).Signature());
  auto d3 = make(0.5);
  d3->table[-100] = 9.0;
  EXPECT_NE(Function::Dictionary(d1).Signature(),
            Function::Dictionary(d3).Signature());
}

TEST(FunctionTest, SignatureSeparatesKindsAndParams) {
  EXPECT_NE(Function::Identity().Signature(), Function::Square().Signature());
  EXPECT_NE(Function::Indicator(FunctionKind::kIndicatorLe, 1.0).Signature(),
            Function::Indicator(FunctionKind::kIndicatorLe, 2.0).Signature());
  EXPECT_EQ(Function::Identity().Signature(),
            Function::Identity().Signature());
}

TEST(FunctionTest, ToString) {
  EXPECT_EQ(Function::Identity().ToString(), "id");
  EXPECT_EQ(Function::Square().ToString(), "sq");
  EXPECT_EQ(Function::Indicator(FunctionKind::kIndicatorLe, 3.0).ToString(),
            "(x<=3)");
}

TEST(FunctionTest, ParameterizedIdentityIsTheSlot) {
  const Function p3 =
      Function::IndicatorParam(FunctionKind::kIndicatorLe, 3);
  EXPECT_TRUE(p3.IsParameterized());
  EXPECT_TRUE(p3.IsIndicator());
  EXPECT_EQ(p3.param(), 3);
  // Equality and signature are the slot, never a bound value.
  EXPECT_EQ(p3, Function::IndicatorParam(FunctionKind::kIndicatorLe, 3));
  EXPECT_NE(p3, Function::IndicatorParam(FunctionKind::kIndicatorLe, 4));
  EXPECT_NE(p3, Function::IndicatorParam(FunctionKind::kIndicatorGt, 3));
  EXPECT_NE(p3, Function::Indicator(FunctionKind::kIndicatorLe, 3.0));
  EXPECT_EQ(p3.Signature(),
            Function::IndicatorParam(FunctionKind::kIndicatorLe, 3)
                .Signature());
  EXPECT_NE(p3.Signature(),
            Function::Indicator(FunctionKind::kIndicatorLe, 3.0)
                .Signature());
  EXPECT_EQ(p3.ToString(), "(x<=?p3)");
}

TEST(FunctionTest, ResolveSubstitutesTheBoundValue) {
  const Function p0 =
      Function::IndicatorParam(FunctionKind::kIndicatorGe, 0);
  ParamPack params;
  params.Set(0, 2.5);
  const Function resolved = p0.Resolve(params);
  EXPECT_FALSE(resolved.IsParameterized());
  EXPECT_EQ(resolved, Function::Indicator(FunctionKind::kIndicatorGe, 2.5));
  EXPECT_EQ(resolved.Eval(2.5), 1.0);
  EXPECT_EQ(resolved.Eval(2.4), 0.0);
  EXPECT_EQ(p0.ResolvedThreshold(&params), 2.5);
  // Literal functions resolve to themselves regardless of the pack.
  EXPECT_EQ(Function::Square().Resolve(params), Function::Square());
}

TEST(FunctionTest, ParamPackBasics) {
  ParamPack pack;
  EXPECT_TRUE(pack.empty());
  EXPECT_FALSE(pack.Has(0));
  pack.Set(2, -1.5);
  EXPECT_TRUE(pack.Has(2));
  EXPECT_FALSE(pack.Has(0));
  EXPECT_FALSE(pack.Has(1));
  EXPECT_EQ(pack.Get(2), -1.5);
  EXPECT_EQ(pack.size(), 1u);
  pack.Set(2, 7.0);  // Rebind overwrites.
  EXPECT_EQ(pack.Get(2), 7.0);
  EXPECT_EQ(pack.size(), 1u);
}

}  // namespace
}  // namespace lmfao
