/// \file relation_test.cc

#include "storage/relation.h"

#include <gtest/gtest.h>

namespace lmfao {
namespace {

Relation MakeRelation() {
  return Relation("R", RelationSchema({0, 1, 2}),
                  {AttrType::kInt, AttrType::kInt, AttrType::kDouble});
}

TEST(RelationTest, EmptyAfterConstruction) {
  Relation r = MakeRelation();
  EXPECT_EQ(r.num_rows(), 0u);
  EXPECT_EQ(r.num_columns(), 3);
  EXPECT_EQ(r.name(), "R");
}

TEST(RelationTest, AppendRowTyped) {
  Relation r = MakeRelation();
  ASSERT_TRUE(
      r.AppendRow({Value::Int(1), Value::Int(2), Value::Double(3.5)}).ok());
  EXPECT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.ValueAt(0, 0).AsInt(), 1);
  EXPECT_DOUBLE_EQ(r.ValueAt(0, 2).AsDouble(), 3.5);
}

TEST(RelationTest, AppendRowRejectsWrongArity) {
  Relation r = MakeRelation();
  EXPECT_FALSE(r.AppendRow({Value::Int(1)}).ok());
}

TEST(RelationTest, AppendRowRejectsDoubleIntoIntColumn) {
  Relation r = MakeRelation();
  EXPECT_FALSE(
      r.AppendRow({Value::Double(1.5), Value::Int(2), Value::Double(3.0)})
          .ok());
}

TEST(RelationTest, IntValueIntoDoubleColumnIsPromoted) {
  Relation r = MakeRelation();
  ASSERT_TRUE(r.AppendRow({Value::Int(1), Value::Int(2), Value::Int(3)}).ok());
  EXPECT_DOUBLE_EQ(r.column(2).doubles()[0], 3.0);
}

TEST(RelationTest, ColumnIndexLookup) {
  Relation r = MakeRelation();
  EXPECT_EQ(r.ColumnIndex(1), 1);
  EXPECT_EQ(r.ColumnIndex(99), -1);
}

TEST(RelationTest, Permute) {
  Relation r = MakeRelation();
  for (int64_t i = 0; i < 4; ++i) {
    r.AppendRowUnchecked(
        {Value::Int(i), Value::Int(10 * i), Value::Double(0.5 * i)});
  }
  r.Permute({3, 2, 1, 0});
  EXPECT_EQ(r.column(0).ints(), (std::vector<int64_t>{3, 2, 1, 0}));
  EXPECT_EQ(r.column(1).ints(), (std::vector<int64_t>{30, 20, 10, 0}));
  EXPECT_DOUBLE_EQ(r.column(2).doubles()[0], 1.5);
}

TEST(RelationTest, AddDerivedIntColumn) {
  Relation r = MakeRelation();
  r.AppendRowUnchecked({Value::Int(1), Value::Int(2), Value::Double(3.0)});
  r.AppendRowUnchecked({Value::Int(4), Value::Int(5), Value::Double(6.0)});
  auto col = r.AddDerivedIntColumn(7, {100, 200});
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(*col, 3);
  EXPECT_EQ(r.schema().arity(), 4);
  EXPECT_EQ(r.column(3).ints(), (std::vector<int64_t>{100, 200}));
}

TEST(RelationTest, AddDerivedColumnRejectsWrongSize) {
  Relation r = MakeRelation();
  r.AppendRowUnchecked({Value::Int(1), Value::Int(2), Value::Double(3.0)});
  EXPECT_FALSE(r.AddDerivedIntColumn(7, {1, 2, 3}).ok());
}

TEST(RelationTest, AddDerivedColumnRejectsDuplicateAttr) {
  Relation r = MakeRelation();
  r.AppendRowUnchecked({Value::Int(1), Value::Int(2), Value::Double(3.0)});
  EXPECT_FALSE(r.AddDerivedIntColumn(0, {1}).ok());
}

TEST(RelationTest, FinalizeRowCount) {
  Relation r = MakeRelation();
  r.mutable_column(0).mutable_ints() = {1, 2};
  r.mutable_column(1).mutable_ints() = {3, 4};
  r.mutable_column(2).mutable_doubles() = {5.0, 6.0};
  r.FinalizeRowCount();
  EXPECT_EQ(r.num_rows(), 2u);
}

TEST(RelationTest, ToStringTruncates) {
  Relation r = MakeRelation();
  for (int64_t i = 0; i < 20; ++i) {
    r.AppendRowUnchecked({Value::Int(i), Value::Int(i), Value::Double(i)});
  }
  const std::string s = r.ToString(3);
  EXPECT_NE(s.find("17 more"), std::string::npos);
}

TEST(RelationTest, AppendRelationConcatenatesColumns) {
  Relation r = MakeRelation();
  r.AppendRowUnchecked({Value::Int(1), Value::Int(2), Value::Double(3.0)});
  Relation more = MakeRelation();
  more.AppendRowUnchecked({Value::Int(4), Value::Int(5), Value::Double(6.0)});
  more.AppendRowUnchecked({Value::Int(7), Value::Int(8), Value::Double(9.0)});
  ASSERT_TRUE(r.Append(more).ok());
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.column(0).ints(), (std::vector<int64_t>{1, 4, 7}));
  EXPECT_DOUBLE_EQ(r.column(2).doubles()[2], 9.0);
}

TEST(RelationTest, AppendRelationRejectsMismatchedSchema) {
  Relation r = MakeRelation();
  Relation other("S", RelationSchema({0, 1}),
                 {AttrType::kInt, AttrType::kInt});
  EXPECT_FALSE(r.Append(other).ok());
  // Same attrs, different column type.
  Relation retyped("T", RelationSchema({0, 1, 2}),
                   {AttrType::kInt, AttrType::kInt, AttrType::kInt});
  EXPECT_FALSE(r.Append(retyped).ok());
  EXPECT_EQ(r.num_rows(), 0u);
}

TEST(RelationTest, SliceRowsCopiesHalfOpenRange) {
  Relation r = MakeRelation();
  for (int64_t i = 0; i < 5; ++i) {
    r.AppendRowUnchecked({Value::Int(i), Value::Int(10 + i),
                          Value::Double(static_cast<double>(i) / 2)});
  }
  const Relation slice = r.SliceRows(1, 4);
  EXPECT_EQ(slice.num_rows(), 3u);
  EXPECT_EQ(slice.schema().attrs(), r.schema().attrs());
  EXPECT_EQ(slice.column(0).ints(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(slice.column(2).doubles()[0], 0.5);
  EXPECT_EQ(r.SliceRows(2, 2).num_rows(), 0u);
}

TEST(ValueTest, TypedAccess) {
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Int(5).AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Int(5), Value::Int(5));
  EXPECT_EQ(Value::Int(5), Value::Double(5.0));
  EXPECT_FALSE(Value::Int(5) == Value::Int(6));
}

TEST(SchemaSetOpsTest, Basics) {
  EXPECT_EQ(SortedUnique({3, 1, 3, 2}), (std::vector<AttrId>{1, 2, 3}));
  EXPECT_EQ(SetUnion({1, 3}, {2, 3}), (std::vector<AttrId>{1, 2, 3}));
  EXPECT_EQ(SetIntersection({1, 2, 3}, {2, 3, 4}),
            (std::vector<AttrId>{2, 3}));
  EXPECT_EQ(SetDifference({1, 2, 3}, {2}), (std::vector<AttrId>{1, 3}));
  EXPECT_TRUE(SetContains({1, 2, 3}, 2));
  EXPECT_FALSE(SetContains({1, 2, 3}, 4));
  EXPECT_TRUE(IsSubset({2, 3}, {1, 2, 3}));
  EXPECT_FALSE(IsSubset({2, 4}, {1, 2, 3}));
}

}  // namespace
}  // namespace lmfao
