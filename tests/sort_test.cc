/// \file sort_test.cc

#include "storage/sort.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace lmfao {
namespace {

/// True if `rel` is sorted lexicographically by the int columns `order`.
bool IsSorted(const Relation& rel, const std::vector<AttrId>& order) {
  for (size_t r = 1; r < rel.num_rows(); ++r) {
    for (AttrId a : order) {
      const std::vector<int64_t>& col = rel.column(rel.ColumnIndex(a)).ints();
      if (col[r - 1] < col[r]) break;
      if (col[r - 1] > col[r]) return false;
    }
  }
  return true;
}

Relation MakeRelation() {
  Relation r("R", RelationSchema({0, 1, 2}),
             {AttrType::kInt, AttrType::kInt, AttrType::kDouble});
  // (2,1,0.1) (1,2,0.2) (2,0,0.3) (1,1,0.4)
  r.AppendRowUnchecked({Value::Int(2), Value::Int(1), Value::Double(0.1)});
  r.AppendRowUnchecked({Value::Int(1), Value::Int(2), Value::Double(0.2)});
  r.AppendRowUnchecked({Value::Int(2), Value::Int(0), Value::Double(0.3)});
  r.AppendRowUnchecked({Value::Int(1), Value::Int(1), Value::Double(0.4)});
  return r;
}

TEST(SortTest, LexicographicTwoKeys) {
  Relation r = MakeRelation();
  ASSERT_TRUE(SortRelation(&r, {0, 1}).ok());
  EXPECT_EQ(r.column(0).ints(), (std::vector<int64_t>{1, 1, 2, 2}));
  EXPECT_EQ(r.column(1).ints(), (std::vector<int64_t>{1, 2, 0, 1}));
  // Payload column moved with its row.
  EXPECT_DOUBLE_EQ(r.column(2).doubles()[0], 0.4);
}

TEST(SortTest, SingleKey) {
  Relation r = MakeRelation();
  ASSERT_TRUE(SortRelation(&r, {1}).ok());
  EXPECT_EQ(r.column(1).ints(), (std::vector<int64_t>{0, 1, 1, 2}));
}

TEST(SortTest, IsSortedDetects) {
  Relation r = MakeRelation();
  EXPECT_FALSE(IsSorted(r, {0, 1}));
  ASSERT_TRUE(SortRelation(&r, {0, 1}).ok());
  EXPECT_TRUE(IsSorted(r, {0, 1}));
}

TEST(SortTest, RejectsUnknownAttribute) {
  Relation r = MakeRelation();
  EXPECT_FALSE(SortRelation(&r, {42}).ok());
}

TEST(SortTest, RejectsDoubleColumn) {
  Relation r = MakeRelation();
  EXPECT_FALSE(SortRelation(&r, {2}).ok());
}

TEST(SortTest, StableAndDeterministic) {
  Relation a("A", RelationSchema({0, 1}), {AttrType::kInt, AttrType::kInt});
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    a.AppendRowUnchecked(
        {Value::Int(rng.UniformInt(0, 9)), Value::Int(i)});
  }
  Relation b = a;
  ASSERT_TRUE(SortRelation(&a, {0}).ok());
  ASSERT_TRUE(SortRelation(&b, {0}).ok());
  EXPECT_EQ(a.column(1).ints(), b.column(1).ints());
  // Stability: within equal keys, original order (column 1 ascending).
  for (size_t i = 1; i < a.num_rows(); ++i) {
    if (a.column(0).ints()[i - 1] == a.column(0).ints()[i]) {
      EXPECT_LT(a.column(1).ints()[i - 1], a.column(1).ints()[i]);
    }
  }
}

TEST(SortTest, EmptyRelation) {
  Relation r("E", RelationSchema({0}), {AttrType::kInt});
  ASSERT_TRUE(SortRelation(&r, {0}).ok());
  EXPECT_TRUE(IsSorted(r, {0}));
}

TEST(MergeSortedRelationsTest, MergeOfSortedSplitsEqualsFullStableSort) {
  // The invariant the epoch-extended sorted cache rests on: sorting a
  // prefix and a suffix separately and merging them (prefix wins ties)
  // is bit-identical to one stable sort of the whole relation.
  Rng rng(11);
  Relation whole("W", RelationSchema({0, 1, 2}),
                 {AttrType::kInt, AttrType::kInt, AttrType::kDouble});
  for (int i = 0; i < 300; ++i) {
    whole.AppendRowUnchecked({Value::Int(rng.UniformInt(-3, 3)),
                              Value::Int(rng.UniformInt(0, 4)),
                              Value::Double(static_cast<double>(i))});
  }
  for (const size_t split : {size_t{0}, size_t{1}, size_t{150}, size_t{300}}) {
    Relation prefix = whole.SliceRows(0, split);
    Relation suffix = whole.SliceRows(split, whole.num_rows());
    ASSERT_TRUE(SortRelation(&prefix, {0, 1}).ok());
    ASSERT_TRUE(SortRelation(&suffix, {0, 1}).ok());
    auto merged = MergeSortedRelations(prefix, suffix, {0, 1});
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();

    Relation resorted = whole;
    ASSERT_TRUE(SortRelation(&resorted, {0, 1}).ok());
    ASSERT_EQ(merged->num_rows(), resorted.num_rows());
    EXPECT_EQ(merged->column(0).ints(), resorted.column(0).ints());
    EXPECT_EQ(merged->column(1).ints(), resorted.column(1).ints());
    // The payload column pins stability: every row carries its original
    // index, so any tie broken differently from the full stable sort
    // shows up here.
    EXPECT_EQ(merged->column(2).doubles(), resorted.column(2).doubles())
        << "split at " << split;
  }
}

TEST(MergeSortedRelationsTest, EmptyOrderConcatenates) {
  Relation a = MakeRelation();
  Relation b = MakeRelation();
  auto merged = MergeSortedRelations(a, b, {});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_rows(), 8u);
  EXPECT_EQ(merged->column(0).ints()[4], a.column(0).ints()[0]);
}

TEST(MergeSortedRelationsTest, RejectsMismatchedSchemas) {
  Relation a = MakeRelation();
  Relation b("B", RelationSchema({0, 1}), {AttrType::kInt, AttrType::kInt});
  EXPECT_FALSE(MergeSortedRelations(a, b, {0}).ok());
  // Sort attribute absent from the schema.
  Relation c = MakeRelation();
  EXPECT_FALSE(MergeSortedRelations(a, c, {9}).ok());
}

TEST(SortTest, PermutationMatchesSort) {
  Relation r = MakeRelation();
  auto perm = SortPermutation(r, {0, 1});
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(perm->size(), 4u);
  EXPECT_EQ((*perm)[0], 3u);  // Row (1,1) first.
}

}  // namespace
}  // namespace lmfao
