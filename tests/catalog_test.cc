/// \file catalog_test.cc

#include "storage/catalog.h"

#include <gtest/gtest.h>

#include "util/failpoint.h"

namespace lmfao {
namespace {

TEST(CatalogTest, AddAndLookupAttributes) {
  Catalog cat;
  auto a = cat.AddAttribute("x", AttrType::kInt, 10);
  ASSERT_TRUE(a.ok());
  auto b = cat.AddAttribute("y", AttrType::kDouble);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cat.num_attrs(), 2);
  EXPECT_EQ(cat.attr(*a).name, "x");
  EXPECT_EQ(cat.attr(*a).domain_size, 10);
  EXPECT_EQ(cat.attr(*b).type, AttrType::kDouble);
  auto found = cat.AttrIdOf("y");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *b);
}

TEST(CatalogTest, DuplicateAttributeRejected) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("x", AttrType::kInt).ok());
  EXPECT_EQ(cat.AddAttribute("x", AttrType::kInt).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, UnknownAttributeNotFound) {
  Catalog cat;
  EXPECT_EQ(cat.AttrIdOf("missing").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, AddRelationByAttrNames) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("a", AttrType::kInt).ok());
  ASSERT_TRUE(cat.AddAttribute("b", AttrType::kDouble).ok());
  auto r = cat.AddRelation("R", {"a", "b"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cat.relation(*r).name(), "R");
  EXPECT_EQ(cat.relation(*r).schema().arity(), 2);
  EXPECT_EQ(cat.relation(*r).column(1).type(), AttrType::kDouble);
}

TEST(CatalogTest, AddRelationUnknownAttrFails) {
  Catalog cat;
  EXPECT_FALSE(cat.AddRelation("R", {"ghost"}).ok());
}

TEST(CatalogTest, DuplicateRelationRejected) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("a", AttrType::kInt).ok());
  ASSERT_TRUE(cat.AddRelation("R", {"a"}).ok());
  EXPECT_EQ(cat.AddRelation("R", {"a"}).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, RefreshDomainSizesCountsDistinctInts) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("k", AttrType::kInt).ok());
  ASSERT_TRUE(cat.AddAttribute("v", AttrType::kDouble).ok());
  auto r = cat.AddRelation("R", {"k", "v"});
  ASSERT_TRUE(r.ok());
  Relation& rel = cat.mutable_relation(*r);
  for (int64_t i = 0; i < 10; ++i) {
    rel.AppendRowUnchecked({Value::Int(i % 4), Value::Double(1.0)});
  }
  cat.RefreshDomainSizes();
  auto k = cat.AttrIdOf("k");
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(cat.attr(*k).domain_size, 4);
  EXPECT_EQ(cat.attr_range(*k).min, 0);
  EXPECT_EQ(cat.attr_range(*k).max, 3);
  EXPECT_FALSE(cat.attr_range(*cat.AttrIdOf("v")).known());
}

TEST(CatalogTest, RefreshSpansMultipleRelations) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("k", AttrType::kInt).ok());
  auto r1 = cat.AddRelation("R1", {"k"});
  auto r2 = cat.AddRelation("R2", {"k"});
  ASSERT_TRUE(r1.ok() && r2.ok());
  cat.mutable_relation(*r1).AppendRowUnchecked({Value::Int(1)});
  cat.mutable_relation(*r2).AppendRowUnchecked({Value::Int(2)});
  cat.RefreshDomainSizes();
  EXPECT_EQ(cat.attr(0).domain_size, 2);
  EXPECT_EQ(cat.attr_range(0).min, 1);
  EXPECT_EQ(cat.attr_range(0).max, 2);
}

/// Appends widen a refreshed attribute's range, under the same lock as the
/// watermark, so a snapshot carries ranges that cover its rows; an
/// attribute no refresh has seen stays unknown.
TEST(CatalogEpochTest, AppendWidensKnownRangesIntoSnapshots) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("k", AttrType::kInt).ok());
  ASSERT_TRUE(cat.AddAttribute("j", AttrType::kInt).ok());
  auto r = cat.AddRelation("R", {"k"});
  auto s = cat.AddRelation("S", {"j"});
  ASSERT_TRUE(r.ok() && s.ok());
  cat.mutable_relation(*r).AppendRowUnchecked({Value::Int(5)});
  cat.RefreshDomainSizes();
  ASSERT_TRUE(cat.AppendRows(*r, {{Value::Int(-2)}, {Value::Int(7)}}).ok());
  ASSERT_TRUE(cat.AppendRows(*s, {{Value::Int(4)}}).ok());
  const EpochSnapshot snap = cat.SnapshotEpoch();
  ASSERT_EQ(snap.ranges.size(), 2u);
  EXPECT_EQ(snap.ranges[0].min, -2);
  EXPECT_EQ(snap.ranges[0].max, 7);
  EXPECT_FALSE(snap.ranges[1].known());
  EXPECT_EQ(cat.attr_range(0).max, 7);
}

TEST(CatalogEpochTest, AppendCommitsRowsWatermarkAndEpoch) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("k", AttrType::kInt).ok());
  ASSERT_TRUE(cat.AddAttribute("v", AttrType::kDouble).ok());
  auto r = cat.AddRelation("R", {"k", "v"});
  ASSERT_TRUE(r.ok());
  cat.mutable_relation(*r).AppendRowUnchecked(
      {Value::Int(1), Value::Double(2.0)});
  EXPECT_EQ(cat.append_epoch(), 0u);

  ASSERT_TRUE(cat.AppendRows(*r, {{Value::Int(3), Value::Double(4.0)},
                                  {Value::Int(5), Value::Double(6.0)}})
                  .ok());
  EXPECT_EQ(cat.CommittedRows(*r), 3u);
  EXPECT_EQ(cat.relation(*r).num_rows(), 3u);
  EXPECT_EQ(cat.append_epoch(), 1u);
  const EpochSnapshot snap = cat.SnapshotEpoch();
  ASSERT_EQ(snap.rows.size(), 1u);
  EXPECT_EQ(snap.at(*r), 3u);

  // An empty append still commits an epoch.
  ASSERT_TRUE(cat.AppendRows(*r, {}).ok());
  EXPECT_EQ(cat.append_epoch(), 2u);
  EXPECT_EQ(cat.CommittedRows(*r), 3u);
}

TEST(CatalogEpochTest, UntrackedWatermarkFollowsBulkLoadedRows) {
  // Until the first Append, the committed watermark is the live row count,
  // so bulk loaders that fill relations directly stay fully visible.
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("k", AttrType::kInt).ok());
  auto r = cat.AddRelation("R", {"k"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cat.CommittedRows(*r), 0u);
  cat.mutable_relation(*r).AppendRowUnchecked({Value::Int(1)});
  cat.mutable_relation(*r).AppendRowUnchecked({Value::Int(2)});
  EXPECT_EQ(cat.CommittedRows(*r), 2u);
  EXPECT_EQ(cat.SnapshotEpoch().at(*r), 2u);
}

TEST(CatalogEpochTest, AppendValidatesIdAndTypesWithoutCommitting) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("k", AttrType::kInt).ok());
  auto r = cat.AddRelation("R", {"k"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cat.AppendRows(7, {{Value::Int(1)}}).code(),
            StatusCode::kInvalidArgument);
  // Wrong arity and wrong type both fail before any row lands.
  EXPECT_FALSE(cat.AppendRows(*r, {{Value::Int(1), Value::Int(2)}}).ok());
  EXPECT_FALSE(cat.AppendRows(*r, {{Value::Double(1.5)}}).ok());
  EXPECT_EQ(cat.relation(*r).num_rows(), 0u);
  EXPECT_EQ(cat.append_epoch(), 0u);
}

/// Append atomicity: a batch with a bad row anywhere (wrong arity, wrong
/// type, even as the last row) commits nothing — rows, watermark, and
/// append_epoch all stay exactly as they were, and the next good batch
/// commits normally.
TEST(CatalogTest, RejectedAppendBatchCommitsNothing) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("k", AttrType::kInt).ok());
  ASSERT_TRUE(cat.AddAttribute("x", AttrType::kDouble).ok());
  auto r = cat.AddRelation("R", {"k", "x"});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(
      cat.AppendRows(*r, {{Value::Int(1), Value::Double(0.5)}}).ok());
  const size_t rows_before = cat.relation(*r).num_rows();
  const uint64_t epoch_before = cat.append_epoch();

  const std::vector<std::vector<std::vector<Value>>> bad_batches = {
      // Wrong arity mid-batch.
      {{Value::Int(2), Value::Double(1.0)}, {Value::Int(3)}},
      // Wrong type for the int column, as the LAST row: the good prefix
      // must not land.
      {{Value::Int(2), Value::Double(1.0)},
       {Value::Int(3), Value::Double(2.0)},
       {Value::Double(4.5), Value::Double(3.0)}},
  };
  for (const auto& rows : bad_batches) {
    Status st = cat.AppendRows(*r, rows);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(cat.relation(*r).num_rows(), rows_before);
    EXPECT_EQ(cat.CommittedRows(*r), rows_before);
    EXPECT_EQ(cat.append_epoch(), epoch_before);
  }

  ASSERT_TRUE(cat.AppendRows(*r, {{Value::Int(9), Value::Double(9.0)}}).ok());
  EXPECT_EQ(cat.relation(*r).num_rows(), rows_before + 1);
  EXPECT_EQ(cat.append_epoch(), epoch_before + 1);
}

/// A rejected Append — an injected commit failure, a schema mismatch, a
/// column type mismatch — leaves every attribute's [min, max] as it was,
/// even when the rejected rows lie far outside it.
TEST(CatalogTest, RejectedAppendLeavesRangesUnchanged) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("k", AttrType::kInt).ok());
  ASSERT_TRUE(cat.AddAttribute("x", AttrType::kDouble).ok());
  auto r = cat.AddRelation("R", {"k", "x"});
  ASSERT_TRUE(r.ok());
  cat.mutable_relation(*r).AppendRowUnchecked(
      {Value::Int(3), Value::Double(0.5)});
  cat.RefreshDomainSizes();
  const RelationSchema& schema = cat.relation(*r).schema();

  Relation good("R", schema, {AttrType::kInt, AttrType::kDouble});
  good.AppendRowUnchecked({Value::Int(-100), Value::Double(1.0)});
  ASSERT_TRUE(Failpoints::Configure("catalog.append=fail").ok());
  EXPECT_FALSE(cat.Append(*r, good).ok());
  Failpoints::Clear();

  Relation narrow("R", RelationSchema({schema.attr(0)}), {AttrType::kInt});
  narrow.AppendRowUnchecked({Value::Int(100)});
  EXPECT_EQ(cat.Append(*r, narrow).code(), StatusCode::kInvalidArgument);

  Relation mistyped("R", schema, {AttrType::kInt, AttrType::kInt});
  mistyped.AppendRowUnchecked({Value::Int(100), Value::Int(1)});
  EXPECT_EQ(cat.Append(*r, mistyped).code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(cat.attr_range(schema.attr(0)).min, 3);
  EXPECT_EQ(cat.attr_range(schema.attr(0)).max, 3);
  EXPECT_EQ(cat.SnapshotEpoch().ranges[0].max, 3);
  EXPECT_EQ(cat.append_epoch(), 0u);

  ASSERT_TRUE(cat.Append(*r, good).ok());
  EXPECT_EQ(cat.attr_range(schema.attr(0)).min, -100);
}

TEST(CatalogTest, ToStringListsRelations) {
  Catalog cat;
  ASSERT_TRUE(cat.AddAttribute("a", AttrType::kInt).ok());
  ASSERT_TRUE(cat.AddRelation("R", {"a"}).ok());
  const std::string s = cat.ToString();
  EXPECT_NE(s.find("R("), std::string::npos);
  EXPECT_NE(s.find("a:int"), std::string::npos);
}

}  // namespace
}  // namespace lmfao
