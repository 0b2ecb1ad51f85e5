/// \file loader_test.cc
/// \brief CSV <-> relation round trips.

#include "data/loader.h"

#include <gtest/gtest.h>

namespace lmfao {
namespace {

Catalog MakeCatalog() {
  Catalog cat;
  LMFAO_CHECK(cat.AddAttribute("k", AttrType::kInt).ok());
  LMFAO_CHECK(cat.AddAttribute("x", AttrType::kDouble).ok());
  LMFAO_CHECK(cat.AddRelation("R", {"k", "x"}).ok());
  return cat;
}

TEST(LoaderTest, LoadTyped) {
  Catalog cat = MakeCatalog();
  Relation& rel = cat.mutable_relation(0);
  ASSERT_TRUE(
      LoadRelationCsvText("k,x\n1,0.5\n-2,3\n", cat, &rel).ok());
  ASSERT_EQ(rel.num_rows(), 2u);
  EXPECT_EQ(rel.column(0).ints(), (std::vector<int64_t>{1, -2}));
  EXPECT_DOUBLE_EQ(rel.column(1).doubles()[0], 0.5);
  EXPECT_DOUBLE_EQ(rel.column(1).doubles()[1], 3.0);
}

TEST(LoaderTest, RejectsNonIntegerForIntColumn) {
  Catalog cat = MakeCatalog();
  Relation& rel = cat.mutable_relation(0);
  EXPECT_FALSE(LoadRelationCsvText("k,x\n1.5,2\n", cat, &rel).ok());
  EXPECT_FALSE(LoadRelationCsvText("k,x\nabc,2\n", cat, &rel).ok());
}

TEST(LoaderTest, RejectsNonNumericForDoubleColumn) {
  Catalog cat = MakeCatalog();
  Relation& rel = cat.mutable_relation(0);
  EXPECT_FALSE(LoadRelationCsvText("k,x\n1,oops\n", cat, &rel).ok());
}

TEST(LoaderTest, RejectsArityMismatch) {
  Catalog cat = MakeCatalog();
  Relation& rel = cat.mutable_relation(0);
  EXPECT_FALSE(LoadRelationCsvText("a\n1\n", cat, &rel).ok());
}

TEST(LoaderTest, ScientificNotationDoubles) {
  Catalog cat = MakeCatalog();
  Relation& rel = cat.mutable_relation(0);
  ASSERT_TRUE(LoadRelationCsvText("k,x\n7,1e-3\n", cat, &rel).ok());
  EXPECT_DOUBLE_EQ(rel.column(1).doubles()[0], 1e-3);
}

TEST(LoaderTest, RoundTrip) {
  Catalog cat = MakeCatalog();
  Relation& rel = cat.mutable_relation(0);
  rel.AppendRowUnchecked({Value::Int(42), Value::Double(0.125)});
  rel.AppendRowUnchecked({Value::Int(-1), Value::Double(1e10)});
  const std::string csv = RelationToCsv(rel, cat);
  EXPECT_NE(csv.find("k,x"), std::string::npos);

  Catalog cat2 = MakeCatalog();
  Relation& rel2 = cat2.mutable_relation(0);
  ASSERT_TRUE(LoadRelationCsvText(csv, cat2, &rel2).ok());
  ASSERT_EQ(rel2.num_rows(), 2u);
  EXPECT_EQ(rel2.column(0).ints(), rel.column(0).ints());
  EXPECT_EQ(rel2.column(1).doubles(), rel.column(1).doubles());
}

/// Error-propagation sweep: every malformed file comes back as a non-OK
/// Status (InvalidArgument for bad values/shape), never an abort.
TEST(LoaderTest, MalformedFilesReturnInvalidArgument) {
  const char* bad_files[] = {
      "k,x\n1\n",                        // too few fields
      "k,x\n1,2,3\n",                    // too many fields
      "k,x\n1.5,2\n",                    // float for int column
      "k,x\nabc,2\n",                    // text for int column
      "k,x\n,2\n",                       // empty int field
      "k,x\n1,\n",                       // empty double field
      "k,x\n1,oops\n",                   // text for double column
      "k,x\n99999999999999999999,2\n",   // int overflow
      "k,x\n1,1e999999\n",               // double overflow
      "k,x\n1,2\n3,nan?\n",              // defect in a later row
  };
  for (const char* text : bad_files) {
    Catalog cat = MakeCatalog();
    Relation& rel = cat.mutable_relation(0);
    Status st = LoadRelationCsvText(text, cat, &rel);
    ASSERT_FALSE(st.ok()) << text;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << text << " -> " << st.ToString();
  }
}

/// A defect in the middle of the file leaves the relation untouched —
/// no prefix of the file is half-loaded.
TEST(LoaderTest, FailedLoadLeavesRelationUnchanged) {
  Catalog cat = MakeCatalog();
  Relation& rel = cat.mutable_relation(0);
  rel.AppendRowUnchecked({Value::Int(7), Value::Double(1.5)});
  ASSERT_FALSE(LoadRelationCsvText("k,x\n1,2\n2,3\nbad,4\n", cat, &rel).ok());
  ASSERT_EQ(rel.num_rows(), 1u);
  EXPECT_EQ(rel.column(0).ints(), (std::vector<int64_t>{7}));
  // And the same text with the defect removed loads fully.
  ASSERT_TRUE(LoadRelationCsvText("k,x\n1,2\n2,3\n", cat, &rel).ok());
  EXPECT_EQ(rel.num_rows(), 3u);
}

/// NaN or an infinity would poison every sum over the column, so a
/// non-finite double is malformed input like any other bad field.
TEST(LoaderTest, RejectsNonFiniteDoubles) {
  Catalog cat = MakeCatalog();
  Relation& rel = cat.mutable_relation(0);
  rel.AppendRowUnchecked({Value::Int(7), Value::Double(1.5)});
  for (const char* field : {"nan", "NAN", "-nan", "inf", "-inf", "infinity",
                            "1e999"}) {
    const Status st = LoadRelationCsvText(
        std::string("k,x\n1,2\n2,") + field + "\n", cat, &rel);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(st.message().find(field), std::string::npos) << st.ToString();
    ASSERT_EQ(rel.num_rows(), 1u) << field;
    EXPECT_EQ(rel.column(0).ints(), (std::vector<int64_t>{7}));
    EXPECT_EQ(rel.column(1).doubles(), (std::vector<double>{1.5}));
  }
}

TEST(LoaderTest, FileRoundTrip) {
  Catalog cat = MakeCatalog();
  Relation& rel = cat.mutable_relation(0);
  rel.AppendRowUnchecked({Value::Int(5), Value::Double(2.5)});
  const std::string path = testing::TempDir() + "/lmfao_loader_test.csv";
  ASSERT_TRUE(WriteFile(path, RelationToCsv(rel, cat)).ok());
  Catalog cat2 = MakeCatalog();
  Relation& rel2 = cat2.mutable_relation(0);
  ASSERT_TRUE(LoadRelationCsv(path, cat2, &rel2).ok());
  EXPECT_EQ(rel2.num_rows(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lmfao
