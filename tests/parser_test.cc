/// \file parser_test.cc
/// \brief Tests of the SQL-ish query parser, including full parse->evaluate
/// round trips against hand-built batches.

#include "query/parser.h"

#include <gtest/gtest.h>

#include "baseline/join.h"
#include "baseline/naive_engine.h"
#include "data/favorita.h"
#include "engine/engine.h"

namespace lmfao {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakeFavorita(FavoritaOptions{.num_sales = 500});
    ASSERT_TRUE(data.ok());
    data_ = std::move(data).value();
  }
  std::unique_ptr<FavoritaData> data_;
};

TEST_F(ParserTest, GlobalSum) {
  auto q = ParseQuery("SELECT SUM(units) FROM D", data_->catalog);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->group_by.empty());
  ASSERT_EQ(q->aggregates.size(), 1u);
  EXPECT_EQ(q->aggregates[0], Aggregate::Sum(data_->units));
}

TEST_F(ParserTest, CountStar) {
  auto q = ParseQuery("SELECT SUM(1) FROM D", data_->catalog);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->aggregates[0].IsCount());
}

TEST_F(ParserTest, GroupByWithBareAttribute) {
  auto q = ParseQuery("SELECT store, SUM(units) FROM D GROUP BY store",
                      data_->catalog);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->group_by, (std::vector<AttrId>{data_->store}));
}

TEST_F(ParserTest, BareAttributeImpliesGroupBy) {
  auto q = ParseQuery("SELECT store, SUM(units) FROM D", data_->catalog);
  ASSERT_TRUE(q.ok());
  // The batch canonicalizes later; the parser appends it.
  EXPECT_EQ(q->group_by, (std::vector<AttrId>{data_->store}));
}

TEST_F(ParserTest, ProductAndSquare) {
  auto q = ParseQuery("SELECT SUM(units * price), SUM(units^2) FROM D",
                      data_->catalog);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->aggregates.size(), 2u);
  EXPECT_EQ(q->aggregates[0],
            Aggregate::SumProduct(data_->units, data_->price));
  EXPECT_EQ(q->aggregates[1], Aggregate::SumSquare(data_->units));
}

TEST_F(ParserTest, DictionaryFunctions) {
  auto g = std::make_shared<FunctionDict>();
  g->name = "g";
  FunctionRegistry registry;
  registry["g"] = g;
  auto q = ParseQuery("SELECT SUM(g(item) * units) FROM D", data_->catalog,
                      registry);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  bool found_dict = false;
  for (const Factor& f : q->aggregates[0].factors()) {
    found_dict |= f.fn.kind() == FunctionKind::kDictionary;
  }
  EXPECT_TRUE(found_dict);
}

TEST_F(ParserTest, WhereBecomesIndicators) {
  auto q = ParseQuery(
      "SELECT SUM(1), SUM(units), SUM(units^2) FROM D "
      "WHERE price <= 60 AND promo = 1",
      data_->catalog);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->aggregates.size(), 3u);
  // Every aggregate carries both conditions.
  for (const Aggregate& agg : q->aggregates) {
    int indicators = 0;
    for (const Factor& f : agg.factors()) {
      if (f.fn.IsIndicator()) ++indicators;
    }
    EXPECT_EQ(indicators, 2);
  }
}

TEST_F(ParserTest, InlineIndicatorFactor) {
  auto q = ParseQuery("SELECT SUM((price <= 55) * units) FROM D",
                      data_->catalog);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->aggregates[0].factors().size(), 2u);
}

TEST_F(ParserTest, CaseInsensitiveKeywords) {
  auto q = ParseQuery("select sum(units) from d group by store",
                      data_->catalog);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->group_by, (std::vector<AttrId>{data_->store}));
}

TEST_F(ParserTest, ComparisonOperators) {
  for (const char* op : {"<=", "<", ">=", ">", "=", "==", "!=", "<>"}) {
    const std::string text =
        std::string("SELECT SUM(1) FROM D WHERE price ") + op + " 50";
    auto q = ParseQuery(text, data_->catalog);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    EXPECT_EQ(q->aggregates[0].factors().size(), 1u);
  }
}

TEST_F(ParserTest, Rejections) {
  EXPECT_FALSE(ParseQuery("", data_->catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT FROM D", data_->catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM(units) FROM Sales", data_->catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM(ghost) FROM D", data_->catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM(units^3) FROM D", data_->catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM(2 * units) FROM D", data_->catalog).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(units) FROM D trailing", data_->catalog).ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM(units FROM D", data_->catalog).ok());
}

/// Error propagation sweep: malformed syntax of every production must
/// come back as InvalidArgument — a Status, never an abort or a parse
/// into something silently wrong.
TEST_F(ParserTest, MalformedQueriesReturnInvalidArgument) {
  const char* bad_queries[] = {
      "SELECT",                                       // truncated
      "SELECT SUM(units)",                            // missing FROM
      "SELECT SUM(units) FROM",                       // missing source
      "SELECT SUM(units) FROM D GROUP",               // truncated GROUP BY
      "SELECT SUM(units) FROM D GROUP BY",            // empty GROUP BY
      "SELECT SUM(units) FROM D WHERE",               // empty WHERE
      "SELECT SUM(units) FROM D WHERE price",         // comparison-less
      "SELECT SUM(units) FROM D WHERE price <=",      // missing rhs
      "SELECT SUM(units) FROM D WHERE <= 3",          // missing lhs
      "SELECT SUM(units) FROM D WHERE price <= abc",  // non-numeric rhs
      "SELECT SUM(units) FROM D WHERE price <= 3 AND",   // dangling AND
      "SELECT SUM(units) FROM D WHERE price ~ 3",     // unknown operator
      "SELECT SUM() FROM D",                          // empty SUM
      "SELECT SUM(units *) FROM D",                   // dangling product
      "SELECT SUM(* units) FROM D",                   // leading product
      "SELECT SUM(units ^ x) FROM D",                 // non-numeric power
      "SELECT SUM((units <= )) FROM D",               // broken indicator
      "SELECT SUM(units)) FROM D",                    // unbalanced paren
      "SELECT , FROM D",                              // empty select item
      "FROM D SELECT SUM(units)",                     // clause order
      "SELECT SUM(units) GROUP BY store FROM D",      // clause order
      ";;;",                                          // no statement
  };
  for (const char* text : bad_queries) {
    auto q = ParseQuery(text, data_->catalog);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument)
        << text << " -> " << q.status().ToString();
  }
}

/// A numeric literal must be consumed whole by strtod and be finite: a
/// malformed or overflowing one is an error at its position, never a
/// silently truncated threshold.
TEST_F(ParserTest, MalformedNumericLiteralsRejected) {
  const std::string prefix = "SELECT SUM(1) FROM D WHERE price <= ";
  for (const char* literal : {"1.2.3", ".", "1e", "1e999"}) {
    auto q = ParseQuery(prefix + literal, data_->catalog);
    EXPECT_FALSE(q.ok()) << literal << " parsed";
    if (q.ok()) continue;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << literal;
    // The literal starts at offset 36: line 1, column 37.
    EXPECT_NE(q.status().message().find("'" + std::string(literal) +
                                        "'"),
              std::string::npos)
        << q.status().ToString();
    EXPECT_NE(q.status().message().find("line 1, column 37"),
              std::string::npos)
        << q.status().ToString();
  }
  // Well-formed literals still parse to their value.
  for (const auto& [literal, value] :
       std::vector<std::pair<const char*, double>>{
           {"1.5e2", 150.0}, {".5", 0.5}, {"-2", -2.0}, {"1E-1", 0.1}}) {
    auto q = ParseQuery(prefix + literal, data_->catalog);
    ASSERT_TRUE(q.ok()) << literal << ": " << q.status().ToString();
    ASSERT_EQ(q->aggregates[0].factors().size(), 1u);
    EXPECT_EQ(q->aggregates[0].factors()[0].fn.threshold(), value) << literal;
  }
}

/// Parse errors point at the offending token with 1-based line/column
/// positions — a raw byte offset is useless once statements span lines.
TEST_F(ParserTest, ErrorsCarryLineAndColumn) {
  // "%" is at offset 7 on line 1 -> column 8.
  auto lex = ParseQuery("SELECT %", data_->catalog);
  ASSERT_FALSE(lex.ok());
  EXPECT_NE(lex.status().message().find("line 1, column 8"), std::string::npos)
      << lex.status().ToString();

  // Truncated on the third line: the error names line 3 and what was seen.
  auto trunc = ParseQuery("SELECT SUM(units)\nFROM D\nWHERE price <=",
                          data_->catalog);
  ASSERT_FALSE(trunc.ok());
  EXPECT_NE(trunc.status().message().find("line 3"), std::string::npos)
      << trunc.status().ToString();
  EXPECT_NE(trunc.status().message().find("end of input"), std::string::npos)
      << trunc.status().ToString();

  // Unknown attributes are located too.
  auto unknown = ParseQuery("SELECT SUM(units)\nFROM D GROUP BY ghost",
                            data_->catalog);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("'ghost' at line 2"),
            std::string::npos)
      << unknown.status().ToString();
}

/// In multi-statement input the line/column is relative to the statement,
/// so the error says which statement it is in.
TEST_F(ParserTest, BatchErrorsNameTheStatement) {
  auto batch = ParseQueryBatch(
      "SELECT SUM(units) FROM D; SELECT SUM( FROM D", data_->catalog);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().message().rfind("statement 2: ", 0), 0u)
      << batch.status().ToString();
}

/// Names that parse but do not resolve are InvalidArgument too: the
/// query text is the argument at fault.
TEST_F(ParserTest, UnknownNamesSurfaceLookupErrors) {
  EXPECT_EQ(
      ParseQuery("SELECT SUM(ghost) FROM D", data_->catalog).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseQuery("SELECT SUM(units) FROM D GROUP BY ghost",
                       data_->catalog)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // An unregistered dictionary function is a parse-level error.
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(nosuchfn(store)) FROM D", data_->catalog).ok());
}

/// A batch with one bad statement fails as a whole; the good statements
/// do not mask it.
TEST_F(ParserTest, BatchWithOneBadStatementFails) {
  auto batch = ParseQueryBatch(
      "SELECT SUM(units) FROM D; SELECT SUM( FROM D; SELECT SUM(1) FROM D",
      data_->catalog);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParserTest, BatchSplitsOnSemicolons) {
  auto batch = ParseQueryBatch(
      "SELECT SUM(units) FROM D;\n"
      " ;\n"
      "SELECT store, SUM(1) FROM D GROUP BY store;",
      data_->catalog);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->size(), 2);
}

TEST_F(ParserTest, EmptyBatchRejected) {
  EXPECT_FALSE(ParseQueryBatch(" ;; ", data_->catalog).ok());
}

/// Full round trip: parsed batch evaluates to the same results as the
/// baseline over the materialized join.
TEST_F(ParserTest, ParsedBatchEvaluatesCorrectly) {
  auto batch = ParseQueryBatch(
      "SELECT SUM(units) FROM D;"
      "SELECT store, SUM(units * txns) FROM D GROUP BY store;"
      "SELECT class, SUM(1) FROM D WHERE promo = 1 GROUP BY class;",
      data_->catalog);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  Engine engine(&data_->catalog, &data_->tree, EngineOptions{});
  auto result = engine.Evaluate(*batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto joined = MaterializeJoin(data_->catalog, data_->tree, data_->sales);
  ASSERT_TRUE(joined.ok());
  auto baseline = EvaluateBatchSharedScan(*joined, *batch);
  ASSERT_TRUE(baseline.ok());
  for (size_t q = 0; q < baseline->size(); ++q) {
    EXPECT_TRUE(ResultsEquivalent(result->results[q], (*baseline)[q], 1e-9))
        << "query " << q;
  }
}

}  // namespace
}  // namespace lmfao
