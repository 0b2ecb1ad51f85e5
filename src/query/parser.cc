#include "query/parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/string_util.h"

namespace lmfao {
namespace {

/// Token kinds of the small dialect.
enum class TokenKind {
  kIdentifier,
  kNumber,
  kComma,
  kStar,
  kLParen,
  kRParen,
  kCaret,
  kComparison,  // <=, <, >=, >, =, ==, !=, <>
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  size_t offset = 0;
};

/// Renders a byte offset into `text` as 1-based "line L, column C" — raw
/// offsets are useless to a user once the statement spans multiple lines.
std::string AtPosition(const std::string& text, size_t offset) {
  size_t line = 1;
  size_t column = 1;
  for (size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return "line " + std::to_string(line) + ", column " + std::to_string(column);
}

/// What the parser actually saw, for "expected X, got Y" messages.
std::string TokenDesc(const Token& token) {
  if (token.kind == TokenKind::kEnd) return "end of input";
  if (!token.text.empty()) return "'" + token.text + "'";
  switch (token.kind) {
    case TokenKind::kComma:
      return "','";
    case TokenKind::kStar:
      return "'*'";
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kCaret:
      return "'^'";
    default:
      return "token";
  }
}

/// Hand-rolled tokenizer (the dialect is tiny).
class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < text_.size()) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      Token token;
      token.offset = i;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_')) {
          ++j;
        }
        token.kind = TokenKind::kIdentifier;
        token.text = text_.substr(i, j - i);
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
                 ((c == '-' || c == '+') && i + 1 < text_.size() &&
                  (std::isdigit(static_cast<unsigned char>(text_[i + 1])) ||
                   text_[i + 1] == '.'))) {
        size_t j = i + 1;
        while (j < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '.' || text_[j] == 'e' || text_[j] == 'E' ||
                ((text_[j] == '-' || text_[j] == '+') &&
                 (text_[j - 1] == 'e' || text_[j - 1] == 'E')))) {
          ++j;
        }
        token.kind = TokenKind::kNumber;
        token.text = text_.substr(i, j - i);
        i = j;
      } else {
        switch (c) {
          case ',':
            token.kind = TokenKind::kComma;
            ++i;
            break;
          case '*':
            token.kind = TokenKind::kStar;
            ++i;
            break;
          case '(':
            token.kind = TokenKind::kLParen;
            ++i;
            break;
          case ')':
            token.kind = TokenKind::kRParen;
            ++i;
            break;
          case '^':
            token.kind = TokenKind::kCaret;
            ++i;
            break;
          case '<':
          case '>':
          case '=':
          case '!': {
            size_t j = i + 1;
            if (j < text_.size() &&
                (text_[j] == '=' || (c == '<' && text_[j] == '>'))) {
              ++j;
            }
            token.kind = TokenKind::kComparison;
            token.text = text_.substr(i, j - i);
            i = j;
            if (token.text == "!" ) {
              return Status::InvalidArgument(
                  "stray '!' at " + AtPosition(text_, token.offset));
            }
            break;
          }
          default:
            return Status::InvalidArgument(
                std::string("unexpected character '") + c + "' at " +
                AtPosition(text_, i));
        }
      }
      out.push_back(std::move(token));
    }
    out.push_back(Token{TokenKind::kEnd, "", text_.size()});
    return out;
  }

 private:
  const std::string& text_;
};

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  Parser(const std::string& text, std::vector<Token> tokens,
         const Catalog& catalog, const FunctionRegistry& functions)
      : text_(text),
        tokens_(std::move(tokens)),
        catalog_(catalog),
        functions_(functions) {}

  StatusOr<Query> Parse() {
    Query query;
    LMFAO_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    // Select list: bare attributes (implicit group-bys) and SUM items.
    std::vector<AttrId> select_attrs;
    for (;;) {
      if (PeekKeyword("SUM")) {
        ++pos_;
        LMFAO_RETURN_NOT_OK(Expect(TokenKind::kLParen, "("));
        LMFAO_ASSIGN_OR_RETURN(Aggregate agg, ParseProduct());
        LMFAO_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
        query.aggregates.push_back(std::move(agg));
      } else {
        LMFAO_ASSIGN_OR_RETURN(AttrId attr, ParseAttribute());
        select_attrs.push_back(attr);
      }
      if (Peek().kind == TokenKind::kComma) {
        ++pos_;
        continue;
      }
      break;
    }
    LMFAO_RETURN_NOT_OK(ExpectKeyword("FROM"));
    LMFAO_ASSIGN_OR_RETURN(std::string from, ExpectIdentifier());
    if (ToLower(from) != "d") {
      return Status::InvalidArgument(
          "queries range over the join D; got FROM " + from);
    }
    // Optional WHERE with AND-ed comparisons -> indicator factors.
    std::vector<Factor> conditions;
    if (PeekKeyword("WHERE")) {
      ++pos_;
      for (;;) {
        LMFAO_ASSIGN_OR_RETURN(Factor cond, ParseComparison());
        conditions.push_back(std::move(cond));
        if (PeekKeyword("AND")) {
          ++pos_;
          continue;
        }
        break;
      }
    }
    // Optional GROUP BY.
    if (PeekKeyword("GROUP")) {
      ++pos_;
      LMFAO_RETURN_NOT_OK(ExpectKeyword("BY"));
      for (;;) {
        LMFAO_ASSIGN_OR_RETURN(AttrId attr, ParseAttribute());
        query.group_by.push_back(attr);
        if (Peek().kind == TokenKind::kComma) {
          ++pos_;
          continue;
        }
        break;
      }
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("trailing input starting with " +
                                     TokenDesc(Peek()) + " at " + Here());
    }
    // Bare select attributes must be grouped by (SQL semantics).
    for (AttrId attr : select_attrs) {
      if (!SetContains(SortedUnique(query.group_by), attr)) {
        query.group_by.push_back(attr);
      }
    }
    if (query.aggregates.empty()) {
      query.aggregates.push_back(Aggregate::Count());
    }
    // Fold WHERE conditions into every aggregate.
    if (!conditions.empty()) {
      for (Aggregate& agg : query.aggregates) {
        std::vector<Factor> factors = agg.factors();
        factors.insert(factors.end(), conditions.begin(), conditions.end());
        agg = Aggregate(std::move(factors));
      }
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }

  /// Position of the current token, as "line L, column C".
  std::string Here() const { return AtPosition(text_, Peek().offset); }

  bool PeekKeyword(const char* keyword) const {
    return Peek().kind == TokenKind::kIdentifier &&
           ToLower(Peek().text) == ToLower(keyword);
  }

  Status ExpectKeyword(const char* keyword) {
    if (!PeekKeyword(keyword)) {
      return Status::InvalidArgument(std::string("expected ") + keyword +
                                     " at " + Here() + ", got " +
                                     TokenDesc(Peek()));
    }
    ++pos_;
    return Status::OK();
  }

  Status Expect(TokenKind kind, const char* what) {
    if (Peek().kind != kind) {
      return Status::InvalidArgument(std::string("expected ") + what + " at " +
                                     Here() + ", got " + TokenDesc(Peek()));
    }
    ++pos_;
    return Status::OK();
  }

  StatusOr<std::string> ExpectIdentifier() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected identifier at " + Here() +
                                     ", got " + TokenDesc(Peek()));
    }
    return tokens_[pos_++].text;
  }

  StatusOr<AttrId> ParseAttribute() {
    const std::string at = Here();
    LMFAO_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    auto id = catalog_.AttrIdOf(name);
    if (!id.ok()) {
      return Status::InvalidArgument("unknown attribute '" + name + "' at " +
                                     at);
    }
    return *id;
  }

  StatusOr<double> ParseNumber() {
    if (Peek().kind != TokenKind::kNumber) {
      return Status::InvalidArgument("expected number at " + Here() +
                                     ", got " + TokenDesc(Peek()));
    }
    // The lexer takes any run of digits, '.', exponents and signs; the
    // literal is well formed only if strtod consumes all of it.
    const std::string& text = Peek().text;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) {
      return Status::InvalidArgument("malformed number '" + text + "' at " +
                                     Here());
    }
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("number '" + text +
                                     "' is out of range at " + Here());
    }
    ++pos_;
    return value;
  }

  static StatusOr<FunctionKind> ComparisonOp(const std::string& op) {
    if (op == "<=") return FunctionKind::kIndicatorLe;
    if (op == "<") return FunctionKind::kIndicatorLt;
    if (op == ">=") return FunctionKind::kIndicatorGe;
    if (op == ">") return FunctionKind::kIndicatorGt;
    if (op == "=" || op == "==") return FunctionKind::kIndicatorEq;
    if (op == "!=" || op == "<>") return FunctionKind::kIndicatorNe;
    return Status::InvalidArgument("unknown comparison: " + op);
  }

  /// attr op number (used by WHERE and parenthesized factors).
  StatusOr<Factor> ParseComparison() {
    LMFAO_ASSIGN_OR_RETURN(AttrId attr, ParseAttribute());
    if (Peek().kind != TokenKind::kComparison) {
      return Status::InvalidArgument("expected comparison at " + Here() +
                                     ", got " + TokenDesc(Peek()));
    }
    LMFAO_ASSIGN_OR_RETURN(FunctionKind op, ComparisonOp(tokens_[pos_].text));
    ++pos_;
    LMFAO_ASSIGN_OR_RETURN(double threshold, ParseNumber());
    return Factor{attr, Function::Indicator(op, threshold)};
  }

  /// Product of factors inside SUM(...).
  StatusOr<Aggregate> ParseProduct() {
    std::vector<Factor> factors;
    for (;;) {
      if (Peek().kind == TokenKind::kNumber) {
        // Only the literal 1 (the count) is allowed as a standalone factor.
        if (StripWhitespace(Peek().text) != "1") {
          return Status::InvalidArgument(
              "only the constant 1 is allowed inside SUM; got " + Peek().text +
              " at " + Here());
        }
        ++pos_;
      } else if (Peek().kind == TokenKind::kLParen) {
        ++pos_;
        LMFAO_ASSIGN_OR_RETURN(Factor cond, ParseComparison());
        LMFAO_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
        factors.push_back(std::move(cond));
      } else if (Peek().kind == TokenKind::kIdentifier) {
        const std::string name = Peek().text;
        // Dictionary call?
        auto fn = functions_.find(name);
        if (fn != functions_.end() &&
            tokens_[pos_ + 1].kind == TokenKind::kLParen) {
          pos_ += 2;
          LMFAO_ASSIGN_OR_RETURN(AttrId attr, ParseAttribute());
          LMFAO_RETURN_NOT_OK(Expect(TokenKind::kRParen, ")"));
          factors.push_back(Factor{attr, Function::Dictionary(fn->second)});
        } else {
          LMFAO_ASSIGN_OR_RETURN(AttrId attr, ParseAttribute());
          if (Peek().kind == TokenKind::kCaret) {
            ++pos_;
            const std::string at = Here();
            LMFAO_ASSIGN_OR_RETURN(double power, ParseNumber());
            if (power != 2.0) {
              return Status::InvalidArgument("only ^2 is supported, at " + at);
            }
            factors.push_back(Factor{attr, Function::Square()});
          } else {
            factors.push_back(Factor{attr, Function::Identity()});
          }
        }
      } else {
        return Status::InvalidArgument("expected factor at " + Here() +
                                       ", got " + TokenDesc(Peek()));
      }
      if (Peek().kind == TokenKind::kStar) {
        ++pos_;
        continue;
      }
      break;
    }
    return Aggregate(std::move(factors));
  }

  const std::string& text_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const Catalog& catalog_;
  const FunctionRegistry& functions_;
};

}  // namespace

StatusOr<Query> ParseQuery(const std::string& text, const Catalog& catalog,
                           const FunctionRegistry& functions) {
  Lexer lexer(text);
  LMFAO_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(text, std::move(tokens), catalog, functions);
  return parser.Parse();
}

StatusOr<QueryBatch> ParseQueryBatch(const std::string& text,
                                     const Catalog& catalog,
                                     const FunctionRegistry& functions) {
  QueryBatch batch;
  size_t statement_index = 0;
  for (const std::string& statement : SplitString(text, ';')) {
    const std::string_view stripped = StripWhitespace(statement);
    if (stripped.empty()) continue;
    ++statement_index;
    StatusOr<Query> q = ParseQuery(std::string(stripped), catalog, functions);
    if (!q.ok()) {
      // Line/column in the message is relative to this statement; say which
      // one so the position is actionable in multi-statement input.
      return Status::InvalidArgument(
          "statement " + std::to_string(statement_index) + ": " +
          std::string(q.status().message()));
    }
    q->name = "q" + std::to_string(batch.size());
    batch.Add(*std::move(q));
  }
  if (batch.empty()) {
    return Status::InvalidArgument("no queries in input");
  }
  return batch;
}

}  // namespace lmfao
