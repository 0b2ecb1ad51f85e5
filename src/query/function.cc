#include "query/function.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace lmfao {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Hash of a dictionary's content: its default value and its entries in
/// key order, so equal tables hash equally wherever they were allocated.
uint64_t DictContentHash(const FunctionDict& dict) {
  std::vector<std::pair<int64_t, double>> entries(dict.table.begin(),
                                                  dict.table.end());
  std::sort(entries.begin(), entries.end());
  uint64_t h = HashCombine(Mix64(entries.size()),
                           DoubleBits(dict.default_value));
  for (const auto& [key, value] : entries) {
    h = HashCombine(h, static_cast<uint64_t>(key));
    h = HashCombine(h, DoubleBits(value));
  }
  return h;
}

}  // namespace

Function Function::Identity() {
  return Function(FunctionKind::kIdentity, 0.0, nullptr);
}

Function Function::Square() {
  return Function(FunctionKind::kSquare, 0.0, nullptr);
}

Function Function::Dictionary(std::shared_ptr<const FunctionDict> dict) {
  LMFAO_CHECK(dict != nullptr);
  Function f(FunctionKind::kDictionary, 0.0, std::move(dict));
  f.dict_hash_ = DictContentHash(*f.dict_);
  return f;
}

Function Function::Indicator(FunctionKind op, double threshold) {
  LMFAO_CHECK(op == FunctionKind::kIndicatorLe || op == FunctionKind::kIndicatorLt ||
              op == FunctionKind::kIndicatorGe || op == FunctionKind::kIndicatorGt ||
              op == FunctionKind::kIndicatorEq || op == FunctionKind::kIndicatorNe);
  return Function(op, threshold, nullptr);
}

Function Function::IndicatorParam(FunctionKind op, ParamId param) {
  LMFAO_CHECK(op == FunctionKind::kIndicatorLe || op == FunctionKind::kIndicatorLt ||
              op == FunctionKind::kIndicatorGe || op == FunctionKind::kIndicatorGt ||
              op == FunctionKind::kIndicatorEq || op == FunctionKind::kIndicatorNe);
  LMFAO_CHECK_GE(param, 0);
  // The stored threshold of an unbound slot is NaN so an accidental
  // unresolved evaluation can never masquerade as a real indicator.
  return Function(op, std::numeric_limits<double>::quiet_NaN(), nullptr,
                  param);
}

Function Function::Resolve(const ParamPack& params) const {
  if (param_ == kNoParam) return *this;
  return Function(kind_, ResolvedThreshold(&params), dict_);
}

double Function::Eval(double x) const {
  LMFAO_CHECK(param_ == kNoParam)
      << "Eval on parameterized function; Resolve() it first";
  switch (kind_) {
    case FunctionKind::kIdentity:
      return x;
    case FunctionKind::kSquare:
      return x * x;
    case FunctionKind::kDictionary: {
      const auto it = dict_->table.find(static_cast<int64_t>(std::llround(x)));
      return it == dict_->table.end() ? dict_->default_value : it->second;
    }
    case FunctionKind::kIndicatorLe:
      return x <= threshold_ ? 1.0 : 0.0;
    case FunctionKind::kIndicatorLt:
      return x < threshold_ ? 1.0 : 0.0;
    case FunctionKind::kIndicatorGe:
      return x >= threshold_ ? 1.0 : 0.0;
    case FunctionKind::kIndicatorGt:
      return x > threshold_ ? 1.0 : 0.0;
    case FunctionKind::kIndicatorEq:
      return x == threshold_ ? 1.0 : 0.0;
    case FunctionKind::kIndicatorNe:
      return x != threshold_ ? 1.0 : 0.0;
  }
  return 0.0;
}

bool Function::operator==(const Function& o) const {
  if (kind_ != o.kind_) return false;
  if (param_ != o.param_) return false;
  if (kind_ == FunctionKind::kDictionary) {
    if (dict_ == o.dict_) return true;
    return dict_hash_ == o.dict_hash_ && dict_->name == o.dict_->name &&
           dict_->default_value == o.dict_->default_value &&
           dict_->table == o.dict_->table;
  }
  // Parameterized functions are equal by slot alone (their stored
  // thresholds are NaN placeholders).
  if (param_ != kNoParam) return true;
  return threshold_ == o.threshold_;
}

uint64_t Function::Signature() const {
  uint64_t h = Mix64(static_cast<uint64_t>(kind_) + 0x51ed2701);
  if (kind_ == FunctionKind::kDictionary) {
    h = HashCombine(h, dict_hash_);
  } else if (param_ != kNoParam) {
    // Slot identity, distinctly salted so p0 never collides with a
    // literal threshold of 0.
    h = HashCombine(h, Mix64(static_cast<uint64_t>(param_) + 0x9e3779b9));
  } else {
    h = HashCombine(h, DoubleBits(threshold_));
  }
  return h;
}

bool Function::IsIndicator() const {
  switch (kind_) {
    case FunctionKind::kIndicatorLe:
    case FunctionKind::kIndicatorLt:
    case FunctionKind::kIndicatorGe:
    case FunctionKind::kIndicatorGt:
    case FunctionKind::kIndicatorEq:
    case FunctionKind::kIndicatorNe:
      return true;
    default:
      return false;
  }
}

namespace {
const char* IndicatorOp(FunctionKind kind) {
  switch (kind) {
    case FunctionKind::kIndicatorLe:
      return "<=";
    case FunctionKind::kIndicatorLt:
      return "<";
    case FunctionKind::kIndicatorGe:
      return ">=";
    case FunctionKind::kIndicatorGt:
      return ">";
    case FunctionKind::kIndicatorEq:
      return "==";
    case FunctionKind::kIndicatorNe:
      return "!=";
    default:
      return "?";
  }
}
}  // namespace

std::string Function::ToString() const {
  switch (kind_) {
    case FunctionKind::kIdentity:
      return "id";
    case FunctionKind::kSquare:
      return "sq";
    case FunctionKind::kDictionary:
      return dict_->name + "[·]";
    default: {
      std::ostringstream out;
      out << "(x" << IndicatorOp(kind_);
      if (param_ != kNoParam) {
        out << "?p" << param_;
      } else {
        out << threshold_;
      }
      out << ")";
      return out.str();
    }
  }
}

}  // namespace lmfao
