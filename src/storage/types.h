/// \file types.h
/// \brief Value types of the relational substrate.
///
/// LMFAO distinguishes two physical types: 64-bit integers (categorical
/// attributes, keys, group-by attributes) and doubles (continuous
/// attributes). A Value is a tagged scalar used at API boundaries; hot loops
/// operate directly on typed column storage.

#ifndef LMFAO_STORAGE_TYPES_H_
#define LMFAO_STORAGE_TYPES_H_

#include <cstdint>
#include <string>

#include "util/logging.h"
#include "util/status.h"

namespace lmfao {

/// \brief Physical type of an attribute.
enum class AttrType : uint8_t {
  /// 64-bit signed integer; the only type allowed in group-by clauses and
  /// join keys.
  kInt = 0,
  /// IEEE double; continuous attributes used inside aggregate functions.
  kDouble = 1,
};

/// \brief Stable name for an attribute type ("int" / "double").
const char* AttrTypeName(AttrType type);

/// \brief A scalar value tagged with its type.
class Value {
 public:
  Value() : type_(AttrType::kInt), int_(0) {}
  static Value Int(int64_t v) {
    Value out;
    out.type_ = AttrType::kInt;
    out.int_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = AttrType::kDouble;
    out.double_ = v;
    return out;
  }

  AttrType type() const { return type_; }

  int64_t AsInt() const {
    LMFAO_CHECK(type_ == AttrType::kInt);
    return int_;
  }
  double AsDouble() const {
    return type_ == AttrType::kDouble ? double_ : static_cast<double>(int_);
  }

  /// Numeric comparison after promoting ints to double when types differ.
  bool operator==(const Value& o) const {
    if (type_ == o.type_) {
      return type_ == AttrType::kInt ? int_ == o.int_ : double_ == o.double_;
    }
    return AsDouble() == o.AsDouble();
  }

  std::string ToString() const;

 private:
  AttrType type_;
  union {
    int64_t int_;
    double double_;
  };
};

/// \brief Identifier of an attribute in the global catalog namespace.
///
/// Natural-join semantics: attributes with the same id in different
/// relations are equated by the join.
using AttrId = int32_t;

/// \brief Identifier of a relation in the catalog.
using RelationId = int32_t;

inline constexpr AttrId kInvalidAttr = -1;
inline constexpr RelationId kInvalidRelation = -1;

}  // namespace lmfao

#endif  // LMFAO_STORAGE_TYPES_H_
