/// \file schema.h
/// \brief Attribute and relation schemas.

#ifndef LMFAO_STORAGE_SCHEMA_H_
#define LMFAO_STORAGE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/types.h"
#include "util/status.h"

namespace lmfao {

/// \brief Metadata of one attribute in the global namespace.
struct AttrInfo {
  AttrId id = kInvalidAttr;
  std::string name;
  AttrType type = AttrType::kInt;
  /// Estimated number of distinct values; a *cardinality constraint* used by
  /// the root-assignment heuristic and by data-structure selection. Zero
  /// means unknown.
  int64_t domain_size = 0;
};

/// \brief Inclusive [min, max] of an int attribute's committed values (the
/// box a direct-addressed view covers). Unknown when min > max.
struct ValueRange {
  int64_t min = 1;
  int64_t max = 0;

  bool known() const { return min <= max; }
};

/// \brief Ordered list of attribute ids forming a relation's schema.
class RelationSchema {
 public:
  RelationSchema() = default;
  explicit RelationSchema(std::vector<AttrId> attrs)
      : attrs_(std::move(attrs)) {}

  int arity() const { return static_cast<int>(attrs_.size()); }
  const std::vector<AttrId>& attrs() const { return attrs_; }
  AttrId attr(int i) const { return attrs_[static_cast<size_t>(i)]; }

  /// Position of `attr` in this schema, or -1.
  int IndexOf(AttrId attr) const;

  /// True if `attr` occurs in this schema.
  bool Contains(AttrId attr) const { return IndexOf(attr) >= 0; }

 private:
  std::vector<AttrId> attrs_;
};

/// \brief Sorted-set helpers over attribute id vectors, used throughout the
/// view-generation layer (group-by sets, separators).
/// @{
std::vector<AttrId> SortedUnique(std::vector<AttrId> attrs);
std::vector<AttrId> SetUnion(const std::vector<AttrId>& a,
                             const std::vector<AttrId>& b);
std::vector<AttrId> SetIntersection(const std::vector<AttrId>& a,
                                    const std::vector<AttrId>& b);
std::vector<AttrId> SetDifference(const std::vector<AttrId>& a,
                                  const std::vector<AttrId>& b);
bool SetContains(const std::vector<AttrId>& sorted, AttrId attr);
bool IsSubset(const std::vector<AttrId>& maybe_subset,
              const std::vector<AttrId>& sorted_superset);
/// @}

}  // namespace lmfao

#endif  // LMFAO_STORAGE_SCHEMA_H_
