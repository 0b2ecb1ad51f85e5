#include "storage/schema.h"

#include <algorithm>

namespace lmfao {

int RelationSchema::IndexOf(AttrId attr) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i] == attr) return static_cast<int>(i);
  }
  return -1;
}

std::vector<AttrId> SortedUnique(std::vector<AttrId> attrs) {
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

std::vector<AttrId> SetUnion(const std::vector<AttrId>& a,
                             const std::vector<AttrId>& b) {
  std::vector<AttrId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<AttrId> SetIntersection(const std::vector<AttrId>& a,
                                    const std::vector<AttrId>& b) {
  std::vector<AttrId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<AttrId> SetDifference(const std::vector<AttrId>& a,
                                  const std::vector<AttrId>& b) {
  std::vector<AttrId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool SetContains(const std::vector<AttrId>& sorted, AttrId attr) {
  return std::binary_search(sorted.begin(), sorted.end(), attr);
}

bool IsSubset(const std::vector<AttrId>& maybe_subset,
              const std::vector<AttrId>& sorted_superset) {
  return std::includes(sorted_superset.begin(), sorted_superset.end(),
                       maybe_subset.begin(), maybe_subset.end());
}

}  // namespace lmfao
