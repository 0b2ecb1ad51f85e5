#include "engine/attribute_order.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string>

namespace lmfao {

namespace {

/// The cost model's inputs for one group. Attribute i of the model is
/// attrs_[i] (ascending AttrId); a set of attributes is a bit mask over i.
class OrderModel {
 public:
  static StatusOr<OrderModel> Make(const Workload& workload,
                                   const ViewGroup& group,
                                   const Catalog& catalog) {
    // The trie is built over the *node relation's* join attributes only
    // (Section 2: "a total order on the join attributes of the node
    // relation"). Attributes carried by incoming views but absent from the
    // relation (group-by attributes travelling towards their root) are not
    // levels: the executor iterates the views' matching entry ranges.
    const std::vector<AttrId>& rel_attrs =
        SortedUnique(catalog.relation(group.node).schema().attrs());
    std::vector<const ViewInfo*> views;
    for (ViewId v : group.incoming) views.push_back(&workload.view(v));
    for (ViewId v : group.outputs) views.push_back(&workload.view(v));

    OrderModel model;
    for (const ViewInfo* info : views) {
      for (AttrId a : info->key) {
        if (SetContains(rel_attrs, a)) model.attrs_.push_back(a);
      }
    }
    model.attrs_ = SortedUnique(std::move(model.attrs_));
    if (model.size() > kMaxTrieAttrs) {
      return Status::InvalidArgument(
          "group over " + catalog.relation(group.node).name() + " has " +
          std::to_string(model.size()) + " trie attributes; at most " +
          std::to_string(kMaxTrieAttrs) + " are supported");
    }
    model.rows_ = static_cast<int64_t>(catalog.CommittedRows(group.node));
    for (AttrId a : model.attrs_) {
      const AttrInfo& info = catalog.attr(a);
      if (info.type != AttrType::kInt) {
        return Status::InvalidArgument("trie attribute " + info.name +
                                       " must be int-typed");
      }
      const int64_t d = info.domain_size;
      model.domain_.push_back(d <= 0 || d > model.rows_ ? model.rows_ : d);
    }

    // Views binding at the same level add their widths, so only the total
    // width per key mask matters.
    std::map<uint32_t, int64_t> width_of_mask;
    for (const ViewInfo* info : views) {
      uint32_t mask = 0;
      for (AttrId a : info->key) {
        const int i = model.IndexOf(a);
        if (i >= 0) mask |= uint32_t{1} << i;
      }
      if (mask != 0) {
        width_of_mask[mask] += static_cast<int64_t>(info->aggregates.size());
      }
    }
    model.widths_.assign(width_of_mask.begin(), width_of_mask.end());
    return model;
  }

  int size() const { return static_cast<int>(attrs_.size()); }
  const std::vector<AttrId>& attrs() const { return attrs_; }

  int IndexOf(AttrId a) const {
    auto it = std::lower_bound(attrs_.begin(), attrs_.end(), a);
    return it != attrs_.end() && *it == a
               ? static_cast<int>(it - attrs_.begin())
               : -1;
  }

  /// N of the set `placed` plus attribute i, where N(placed) = `nodes`.
  int64_t Grow(int64_t nodes, int i) const {
    const int64_t d = domain_[static_cast<size_t>(i)];
    if (d != 0 && nodes > rows_ / d) return rows_;
    return std::min(rows_, nodes * d);
  }

  /// Cost of the level that places attribute i below the rest of `set`,
  /// whose N is `nodes`: the views binding there are those whose key mask
  /// holds i and lies within `set`.
  int64_t LevelCost(int64_t nodes, uint32_t set, int i) const {
    int64_t width = 0;
    for (const auto& [mask, w] : widths_) {
      if ((mask >> i & 1) != 0 && (mask & ~set) == 0) width += w;
    }
    return nodes * (1 + width);
  }

 private:
  std::vector<AttrId> attrs_;
  std::vector<int64_t> domain_;  ///< d(attrs_[i]), capped at rows_.
  int64_t rows_ = 0;             ///< |R|.
  std::vector<std::pair<uint32_t, int64_t>> widths_;  ///< (key mask, width).
};

}  // namespace

StatusOr<std::vector<AttrId>> ComputeAttributeOrder(
    const Workload& workload, const ViewGroup& group,
    const Catalog& catalog) {
  LMFAO_ASSIGN_OR_RETURN(OrderModel model,
                         OrderModel::Make(workload, group, catalog));
  const int n = model.size();
  const uint32_t full = (uint32_t{1} << n) - 1;
  std::vector<int64_t> nodes(size_t{full} + 1, 1);
  for (uint32_t t = 1; t <= full; ++t) {
    nodes[t] = model.Grow(nodes[t & (t - 1)], __builtin_ctz(t));
  }
  auto level_cost = [&](uint32_t t, int i) {
    return model.LevelCost(nodes[t], t, i);
  };
  // rest[s]: the least cost of the levels below a prefix placing set s.
  std::vector<int64_t> rest(size_t{full} + 1, 0);
  for (uint32_t s = full; s-- > 0;) {
    int64_t best = std::numeric_limits<int64_t>::max();
    for (int i = 0; i < n; ++i) {
      const uint32_t t = s | (uint32_t{1} << i);
      if (t != s) best = std::min(best, level_cost(t, i) + rest[t]);
    }
    rest[s] = best;
  }
  // Walk down from the root taking the smallest AttrId that keeps the
  // least cost: the lexicographically smallest optimal sequence.
  std::vector<AttrId> order;
  for (uint32_t s = 0; s != full;) {
    for (int i = 0; i < n; ++i) {
      const uint32_t t = s | (uint32_t{1} << i);
      if (t != s && level_cost(t, i) + rest[t] == rest[s]) {
        order.push_back(model.attrs()[static_cast<size_t>(i)]);
        s = t;
        break;
      }
    }
  }
  return order;
}

StatusOr<int64_t> EstimateOrderCost(const Workload& workload,
                                    const ViewGroup& group,
                                    const Catalog& catalog,
                                    const std::vector<AttrId>& order) {
  LMFAO_ASSIGN_OR_RETURN(OrderModel model,
                         OrderModel::Make(workload, group, catalog));
  std::vector<AttrId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  if (sorted != model.attrs()) {
    return Status::InvalidArgument(
        "order is not a permutation of the group's trie attributes");
  }
  uint32_t set = 0;
  int64_t nodes = 1;
  int64_t cost = 0;
  for (AttrId a : order) {
    const int i = model.IndexOf(a);
    set |= uint32_t{1} << i;
    nodes = model.Grow(nodes, i);
    cost += model.LevelCost(nodes, set, i);
  }
  return cost;
}

}  // namespace lmfao
