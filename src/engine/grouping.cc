#include "engine/grouping.h"

#include <algorithm>
#include <deque>
#include <map>

namespace lmfao {
namespace {

/// Sorted unique view-level dependencies of a view: the views it references.
std::vector<ViewId> ViewDependencies(const ViewInfo& view) {
  std::vector<ViewId> deps;
  for (const ViewAggregate& agg : view.aggregates) {
    for (const auto& [child, slot] : agg.child_refs) {
      (void)slot;
      deps.push_back(child);
    }
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

/// Builds group dependency edges from view-level references.
void ComputeGroupDependencies(const Workload& workload,
                              GroupedWorkload* grouped) {
  for (ViewGroup& g : grouped->groups) {
    std::vector<int> deps;
    for (ViewId out : g.outputs) {
      for (ViewId in : ViewDependencies(workload.view(out))) {
        const int producer = grouped->producer_group[static_cast<size_t>(in)];
        if (producer != g.id) deps.push_back(producer);
      }
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    g.depends_on = std::move(deps);
  }
}

/// Recomputes each group's incoming view list.
void ComputeIncoming(const Workload& workload, GroupedWorkload* grouped) {
  for (ViewGroup& g : grouped->groups) {
    std::vector<ViewId> incoming;
    for (ViewId out : g.outputs) {
      const auto deps = ViewDependencies(workload.view(out));
      incoming.insert(incoming.end(), deps.begin(), deps.end());
    }
    std::sort(incoming.begin(), incoming.end());
    incoming.erase(std::unique(incoming.begin(), incoming.end()),
                   incoming.end());
    g.incoming = std::move(incoming);
  }
}

/// True if `to` is reachable from `from` in the current group graph
/// following depends_on edges upstream... direction: group A "reaches" B if
/// A transitively depends on B.
bool Reaches(const GroupedWorkload& grouped, int from, int to) {
  if (from == to) return true;
  std::vector<bool> seen(grouped.groups.size(), false);
  std::deque<int> frontier{from};
  seen[static_cast<size_t>(from)] = true;
  while (!frontier.empty()) {
    const int g = frontier.front();
    frontier.pop_front();
    for (int dep : grouped.groups[static_cast<size_t>(g)].depends_on) {
      if (dep == to) return true;
      if (!seen[static_cast<size_t>(dep)]) {
        seen[static_cast<size_t>(dep)] = true;
        frontier.push_back(dep);
      }
    }
  }
  return false;
}

/// Renumbers groups to dense ids after merging.
void Renumber(GroupedWorkload* grouped) {
  std::vector<ViewGroup> dense;
  std::vector<int> remap(grouped->groups.size(), -1);
  for (ViewGroup& g : grouped->groups) {
    if (g.outputs.empty()) continue;  // Absorbed by a merge.
    remap[static_cast<size_t>(g.id)] = static_cast<int>(dense.size());
    g.id = static_cast<int>(dense.size());
    dense.push_back(std::move(g));
  }
  for (ViewGroup& g : dense) {
    for (int& dep : g.depends_on) dep = remap[static_cast<size_t>(dep)];
    std::sort(g.depends_on.begin(), g.depends_on.end());
    g.depends_on.erase(
        std::unique(g.depends_on.begin(), g.depends_on.end()),
        g.depends_on.end());
  }
  grouped->groups = std::move(dense);
  for (int& p : grouped->producer_group) {
    p = remap[static_cast<size_t>(p)];
  }
}

}  // namespace

StatusOr<GroupedWorkload> GroupViews(const Workload& workload,
                                     const Catalog& catalog,
                                     const GroupingOptions& options) {
  GroupedWorkload grouped;
  grouped.producer_group.assign(workload.views.size(), -1);

  if (!options.multi_output) {
    // Ablation: one group per view.
    for (const ViewInfo& v : workload.views) {
      ViewGroup g;
      g.id = static_cast<int>(grouped.groups.size());
      g.node = v.origin;
      g.outputs.push_back(v.id);
      grouped.producer_group[static_cast<size_t>(v.id)] = g.id;
      grouped.groups.push_back(std::move(g));
    }
    ComputeIncoming(workload, &grouped);
    ComputeGroupDependencies(workload, &grouped);
    return grouped;
  }

  // Initial groups: inner views keyed by (node, out-direction); all query
  // outputs rooted at a node share one initial group per node.
  std::map<std::pair<RelationId, RelationId>, int> initial;
  for (const ViewInfo& v : workload.views) {
    const RelationId direction =
        v.IsQueryOutput() ? kInvalidRelation : v.target;
    const auto key = std::make_pair(v.origin, direction);
    auto it = initial.find(key);
    int gid;
    if (it == initial.end()) {
      gid = static_cast<int>(grouped.groups.size());
      ViewGroup g;
      g.id = gid;
      g.node = v.origin;
      grouped.groups.push_back(std::move(g));
      initial.emplace(key, gid);
    } else {
      gid = it->second;
    }
    grouped.groups[static_cast<size_t>(gid)].outputs.push_back(v.id);
    grouped.producer_group[static_cast<size_t>(v.id)] = gid;
  }
  ComputeIncoming(workload, &grouped);
  ComputeGroupDependencies(workload, &grouped);

  // Greedy pairwise merging of groups at the same node, as long as neither
  // reaches the other through the dependency graph (which would create a
  // cycle once their outputs are computed in one pass). Nodes are processed
  // by decreasing relation size: sharing a scan of a big relation saves
  // more, and merging there first can (correctly) block conflicting merges
  // at small nodes.
  std::vector<RelationId> nodes;
  for (const ViewGroup& g : grouped.groups) nodes.push_back(g.node);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::stable_sort(nodes.begin(), nodes.end(),
                   [&catalog](RelationId a, RelationId b) {
                     return catalog.CommittedRows(a) >
                            catalog.CommittedRows(b);
                   });
  for (RelationId node : nodes) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < grouped.groups.size() && !changed; ++i) {
        ViewGroup& a = grouped.groups[i];
        if (a.outputs.empty() || a.node != node) continue;
        for (size_t j = i + 1; j < grouped.groups.size(); ++j) {
          ViewGroup& b = grouped.groups[j];
          if (b.outputs.empty() || b.node != node) continue;
          if (Reaches(grouped, a.id, b.id) || Reaches(grouped, b.id, a.id)) {
            continue;
          }
          // Merge b into a.
          for (ViewId v : b.outputs) {
            grouped.producer_group[static_cast<size_t>(v)] = a.id;
          }
          a.outputs.insert(a.outputs.end(), b.outputs.begin(),
                           b.outputs.end());
          b.outputs.clear();
          b.depends_on.clear();
          ComputeIncoming(workload, &grouped);
          ComputeGroupDependencies(workload, &grouped);
          changed = true;
          break;
        }
      }
    }
  }
  Renumber(&grouped);
  ComputeIncoming(workload, &grouped);
  ComputeGroupDependencies(workload, &grouped);
  return grouped;
}

}  // namespace lmfao
