#include "engine/plan.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "util/hash.h"

namespace lmfao {

uint64_t PlanPart::Signature() const {
  uint64_t h = Mix64(static_cast<uint64_t>(level) + 0xabcdef);
  switch (kind) {
    case Kind::kFactor:
      h = HashCombine(h, factor.Signature());
      break;
    case Kind::kViewPayload:
      h = HashCombine(h, Mix64(0x1111 + static_cast<uint64_t>(view_index)));
      h = HashCombine(h, static_cast<uint64_t>(slot));
      break;
    case Kind::kViewRangeSum:
      h = HashCombine(h, Mix64(0x2222 + static_cast<uint64_t>(view_index)));
      h = HashCombine(h, static_cast<uint64_t>(slot));
      break;
  }
  return h;
}

namespace {

/// Canonical ordering of parts within a level (for signature stability).
void SortParts(std::vector<PlanPart>* parts) {
  std::sort(parts->begin(), parts->end(),
            [](const PlanPart& a, const PlanPart& b) {
              return a.Signature() < b.Signature();
            });
}

uint64_t PartsSignature(const std::vector<PlanPart>& parts) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const PlanPart& p : parts) h = HashCombine(h, p.Signature());
  return h;
}

uint64_t LeafSumSignature(
    const std::vector<std::pair<int, Function>>& factors) {
  uint64_t h = 0x1234567887654321ULL;
  for (const auto& [col, fn] : factors) {
    h = HashCombine(h, Mix64(static_cast<uint64_t>(col)));
    h = HashCombine(h, fn.Signature());
  }
  return h;
}

/// Builder for one group's register program.
class PlanBuilder {
 public:
  PlanBuilder(const Workload& workload, const ViewGroup& group,
              const Catalog& catalog, const std::vector<AttrId>& attr_order,
              const PlanOptions& options)
      : workload_(workload),
        group_(group),
        catalog_(catalog),
        options_(options) {
    plan_.node = group.node;
    plan_.group_id = group.id;
    plan_.factorized = options.factorize;
    plan_.attr_order = attr_order;
  }

  StatusOr<GroupPlan> Build() {
    LMFAO_RETURN_NOT_OK(BuildLevels());
    LMFAO_RETURN_NOT_OK(BuildIncoming());
    LMFAO_RETURN_NOT_OK(BuildOutputs());
    return std::move(plan_);
  }

 private:
  int LevelOf(AttrId attr) const {
    for (size_t i = 0; i < plan_.attr_order.size(); ++i) {
      if (plan_.attr_order[i] == attr) return static_cast<int>(i) + 1;
    }
    return 0;
  }

  Status BuildLevels() {
    const Relation& rel = catalog_.relation(group_.node);
    const int levels = plan_.num_levels();
    plan_.level_column.resize(static_cast<size_t>(levels));
    for (int i = 0; i < levels; ++i) {
      const int col = rel.ColumnIndex(plan_.attr_order[static_cast<size_t>(i)]);
      if (col < 0) {
        return Status::Internal("trie attribute not in node relation");
      }
      plan_.level_column[static_cast<size_t>(i)] = col;
    }
    plan_.alphas_at_level.assign(static_cast<size_t>(levels) + 1, {});
    plan_.betas_at_level.assign(static_cast<size_t>(levels) + 1, {});
    plan_.writes_at_level.assign(static_cast<size_t>(levels) + 1, {});
    return Status::OK();
  }

  Status BuildIncoming() {
    for (ViewId v : group_.incoming) {
      const ViewInfo& info = workload_.view(v);
      GroupPlan::IncomingView in;
      in.view = v;
      in.width = static_cast<int>(info.aggregates.size());
      std::vector<std::pair<int, int>> rel_comps;   // (level, canonical pos)
      std::vector<std::pair<AttrId, int>> extras;   // (attr, canonical pos)
      for (size_t i = 0; i < info.key.size(); ++i) {
        const int level = LevelOf(info.key[i]);
        if (level > 0) {
          rel_comps.emplace_back(level, static_cast<int>(i));
        } else {
          extras.emplace_back(info.key[i], static_cast<int>(i));
        }
      }
      std::sort(rel_comps.begin(), rel_comps.end());
      std::sort(extras.begin(), extras.end());
      for (const auto& [level, pos] : rel_comps) {
        in.key_levels.push_back(level);
        in.key_perm.push_back(pos);
        in.bound_level = std::max(in.bound_level, level);
      }
      for (const auto& [attr, pos] : extras) {
        (void)attr;
        in.extra_perm.push_back(pos);
      }
      in.consumed_perm = in.key_perm;
      in.consumed_perm.insert(in.consumed_perm.end(), in.extra_perm.begin(),
                              in.extra_perm.end());
      in.identity_perm = true;
      for (size_t i = 0; i < in.consumed_perm.size(); ++i) {
        if (in.consumed_perm[i] != static_cast<int>(i)) {
          in.identity_perm = false;
        }
      }
      incoming_index_[v] = static_cast<int>(plan_.incoming.size());
      plan_.incoming.push_back(std::move(in));
    }
    return Status::OK();
  }

  /// Union of views referenced by any aggregate slot of `info`.
  std::vector<int> ViewsOf(const ViewInfo& info) const {
    std::vector<int> out;
    for (const ViewAggregate& agg : info.aggregates) {
      for (const auto& [child, slot] : agg.child_refs) {
        (void)slot;
        out.push_back(incoming_index_.at(child));
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  Status BuildOutputs() {
    const Relation& rel = catalog_.relation(group_.node);
    for (ViewId v : group_.outputs) {
      const ViewInfo& info = workload_.view(v);
      GroupPlan::OutputInfo out;
      out.view = v;
      out.width = static_cast<int>(info.aggregates.size());
      const std::vector<int> own_views = ViewsOf(info);

      // Key sources: bound levels for relation attributes, entry components
      // of the output's own multi-entry views otherwise.
      for (AttrId a : info.key) {
        const int level = LevelOf(a);
        GroupPlan::KeySource src;
        if (level > 0) {
          src.from_level = true;
          src.level = level;
          out.write_level = std::max(out.write_level, level);
        } else {
          src.from_level = false;
          bool found = false;
          for (int vi : own_views) {
            const auto& in = plan_.incoming[static_cast<size_t>(vi)];
            const ViewInfo& vinfo = workload_.view(in.view);
            for (size_t e = 0; e < in.extra_perm.size(); ++e) {
              if (vinfo.key[static_cast<size_t>(in.extra_perm[e])] == a) {
                src.view_index = vi;
                src.comp = static_cast<int>(in.key_perm.size() + e);
                found = true;
                break;
              }
            }
            if (found) break;
          }
          if (!found) {
            return Status::Internal(
                "output key attribute " + catalog_.attr(a).name +
                " is neither a relation attribute nor carried by one of the "
                "output's views");
          }
          if (std::find(out.key_views.begin(), out.key_views.end(),
                        src.view_index) == out.key_views.end()) {
            out.key_views.push_back(src.view_index);
          }
        }
        out.key_sources.push_back(src);
      }
      std::sort(out.key_views.begin(), out.key_views.end());
      for (int vi : out.key_views) {
        out.write_level = std::max(
            out.write_level,
            plan_.incoming[static_cast<size_t>(vi)].bound_level);
      }
      out.estimated_entries = EstimateEntries(info.key);
      const int out_index = static_cast<int>(plan_.outputs.size());
      plan_.outputs.push_back(out);

      for (int slot = 0; slot < out.width; ++slot) {
        LMFAO_RETURN_NOT_OK(LowerAggregateSlot(
            rel, out_index, slot, info.aggregates[static_cast<size_t>(slot)]));
      }
    }
    return Status::OK();
  }

  /// Cardinality estimate of an output from the catalog's domain sizes:
  /// the product of the key attributes' domain sizes, capped by the node
  /// relation's committed rows and by kMaxEstimatedEntries. For keys
  /// spanning other relations the row cap is not a strict bound on the
  /// output, but the estimate only sizes a preallocation: under-reserving
  /// merely costs a few rehashes while over-reserving wastes real memory
  /// (Reserve has no shrink path and the capacity is charged to peak view
  /// bytes). Returns 0 when unknown.
  size_t EstimateEntries(const std::vector<AttrId>& key) const {
    static constexpr size_t kMaxEstimatedEntries = size_t{1} << 18;
    if (key.empty()) return 1;
    size_t product = 1;
    for (AttrId a : key) {
      const int64_t domain = catalog_.attr(a).domain_size;
      if (domain <= 0) return 0;
      if (product > kMaxEstimatedEntries / static_cast<size_t>(domain)) {
        product = kMaxEstimatedEntries;
        break;
      }
      product *= static_cast<size_t>(domain);
    }
    return std::min(
        {product, catalog_.CommittedRows(group_.node), kMaxEstimatedEntries});
  }

  /// Splits one aggregate slot into parts and entry payloads, then into
  /// head/tail registers (factorized) or a per-tuple leaf write (ablation).
  Status LowerAggregateSlot(const Relation& rel, int out_index, int slot,
                            const ViewAggregate& agg) {
    const GroupPlan::OutputInfo& out =
        plan_.outputs[static_cast<size_t>(out_index)];
    const int write_level = out.write_level;

    std::vector<PlanPart> parts;
    std::vector<std::pair<int, Function>> leaf_factors;
    for (const Factor& f : agg.local_factors) {
      const int level = LevelOf(f.attr);
      if (level > 0) {
        PlanPart p;
        p.kind = PlanPart::Kind::kFactor;
        p.factor = f;
        p.level = level;
        parts.push_back(p);
      } else {
        const int col = rel.ColumnIndex(f.attr);
        if (col < 0) {
          return Status::Internal("local factor attribute " +
                                  catalog_.attr(f.attr).name +
                                  " not in node relation " + rel.name());
        }
        leaf_factors.emplace_back(col, f.fn);
      }
    }
    // Child references: entry payloads for the output's key views,
    // range sums for other multi-entry views, plain payload parts otherwise.
    std::vector<int> entry_slots(out.key_views.size(), -1);
    for (const auto& [child, child_slot] : agg.child_refs) {
      auto it = incoming_index_.find(child);
      if (it == incoming_index_.end()) {
        return Status::Internal("child view not in group incoming list");
      }
      const int vi = it->second;
      const auto& in = plan_.incoming[static_cast<size_t>(vi)];
      const auto kv =
          std::find(out.key_views.begin(), out.key_views.end(), vi);
      if (kv != out.key_views.end()) {
        entry_slots[static_cast<size_t>(kv - out.key_views.begin())] =
            child_slot;
        continue;
      }
      PlanPart p;
      p.kind = in.IsMultiEntry() ? PlanPart::Kind::kViewRangeSum
                                 : PlanPart::Kind::kViewPayload;
      p.view_index = vi;
      p.slot = child_slot;
      p.level = in.bound_level;
      if (p.kind == PlanPart::Kind::kViewRangeSum) {
        p.range_sum_id = RequireRangeSum(vi, child_slot);
      }
      parts.push_back(p);
    }
    for (size_t i = 0; i < entry_slots.size(); ++i) {
      if (entry_slots[i] < 0) {
        return Status::Internal(
            "aggregate does not reference one of its output's key views");
      }
    }
    std::sort(leaf_factors.begin(), leaf_factors.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second.Signature() < b.second.Signature();
              });

    if (!options_.factorize) {
      GroupPlan::LeafWrite w;
      w.output = out_index;
      w.slot = slot;
      w.parts = std::move(parts);
      w.factor_ids = RequireLeafFactors(leaf_factors);
      w.leaf_factors = std::move(leaf_factors);
      w.entry_slots = std::move(entry_slots);
      plan_.leaf_writes.push_back(std::move(w));
      return Status::OK();
    }

    // Head: parts at levels <= write_level, folded into an alpha chain with
    // prefix sharing.
    int head_alpha = -1;
    {
      uint64_t sig = 0xa11a;
      for (int level = 1; level <= write_level; ++level) {
        std::vector<PlanPart> at_level;
        for (const PlanPart& p : parts) {
          if (p.level == level) at_level.push_back(p);
        }
        if (at_level.empty()) continue;
        SortParts(&at_level);
        sig = HashCombine(HashCombine(sig, static_cast<uint64_t>(level)),
                          PartsSignature(at_level));
        const int found = alpha_registry_.Find(sig, [&](int a) {
          const GroupPlan::AlphaReg& reg = plan_.alphas[static_cast<size_t>(a)];
          return reg.prev == head_alpha && reg.level == level &&
                 reg.parts == at_level;
        });
        if (found >= 0) {
          head_alpha = found;
          continue;
        }
        GroupPlan::AlphaReg reg;
        reg.prev = head_alpha;
        reg.level = level;
        reg.parts = std::move(at_level);
        head_alpha = static_cast<int>(plan_.alphas.size());
        plan_.alphas.push_back(std::move(reg));
        plan_.alphas_at_level[static_cast<size_t>(level)].push_back(
            head_alpha);
        alpha_registry_.Add(sig, head_alpha);
      }
    }

    // Tail: leaf sum, then a beta chain from the deepest level up to
    // write_level + 1, with suffix sharing.
    const int leaf_index = RequireLeafSum(leaf_factors);
    GroupPlan::Suffix suffix;
    suffix.kind = GroupPlan::SuffixKind::kLeaf;
    suffix.index = leaf_index;
    uint64_t suffix_sig = HashCombine(0xbe7a, LeafSumSignature(leaf_factors));
    for (int level = plan_.num_levels(); level > write_level; --level) {
      std::vector<PlanPart> at_level;
      for (const PlanPart& p : parts) {
        if (p.level == level) at_level.push_back(p);
      }
      SortParts(&at_level);
      suffix_sig =
          HashCombine(HashCombine(suffix_sig, static_cast<uint64_t>(level)),
                      PartsSignature(at_level));
      const int found = beta_registry_.Find(suffix_sig, [&](int b) {
        const GroupPlan::BetaReg& reg = plan_.betas[static_cast<size_t>(b)];
        return reg.level == level && reg.parts == at_level &&
               reg.next.kind == suffix.kind && reg.next.index == suffix.index;
      });
      if (found >= 0) {
        suffix.kind = GroupPlan::SuffixKind::kBeta;
        suffix.index = found;
        continue;
      }
      GroupPlan::BetaReg reg;
      reg.level = level;
      reg.parts = std::move(at_level);
      reg.next = suffix;
      const int beta_index = static_cast<int>(plan_.betas.size());
      plan_.betas.push_back(std::move(reg));
      plan_.betas_at_level[static_cast<size_t>(level)].push_back(beta_index);
      beta_registry_.Add(suffix_sig, beta_index);
      suffix.kind = GroupPlan::SuffixKind::kBeta;
      suffix.index = beta_index;
    }

    GroupPlan::Write w;
    w.output = out_index;
    w.slot = slot;
    w.alpha = head_alpha;
    w.suffix = suffix;
    w.entry_slots = std::move(entry_slots);
    plan_.writes_at_level[static_cast<size_t>(write_level)].push_back(w);
    return Status::OK();
  }

  int RequireLeafSum(const std::vector<std::pair<int, Function>>& factors) {
    const uint64_t sig = LeafSumSignature(factors);
    const int found = leaf_registry_.Find(sig, [&](int i) {
      return plan_.leaf_sums[static_cast<size_t>(i)].factors == factors;
    });
    if (found >= 0) return found;
    GroupPlan::LeafSum sum;
    sum.factors = factors;
    sum.factor_ids = RequireLeafFactors(factors);
    const int index = static_cast<int>(plan_.leaf_sums.size());
    plan_.leaf_sums.push_back(std::move(sum));
    leaf_registry_.Add(sig, index);
    return index;
  }

  /// Interns each (column, function) factor in the plan's distinct leaf
  /// factor table (exact Function equality; leaf factor tables stay tiny,
  /// so a linear scan beats maintaining a collision-proof hash key).
  std::vector<int> RequireLeafFactors(
      const std::vector<std::pair<int, Function>>& factors) {
    std::vector<std::pair<int, Function>>& table = plan_.leaf_factor_table;
    std::vector<int> ids;
    ids.reserve(factors.size());
    for (const auto& factor : factors) {
      const auto it = std::find(table.begin(), table.end(), factor);
      ids.push_back(static_cast<int>(it - table.begin()));
      if (it == table.end()) table.push_back(factor);
    }
    return ids;
  }

  /// Dense id of the distinct (view, slot) range sum.
  int RequireRangeSum(int view_index, int slot) {
    const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(
                              view_index))
                          << 32) |
                         static_cast<uint32_t>(slot);
    auto it = range_sum_registry_.find(key);
    if (it != range_sum_registry_.end()) return it->second;
    const int id = plan_.num_range_sums++;
    range_sum_registry_.emplace(key, id);
    return id;
  }

  const Workload& workload_;
  const ViewGroup& group_;
  const Catalog& catalog_;
  PlanOptions options_;
  GroupPlan plan_;
  std::unordered_map<ViewId, int> incoming_index_;
  SignatureIndex alpha_registry_;
  SignatureIndex beta_registry_;
  SignatureIndex leaf_registry_;
  std::unordered_map<uint64_t, int> range_sum_registry_;
};

}  // namespace

StatusOr<GroupPlan> BuildGroupPlan(const Workload& workload,
                                   const ViewGroup& group,
                                   const Catalog& catalog,
                                   const std::vector<AttrId>& attr_order,
                                   const PlanOptions& options) {
  PlanBuilder builder(workload, group, catalog, attr_order, options);
  return builder.Build();
}

void AssignLayoutsAndClosures(const GroupedWorkload& grouped,
                              std::vector<GroupPlan>* plans) {
  // Input-closure relation masks, in dependency order: a group's closure is
  // its own node plus the closures of the groups producing its incoming
  // views. Relations beyond 63 saturate (the mask then never prunes, which
  // is correct, just not fast).
  std::vector<uint64_t> group_mask(plans->size(), 0);
  for (int g : grouped.TopologicalOrder()) {
    const ViewGroup& group = grouped.groups[static_cast<size_t>(g)];
    uint64_t mask = group.node < 64 ? (1ull << group.node) : ~0ull;
    for (ViewId v : group.incoming) {
      mask |= group_mask[static_cast<size_t>(
          grouped.producer_group[static_cast<size_t>(v)])];
    }
    group_mask[static_cast<size_t>(g)] = mask;
    (*plans)[static_cast<size_t>(g)].source_relation_mask = mask;
  }

  // Producer lookup: view id -> its producing output.
  std::vector<GroupPlan::OutputInfo*> producer(grouped.producer_group.size(),
                                               nullptr);
  for (GroupPlan& plan : *plans) {
    for (GroupPlan::OutputInfo& out : plan.outputs) {
      out.payload_layout = PayloadLayout::kRowMajor;
      producer[static_cast<size_t>(out.view)] = &out;
    }
  }
  for (const GroupPlan& plan : *plans) {
    for (const GroupPlan::IncomingView& in : plan.incoming) {
      GroupPlan::OutputInfo* out = producer[static_cast<size_t>(in.view)];
      if (in.identity_perm && out != nullptr &&
          in.CopyLayout() == PayloadLayout::kColumnar) {
        out->payload_layout = PayloadLayout::kColumnar;
      }
    }
  }
}

namespace {

std::string PartToString(const GroupPlan& plan, const PlanPart& p,
                         const Catalog& catalog) {
  switch (p.kind) {
    case PlanPart::Kind::kViewPayload:
      return "V" +
             std::to_string(
                 plan.incoming[static_cast<size_t>(p.view_index)].view) +
             "[" + std::to_string(p.slot) + "]";
    case PlanPart::Kind::kViewRangeSum:
      return "sum(V" +
             std::to_string(
                 plan.incoming[static_cast<size_t>(p.view_index)].view) +
             "[" + std::to_string(p.slot) + "])";
    case PlanPart::Kind::kFactor: {
      std::ostringstream out;
      out << p.factor.fn.ToString() << "("
          << catalog.attr(p.factor.attr).name << ")";
      return out.str();
    }
  }
  return "?";
}

std::string SuffixToString(const GroupPlan::Suffix& s) {
  switch (s.kind) {
    case GroupPlan::SuffixKind::kOne:
      return "1";
    case GroupPlan::SuffixKind::kLeaf:
      return "leaf" + std::to_string(s.index);
    case GroupPlan::SuffixKind::kBeta:
      return "beta" + std::to_string(s.index);
  }
  return "?";
}

}  // namespace

std::string GroupPlan::ToString(const Workload& workload,
                                const Catalog& catalog) const {
  std::ostringstream out;
  out << "group " << group_id << " over " << catalog.relation(node).name()
      << ", order:";
  for (AttrId a : attr_order) out << " " << catalog.attr(a).name;
  out << "\n";
  const int levels = num_levels();
  auto indent = [&](int level) {
    for (int i = 0; i < level; ++i) out << "  ";
  };
  for (int level = 1; level <= levels; ++level) {
    indent(level);
    out << "foreach "
        << catalog.attr(attr_order[static_cast<size_t>(level - 1)]).name
        << ":\n";
    for (int a : alphas_at_level[static_cast<size_t>(level)]) {
      indent(level + 1);
      const AlphaReg& reg = alphas[static_cast<size_t>(a)];
      out << "alpha" << a << " = ";
      if (reg.prev >= 0) out << "alpha" << reg.prev << " * ";
      for (size_t i = 0; i < reg.parts.size(); ++i) {
        if (i > 0) out << " * ";
        out << PartToString(*this, reg.parts[i], catalog);
      }
      out << "\n";
    }
  }
  indent(levels + 1);
  out << "foreach tuple:";
  for (size_t i = 0; i < leaf_sums.size(); ++i) {
    out << " leaf" << i << " +=";
    if (leaf_sums[i].factors.empty()) out << " 1";
    for (const auto& [col, fn] : leaf_sums[i].factors) {
      out << " " << fn.ToString() << "(col" << col << ")";
    }
    out << ";";
  }
  out << "\n";
  for (int level = levels; level >= 0; --level) {
    indent(level + 1);
    out << "on exit of level " << level << ":";
    if (level >= 1) {
      for (int b : betas_at_level[static_cast<size_t>(level)]) {
        const BetaReg& reg = betas[static_cast<size_t>(b)];
        out << " beta" << b << " +=";
        for (const PlanPart& p : reg.parts) {
          out << " " << PartToString(*this, p, catalog) << " *";
        }
        out << " " << SuffixToString(reg.next) << ";";
      }
    }
    for (const Write& w : writes_at_level[static_cast<size_t>(level)]) {
      const OutputInfo& o = outputs[static_cast<size_t>(w.output)];
      const ViewInfo& info = workload.view(o.view);
      out << " " << (info.IsQueryOutput() ? "Q" : "V")
          << (info.IsQueryOutput() ? info.query_id : info.id) << "[" << w.slot
          << "] += ";
      for (size_t kv = 0; kv < o.key_views.size(); ++kv) {
        out << "V"
            << incoming[static_cast<size_t>(o.key_views[kv])].view << "<e>["
            << w.entry_slots[kv] << "] * ";
      }
      if (w.alpha >= 0) out << "alpha" << w.alpha << " * ";
      out << SuffixToString(w.suffix) << ";";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace lmfao
