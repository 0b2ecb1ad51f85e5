#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace lmfao {

namespace {

/// Shared tail of the consumed-view build: argsorts u32 entry indices with
/// a comparator reading the *source* key components in consumed order (no
/// permuted key objects are ever materialized), then gathers each consumed
/// component into its own contiguous column and the payloads into the
/// layout this consumer's access pattern wants — columnar for multi-entry
/// consumption (range sums, entry iteration), row-major for single-entry
/// binds. `component(entry, canonical_comp)` reads the source container;
/// `gather_payloads(dst, sorted_entries)` fills the payload matrix from
/// the source's own layout (row-major ViewMap slots, either-layout
/// SortView).
template <typename ComponentFn, typename PayloadGatherFn>
ConsumedView ArgsortAndGather(int width, std::vector<uint32_t> entries,
                              const GroupPlan::IncomingView& incoming,
                              ComponentFn&& component,
                              PayloadGatherFn&& gather_payloads) {
  ConsumedView out;
  out.width = width;
  const PayloadLayout layout = incoming.IsMultiEntry()
                                   ? PayloadLayout::kColumnar
                                   : PayloadLayout::kRowMajor;
  // The plan layer precomputes consumed_perm; fall back to concatenating
  // the permutations for hand-built IncomingViews (tests, tooling).
  std::vector<int> perm = incoming.consumed_perm;
  if (perm.empty()) {
    perm = incoming.key_perm;
    perm.insert(perm.end(), incoming.extra_perm.begin(),
                incoming.extra_perm.end());
  }
  out.arity = static_cast<int>(perm.size());
  std::sort(entries.begin(), entries.end(),
            [&component, &perm](uint32_t a, uint32_t b) {
              for (int pos : perm) {
                const int64_t va = component(a, pos);
                const int64_t vb = component(b, pos);
                if (va != vb) return va < vb;
              }
              return false;
            });
  const size_t n = entries.size();
  out.owned_keys = KeyColumns(out.arity, n);
  for (int c = 0; c < out.arity; ++c) {
    int64_t* dst = out.owned_keys.col(c);
    const int pos = perm[static_cast<size_t>(c)];
    for (size_t i = 0; i < n; ++i) dst[i] = component(entries[i], pos);
    out.cols[static_cast<size_t>(c)] = dst;
  }
  out.owned_payloads = PayloadMatrix(width, n, layout);
  gather_payloads(&out.owned_payloads, entries);
  out.size = n;
  out.payload_base = out.owned_payloads.data();
  out.payload_layout = layout;
  out.payload_entry_stride = out.owned_payloads.entry_stride();
  out.payload_slot_stride = out.owned_payloads.slot_stride();
  return out;
}

/// Unit-stride dot product over two scratch columns (four independent
/// accumulators, same deterministic reduction shape as SumRange).
double DotRange(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

}  // namespace

ConsumedView ConsumedView::Borrow(const SortView& frozen) {
  ConsumedView out;
  out.arity = frozen.key_arity();
  out.width = frozen.width();
  out.size = frozen.size();
  for (int c = 0; c < out.arity; ++c) {
    out.cols[static_cast<size_t>(c)] = frozen.col(c);
  }
  const PayloadMatrix& pm = frozen.payload_matrix();
  out.payload_base = pm.data();
  out.payload_layout = pm.layout();
  out.payload_entry_stride = pm.entry_stride();
  out.payload_slot_stride = pm.slot_stride();
  return out;
}

ConsumedView BuildConsumedView(const ViewMap& produced,
                               const GroupPlan::IncomingView& incoming) {
  std::vector<uint32_t> entries;
  entries.reserve(produced.size());
  const size_t slots = produced.num_slots();
  LMFAO_CHECK_LT(slots, static_cast<size_t>(UINT32_MAX));
  for (size_t s = 0; s < slots; ++s) {
    if (produced.slot_occupied(s)) entries.push_back(static_cast<uint32_t>(s));
  }
  return ArgsortAndGather(
      produced.width(), std::move(entries), incoming,
      [&produced](uint32_t slot, int comp) {
        return produced.slot_key(slot)[comp];
      },
      [&produced](PayloadMatrix* dst, const std::vector<uint32_t>& order) {
        GatherRows(dst, [&produced, &order](size_t i) {
          return produced.slot_payload(order[i]);
        });
      });
}

ConsumedView BuildConsumedView(const SortView& produced,
                               const GroupPlan::IncomingView& incoming) {
  LMFAO_CHECK_LT(produced.size(), static_cast<size_t>(UINT32_MAX));
  std::vector<uint32_t> entries(produced.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i] = static_cast<uint32_t>(i);
  }
  return ArgsortAndGather(
      produced.width(), std::move(entries), incoming,
      [&produced](uint32_t row, int comp) { return produced.col(comp)[row]; },
      [&produced](PayloadMatrix* dst, const std::vector<uint32_t>& order) {
        // Either-layout source: permuted gather in destination order.
        if (dst->layout() == PayloadLayout::kColumnar) {
          for (int s = 0; s < dst->width(); ++s) {
            double* d = dst->col(s);
            for (size_t i = 0; i < order.size(); ++i) {
              d[i] = produced.payload_at(order[i], s);
            }
          }
        } else {
          for (size_t i = 0; i < order.size(); ++i) {
            double* d = dst->row(i);
            for (int s = 0; s < dst->width(); ++s) {
              d[s] = produced.payload_at(order[i], s);
            }
          }
        }
      });
}

GroupExecutor::GroupExecutor(const GroupPlan& plan,
                             const Relation& sorted_relation,
                             std::vector<const ConsumedView*> views,
                             const ParamPack* params,
                             const CancelToken* cancel, size_t charge_base)
    : plan_(plan),
      relation_(sorted_relation),
      views_(std::move(views)),
      cancel_(cancel != nullptr && cancel->armed() ? cancel : nullptr),
      charge_base_(charge_base) {
  const int levels = plan_.num_levels();
  level_rel_column_.assign(static_cast<size_t>(levels) + 1, nullptr);
  level_views_.assign(static_cast<size_t>(levels) + 1, {});
  for (int level = 1; level <= levels; ++level) {
    const int col = plan_.level_column[static_cast<size_t>(level - 1)];
    level_rel_column_[static_cast<size_t>(level)] =
        relation_.column(col).ints().data();
  }
  level_bound_views_.assign(static_cast<size_t>(levels) + 1, {});
  level_stride_ = static_cast<size_t>(levels) + 1;
  effective_level_.assign(plan_.incoming.size() * level_stride_, 0);
  for (size_t v = 0; v < plan_.incoming.size(); ++v) {
    const auto& in = plan_.incoming[v];
    for (size_t c = 0; c < in.key_levels.size(); ++c) {
      level_views_[static_cast<size_t>(in.key_levels[c])].emplace_back(
          static_cast<int>(v), static_cast<int>(c));
    }
    if (!in.IsMultiEntry() && in.bound_level >= 1) {
      level_bound_views_[static_cast<size_t>(in.bound_level)].push_back(
          static_cast<int>(v));
    }
    int* eff = effective_level_.data() + v * level_stride_;
    for (int l = 1; l <= levels; ++l) {
      const bool participates =
          std::find(in.key_levels.begin(), in.key_levels.end(), l) !=
          in.key_levels.end();
      eff[l] = participates ? l : eff[l - 1];
    }
  }

  // Batched leaf lowering: intern every distinct (column, function) leaf
  // factor once and resolve it to a typed kind-specialized kernel. The
  // plan's interned table and ids are reused when BuildGroupPlan lowered
  // them; hand-built plans (empty id lists) are interned here instead —
  // either way every id below indexes `table`.
  std::vector<std::pair<int, Function>> table = plan_.leaf_factor_table;
  auto resolve_ids =
      [&](const std::vector<std::pair<int, Function>>& factors,
          const std::vector<int>& plan_ids) {
        if (plan_ids.size() == factors.size()) {
          bool ok = true;
          for (int id : plan_ids) {
            ok = ok && id >= 0 &&
                 id < static_cast<int>(plan_.leaf_factor_table.size());
          }
          if (ok) return plan_ids;
        }
        std::vector<int> ids;
        ids.reserve(factors.size());
        for (const auto& [col, fn] : factors) {
          ids.push_back(InternLeafFactor(&table, col, fn));
        }
        return ids;
      };
  for (const auto& sum : plan_.leaf_sums) {
    leaf_sum_kernels_.push_back(resolve_ids(sum.factors, sum.factor_ids));
  }
  for (const auto& w : plan_.leaf_writes) {
    leaf_write_kernels_.push_back(resolve_ids(w.leaf_factors, w.factor_ids));
  }
  leaf_kernels_.reserve(table.size());
  for (const auto& [col, fn] : table) {
    const Column& c = relation_.column(col);
    leaf_kernels_.push_back(
        c.type() == AttrType::kInt
            ? MakeLeafKernel(c.ints().data(), nullptr, fn, params)
            : MakeLeafKernel(nullptr, c.doubles().data(), fn, params));
  }
  leaf_scratch_.resize(leaf_kernels_.size());

  // Flatten the register program: the interpreter's per-match loops run
  // over these contiguous op arrays instead of chasing the plan's nested
  // register/part vectors (a PlanPart drags a shared_ptr-carrying Function
  // through cache; an ExecPart is a quarter the size and sequential).
  auto lower_part = [this, params](const PlanPart& p) {
    ExecPart e{};
    e.kind = static_cast<uint8_t>(p.kind);
    e.view_index = static_cast<int16_t>(p.view_index);
    e.slot = p.slot;
    e.level = p.level;
    e.range_sum_id = p.range_sum_id;
    if (p.kind == PlanPart::Kind::kFactor) {
      e.fn_kind = static_cast<uint8_t>(p.factor.fn.kind());
      e.threshold = p.factor.fn.ResolvedThreshold(params);
      e.dict = p.factor.fn.dict().get();
    }
    exec_parts_.push_back(e);
  };
  // Registers are renumbered to op order (level-major) so one level's
  // values are contiguous; compute the renumbering first — beta suffixes
  // reference betas of deeper levels, which are lowered later.
  std::vector<int32_t> alpha_pos(plan_.alphas.size(), -1);
  std::vector<int32_t> beta_pos(plan_.betas.size(), -1);
  {
    int32_t na = 0;
    int32_t nb = 0;
    for (int l = 0; l <= levels; ++l) {
      for (int a : plan_.alphas_at_level[static_cast<size_t>(l)]) {
        alpha_pos[static_cast<size_t>(a)] = na++;
      }
      for (int b : plan_.betas_at_level[static_cast<size_t>(l)]) {
        beta_pos[static_cast<size_t>(b)] = nb++;
      }
    }
  }
  auto lower_suffix = [&beta_pos](const GroupPlan::Suffix& s,
                                  uint8_t* kind, int32_t* index) {
    *kind = static_cast<uint8_t>(s.kind);
    *index = s.kind == GroupPlan::SuffixKind::kBeta
                 ? beta_pos[static_cast<size_t>(s.index)]
                 : s.index;
  };
  // Fuse the dominant single-part shape (see RegOp docs).
  auto fuse_shape = [this](RegOp* op) {
    if (op->part_end - op->part_begin != 1) return;
    const ExecPart& p = exec_parts_[op->part_begin];
    if (static_cast<PlanPart::Kind>(p.kind) != PlanPart::Kind::kViewPayload) {
      return;
    }
    op->shape = RegShape::kPayload;
    op->view = p.view_index;
    op->slot = p.slot;
  };
  alpha_level_begin_.resize(static_cast<size_t>(levels) + 2);
  beta_level_begin_.resize(static_cast<size_t>(levels) + 2);
  write_level_begin_.resize(static_cast<size_t>(levels) + 2);
  for (int l = 0; l <= levels; ++l) {
    alpha_level_begin_[static_cast<size_t>(l)] =
        static_cast<uint32_t>(alpha_ops_.size());
    for (int a : plan_.alphas_at_level[static_cast<size_t>(l)]) {
      const GroupPlan::AlphaReg& reg = plan_.alphas[static_cast<size_t>(a)];
      RegOp op{};
      op.reg = alpha_pos[static_cast<size_t>(a)];
      op.prev =
          reg.prev >= 0 ? alpha_pos[static_cast<size_t>(reg.prev)] : -1;
      op.part_begin = static_cast<uint32_t>(exec_parts_.size());
      for (const PlanPart& p : reg.parts) lower_part(p);
      op.part_end = static_cast<uint32_t>(exec_parts_.size());
      fuse_shape(&op);
      alpha_ops_.push_back(op);
    }
    beta_level_begin_[static_cast<size_t>(l)] =
        static_cast<uint32_t>(beta_ops_.size());
    for (int b : plan_.betas_at_level[static_cast<size_t>(l)]) {
      const GroupPlan::BetaReg& reg = plan_.betas[static_cast<size_t>(b)];
      RegOp op{};
      op.reg = beta_pos[static_cast<size_t>(b)];
      op.prev = -1;
      lower_suffix(reg.next, &op.suffix_kind, &op.suffix_index);
      op.part_begin = static_cast<uint32_t>(exec_parts_.size());
      for (const PlanPart& p : reg.parts) lower_part(p);
      op.part_end = static_cast<uint32_t>(exec_parts_.size());
      fuse_shape(&op);
      beta_ops_.push_back(op);
    }
    write_level_begin_[static_cast<size_t>(l)] =
        static_cast<uint32_t>(write_ops_.size());
    for (const GroupPlan::Write& w :
         plan_.writes_at_level[static_cast<size_t>(l)]) {
      WriteOp op{};
      op.write = &w;
      op.output = w.output;
      op.slot = w.slot;
      op.alpha = w.alpha >= 0 ? alpha_pos[static_cast<size_t>(w.alpha)] : -1;
      lower_suffix(w.suffix, &op.suffix_kind, &op.suffix_index);
      op.keyed =
          !plan_.outputs[static_cast<size_t>(w.output)].key_views.empty();
      write_ops_.push_back(op);
    }
  }
  alpha_level_begin_[static_cast<size_t>(levels) + 1] =
      static_cast<uint32_t>(alpha_ops_.size());
  beta_level_begin_[static_cast<size_t>(levels) + 1] =
      static_cast<uint32_t>(beta_ops_.size());
  write_level_begin_[static_cast<size_t>(levels) + 1] =
      static_cast<uint32_t>(write_ops_.size());
  for (const GroupPlan::LeafWrite& lw : plan_.leaf_writes) {
    const uint32_t begin = static_cast<uint32_t>(exec_parts_.size());
    for (const PlanPart& p : lw.parts) lower_part(p);
    leaf_write_parts_.emplace_back(begin,
                                   static_cast<uint32_t>(exec_parts_.size()));
  }
  if (views_.size() == plan_.incoming.size()) FuseBetaRuns();
}

void GroupExecutor::FuseBetaRuns() {
  // Covariance-style batches lower hundreds of betas per level that each
  // read the next payload slot of the same bound view (one slot per
  // aggregate column); detect those runs once so AccumulateBetas replaces
  // the op-at-a-time scan with one contiguous elementwise loop per run.
  // Fusable ops read a row-major single-entry view (slot stride 1): the
  // run's payload block is then unit-stride off the cached match pointer,
  // and the level-major register renumbering makes the destination
  // beta_vals_ block contiguous as well.
  auto fusable = [this](const RegOp& op) {
    return op.shape == RegShape::kPayload && op.view >= 0 &&
           views_[static_cast<size_t>(op.view)]->payload_slot_stride == 1;
  };
  auto contiguous = [&fusable](const RegOp& a, const RegOp& b) {
    return fusable(b) && b.view == a.view && b.slot == a.slot + 1 &&
           b.reg == a.reg + 1;
  };
  const uint8_t beta_kind =
      static_cast<uint8_t>(GroupPlan::SuffixKind::kBeta);
  const int levels = plan_.num_levels();
  for (int l = 0; l <= levels; ++l) {
    const uint32_t slice_end = beta_level_begin_[static_cast<size_t>(l) + 1];
    uint32_t i = beta_level_begin_[static_cast<size_t>(l)];
    while (i < slice_end) {
      RegOp& head = beta_ops_[i];
      if (!fusable(head) || i + 1 >= slice_end) {
        ++i;
        continue;
      }
      const RegOp& second = beta_ops_[i + 1];
      RunKind kind;
      if (contiguous(head, second) &&
          second.suffix_kind == head.suffix_kind &&
          second.suffix_index == head.suffix_index) {
        kind = RunKind::kScalarSuffix;
      } else if (contiguous(head, second) && head.suffix_kind == beta_kind &&
                 second.suffix_kind == beta_kind &&
                 second.suffix_index == head.suffix_index + 1) {
        kind = RunKind::kPairSuffix;
      } else {
        ++i;
        continue;
      }
      uint32_t j = i + 1;
      while (j < slice_end) {
        const RegOp& prev = beta_ops_[j - 1];
        const RegOp& cur = beta_ops_[j];
        if (!contiguous(prev, cur)) break;
        if (kind == RunKind::kScalarSuffix
                ? (cur.suffix_kind != head.suffix_kind ||
                   cur.suffix_index != head.suffix_index)
                : (cur.suffix_kind != beta_kind ||
                   cur.suffix_index != prev.suffix_index + 1)) {
          break;
        }
        ++j;
      }
      const int32_t len = static_cast<int32_t>(j - i);
      bool ok = len > 1;
      if (ok && kind == RunKind::kPairSuffix) {
        // Pair runs read beta_vals_[suffix..] while writing
        // beta_vals_[reg..]; the suffixes are deeper-level betas so the
        // intervals never overlap in practice, but fusing an overlapping
        // run would change results — require disjointness.
        const int32_t r0 = head.reg;
        const int32_t s0 = head.suffix_index;
        ok = s0 + len <= r0 || r0 + len <= s0;
      }
      if (ok) {
        head.run_len = len;
        head.run_kind = kind;
        for (uint32_t k = i + 1; k < j; ++k) beta_ops_[k].run_len = 0;
      }
      i = j;
    }
  }
}

Status GroupExecutor::Validate() const {
  if (views_.size() != plan_.incoming.size()) {
    return Status::InvalidArgument("executor: view count mismatch");
  }
  for (size_t v = 0; v < views_.size(); ++v) {
    if (views_[v]->width != plan_.incoming[v].width) {
      return Status::InvalidArgument("executor: view width mismatch");
    }
    // The range-sum and entry-iteration kernels read contiguous payload
    // columns; multi-entry views must therefore arrive columnar
    // (BuildConsumedView and the plan's freeze layout guarantee it).
    if (plan_.incoming[v].IsMultiEntry() &&
        views_[v]->payload_layout != PayloadLayout::kColumnar) {
      return Status::InvalidArgument(
          "executor: multi-entry view payload must be columnar");
    }
  }
  return Status::OK();
}

void GroupExecutor::Prepare(const std::vector<ViewMap*>& outputs,
                            ShardRange rows) {
  const int levels = plan_.num_levels();
  rel_range_.assign(static_cast<size_t>(levels) + 1, Range{});
  rel_range_[0] = Range{rows.lo, rows.hi};
  view_range_.assign(views_.size() * level_stride_, Range{});
  for (size_t v = 0; v < views_.size(); ++v) {
    view_range_[v * level_stride_] = Range{0, views_[v]->size};
  }
  bound_.assign(static_cast<size_t>(levels) + 1, 0);
  view_payload_cache_.assign(views_.size(), PayloadRef{});
  for (size_t v = 0; v < views_.size(); ++v) {
    view_payload_cache_[v].sstride = views_[v]->payload_slot_stride;
  }
  alpha_vals_.assign(plan_.alphas.size(), 0.0);
  beta_vals_.assign(plan_.betas.size(), 0.0);
  leaf_vals_.assign(plan_.leaf_sums.size(), 0.0);
  range_sum_cache_.assign(static_cast<size_t>(plan_.num_range_sums),
                          RangeSumCache{});
  outputs_ = outputs;
}

Status GroupExecutor::Execute(const std::vector<ViewMap*>& outputs,
                              ShardRange rows) {
  LMFAO_RETURN_NOT_OK(Validate());
  if (rows.lo > rows.hi || rows.hi > relation_.num_rows()) {
    return Status::InvalidArgument("executor: row range out of bounds");
  }
  if (outputs.size() != plan_.outputs.size()) {
    return Status::InvalidArgument("executor: output count mismatch");
  }
  // The write paths hand raw key_sources-sized spans to UpsertHashed (which
  // cannot check a span length), so pin the arity invariant once up front.
  for (size_t o = 0; o < outputs.size(); ++o) {
    if (outputs[o]->key_arity() !=
        static_cast<int>(plan_.outputs[o].key_sources.size())) {
      return Status::InvalidArgument("executor: output key arity mismatch");
    }
  }
  Prepare(outputs, rows);
  abort_status_ = Status::OK();
  cancel_countdown_ = kCancelCheckInterval;
  if (cancel_ != nullptr) {
    LMFAO_RETURN_NOT_OK(cancel_->Check(charge_base_));
  }
  const int levels = plan_.num_levels();
  if (levels == 0) {
    for (double& v : leaf_vals_) v = 0.0;
    LeafLoop(rel_range_[0]);
    WriteOutputs(0);
    return Status::OK();
  }
  for (uint32_t i = beta_level_begin_[1]; i < beta_level_begin_[2]; ++i) {
    beta_vals_[static_cast<size_t>(beta_ops_[i].reg)] = 0.0;
  }
  IterateLevel(1);
  LMFAO_RETURN_NOT_OK(abort_status_);
  // Write outputs with empty write level; their beta values are sums over
  // this range only, so every piece emits and the caller merges.
  WriteOutputs(0);
  return Status::OK();
}

void GroupExecutor::IterateLevel(int level) {
  const int64_t* rel_col = level_rel_column_[static_cast<size_t>(level)];
  const Range rel = rel_range_[static_cast<size_t>(level - 1)];
  const auto& vps = level_views_[static_cast<size_t>(level)];

  size_t rel_pos = rel.lo;
  // Small inline cursor buffers: IterateLevel is called once per parent
  // value, so heap allocation here would dominate small subtries. vcols
  // caches each participant's contiguous key column — every seek below is
  // a galloping search over a plain int64 array.
  size_t vpos[kMaxLevelViews];
  size_t vhis[kMaxLevelViews];
  const int64_t* vcols[kMaxLevelViews];
  LMFAO_CHECK_LE(vps.size(), kMaxLevelViews);
  for (size_t i = 0; i < vps.size(); ++i) {
    const Range parent = ViewRangeAt(vps[i].first, level - 1);
    vpos[i] = parent.lo;
    vhis[i] = parent.hi;
    vcols[i] = views_[static_cast<size_t>(vps[i].first)]->col(vps[i].second);
  }
  auto view_hi = [&](size_t i) { return vhis[i]; };
  auto view_val = [&](size_t i) { return vcols[i][vpos[i]]; };

  if (rel.empty()) return;
  for (size_t i = 0; i < vps.size(); ++i) {
    if (vpos[i] >= view_hi(i)) return;
  }

  for (;;) {
    int64_t target = rel_col[rel_pos];
    bool exhausted = false;
    for (;;) {
      bool all_equal = true;
      if (rel_col[rel_pos] < target) {
        rel_pos = GallopLowerBound(rel_col, rel_pos, rel.hi, target);
        if (rel_pos >= rel.hi) {
          exhausted = true;
          break;
        }
      }
      if (rel_col[rel_pos] > target) {
        target = rel_col[rel_pos];
        all_equal = false;
      }
      for (size_t i = 0; i < vps.size(); ++i) {
        if (view_val(i) < target) {
          vpos[i] = GallopLowerBound(vcols[i], vpos[i], view_hi(i), target);
          if (vpos[i] >= view_hi(i)) {
            exhausted = true;
            break;
          }
        }
        if (view_val(i) > target) {
          target = view_val(i);
          all_equal = false;
        }
      }
      if (exhausted) break;
      if (all_equal && rel_col[rel_pos] == target) break;
    }
    if (exhausted) return;

    // Equal runs for each participant.
    const size_t rel_run_end =
        GallopUpperBound(rel_col, rel_pos, rel.hi, target);
    rel_range_[static_cast<size_t>(level)] = Range{rel_pos, rel_run_end};
    for (size_t i = 0; i < vps.size(); ++i) {
      const size_t run_end =
          GallopUpperBound(vcols[i], vpos[i], view_hi(i), target);
      view_range_[static_cast<size_t>(vps[i].first) * level_stride_ +
                  static_cast<size_t>(level)] = Range{vpos[i], run_end};
    }

    ProcessMatch(level, target);
    if (!abort_status_.ok()) return;

    rel_pos = rel_range_[static_cast<size_t>(level)].hi;
    if (rel_pos >= rel.hi) return;
    for (size_t i = 0; i < vps.size(); ++i) {
      vpos[i] = view_range_[static_cast<size_t>(vps[i].first) *
                                level_stride_ +
                            static_cast<size_t>(level)]
                    .hi;
      if (vpos[i] >= view_hi(i)) return;
    }
  }
}

void GroupExecutor::ProcessMatch(int level, int64_t value) {
  // Amortized deadline/budget poll: once every kCancelCheckInterval
  // matches, charging the pass baseline plus this executor's in-flight
  // output maps. A trip unwinds the whole trie iteration via
  // abort_status_ (checked after every ProcessMatch in IterateLevel).
  if (cancel_ != nullptr && --cancel_countdown_ <= 0) {
    cancel_countdown_ = kCancelCheckInterval;
    size_t charged = charge_base_;
    if (cancel_->budget_bytes() != 0) {  // deadline-only passes skip the sum
      for (const ViewMap* m : outputs_) charged += m->MemoryUsage();
    }
    abort_status_ = cancel_->Check(charged);
    if (!abort_status_.ok()) return;
  }
  bound_[static_cast<size_t>(level)] = value;
  for (int v : level_bound_views_[static_cast<size_t>(level)]) {
    const Range& r = view_range_[static_cast<size_t>(v) * level_stride_ +
                                 static_cast<size_t>(level)];
    const ConsumedView* cv = views_[static_cast<size_t>(v)];
    view_payload_cache_[static_cast<size_t>(v)].ptr =
        cv->payload_base + r.lo * cv->payload_entry_stride;
  }
  EvalAlphas(level);
  const int levels = plan_.num_levels();
  if (level == levels) {
    for (double& v : leaf_vals_) v = 0.0;
    LeafLoop(rel_range_[static_cast<size_t>(level)]);
  } else {
    const size_t next = static_cast<size_t>(level) + 1;
    for (uint32_t i = beta_level_begin_[next]; i < beta_level_begin_[next + 1];
         ++i) {
      beta_vals_[static_cast<size_t>(beta_ops_[i].reg)] = 0.0;
    }
    IterateLevel(level + 1);
    if (!abort_status_.ok()) return;
  }
  AccumulateBetas(level);
  WriteOutputs(level);
}

void GroupExecutor::LeafLoop(const Range& range) {
  if (range.empty()) return;
  const size_t rows = range.hi - range.lo;
  if (!leaf_kernels_.empty() && leaf_scratch_rows_ < rows) {
    for (auto& s : leaf_scratch_) s.resize(rows);
    leaf_prod_scratch_.resize(rows);
    leaf_scratch_rows_ = rows;
  }
  // Lower each distinct (column, function) factor once for this run: the
  // kind-specialized kernels fill whole scratch columns with no per-row
  // dispatch.
  for (size_t k = 0; k < leaf_kernels_.size(); ++k) {
    leaf_kernels_[k].fill(leaf_kernels_[k], range.lo, range.hi,
                          leaf_scratch_[k].data());
  }
  // Leaf sums: unit-stride products over the scratch columns.
  for (size_t s = 0; s < leaf_sum_kernels_.size(); ++s) {
    leaf_vals_[s] += ScratchProductSum(leaf_sum_kernels_[s], rows);
  }
  // Non-factorized leaf writes, hoisted from per-row to whole-range form.
  for (size_t w = 0; w < plan_.leaf_writes.size(); ++w) {
    EmitLeafWriteBatch(w, rows);
  }
}

double GroupExecutor::ScratchProductSum(const std::vector<int>& kernel_ids,
                                        size_t rows) {
  switch (kernel_ids.size()) {
    case 0:
      return static_cast<double>(rows);  // SUM(1): the tuple count.
    case 1: {
      const double* a =
          leaf_scratch_[static_cast<size_t>(kernel_ids[0])].data();
      return SumRange(a, 0, rows);
    }
    case 2: {
      const double* a =
          leaf_scratch_[static_cast<size_t>(kernel_ids[0])].data();
      const double* b =
          leaf_scratch_[static_cast<size_t>(kernel_ids[1])].data();
      return DotRange(a, b, rows);
    }
    default: {
      double* prod = leaf_prod_scratch_.data();
      std::memcpy(prod,
                  leaf_scratch_[static_cast<size_t>(kernel_ids[0])].data(),
                  rows * sizeof(double));
      for (size_t f = 1; f + 1 < kernel_ids.size(); ++f) {
        const double* a =
            leaf_scratch_[static_cast<size_t>(kernel_ids[f])].data();
        for (size_t i = 0; i < rows; ++i) prod[i] *= a[i];
      }
      const double* last =
          leaf_scratch_[static_cast<size_t>(kernel_ids.back())].data();
      return DotRange(prod, last, rows);
    }
  }
}

GroupExecutor::Range GroupExecutor::ViewRangeAt(int view_index,
                                                int level) const {
  const size_t row = static_cast<size_t>(view_index) * level_stride_;
  const int effective = effective_level_[row + static_cast<size_t>(level)];
  return view_range_[row + static_cast<size_t>(effective)];
}

double GroupExecutor::EvalExecPart(const ExecPart& part) {
  switch (static_cast<PlanPart::Kind>(part.kind)) {
    case PlanPart::Kind::kFactor: {
      // Scalar factor of the bound level value: the function kind and
      // parameters were flattened into the op, so no Function object (or
      // its shared_ptr) is touched here. Semantics match Function::Eval.
      const double x =
          static_cast<double>(bound_[static_cast<size_t>(part.level)]);
      switch (static_cast<FunctionKind>(part.fn_kind)) {
        case FunctionKind::kIdentity:
          return x;
        case FunctionKind::kSquare:
          return x * x;
        case FunctionKind::kDictionary: {
          const auto it = part.dict->table.find(
              static_cast<int64_t>(std::llround(x)));
          return it == part.dict->table.end() ? part.dict->default_value
                                              : it->second;
        }
        case FunctionKind::kIndicatorLe:
          return x <= part.threshold ? 1.0 : 0.0;
        case FunctionKind::kIndicatorLt:
          return x < part.threshold ? 1.0 : 0.0;
        case FunctionKind::kIndicatorGe:
          return x >= part.threshold ? 1.0 : 0.0;
        case FunctionKind::kIndicatorGt:
          return x > part.threshold ? 1.0 : 0.0;
        case FunctionKind::kIndicatorEq:
          return x == part.threshold ? 1.0 : 0.0;
        case FunctionKind::kIndicatorNe:
          return x != part.threshold ? 1.0 : 0.0;
      }
      return 0.0;
    }
    case PlanPart::Kind::kViewPayload: {
      const PayloadRef& pr =
          view_payload_cache_[static_cast<size_t>(part.view_index)];
      return pr.ptr[static_cast<size_t>(part.slot) * pr.sstride];
    }
    case PlanPart::Kind::kViewRangeSum: {
      const Range r = ViewRangeAt(part.view_index, part.level);
      const ConsumedView* v = views_[static_cast<size_t>(part.view_index)];
      if (part.range_sum_id >= 0 &&
          static_cast<size_t>(part.range_sum_id) < range_sum_cache_.size()) {
        RangeSumCache& c =
            range_sum_cache_[static_cast<size_t>(part.range_sum_id)];
        if (c.lo == r.lo && c.hi == r.hi) return c.sum;
        const double sum = SumRange(v->pcol(part.slot), r.lo, r.hi);
        c.lo = r.lo;
        c.hi = r.hi;
        c.sum = sum;
        return sum;
      }
      return SumRange(v->pcol(part.slot), r.lo, r.hi);
    }
  }
  return 1.0;
}

double GroupExecutor::SuffixValue(uint8_t kind, int32_t index) const {
  switch (static_cast<GroupPlan::SuffixKind>(kind)) {
    case GroupPlan::SuffixKind::kOne:
      return 1.0;
    case GroupPlan::SuffixKind::kLeaf:
      return leaf_vals_[static_cast<size_t>(index)];
    case GroupPlan::SuffixKind::kBeta:
      return beta_vals_[static_cast<size_t>(index)];
  }
  return 1.0;
}

void GroupExecutor::EvalAlphas(int level) {
  const uint32_t end = alpha_level_begin_[static_cast<size_t>(level) + 1];
  for (uint32_t i = alpha_level_begin_[static_cast<size_t>(level)]; i < end;
       ++i) {
    const RegOp& op = alpha_ops_[i];
    double v = op.prev >= 0 ? alpha_vals_[static_cast<size_t>(op.prev)] : 1.0;
    if (op.shape == RegShape::kPayload) {
      const PayloadRef& pr = view_payload_cache_[static_cast<size_t>(op.view)];
      v *= pr.ptr[static_cast<size_t>(op.slot) * pr.sstride];
    } else {
      for (uint32_t p = op.part_begin; p < op.part_end; ++p) {
        v *= EvalExecPart(exec_parts_[p]);
      }
    }
    alpha_vals_[static_cast<size_t>(op.reg)] = v;
  }
}

void GroupExecutor::AccumulateBetas(int level) {
  const uint32_t end = beta_level_begin_[static_cast<size_t>(level) + 1];
  for (uint32_t i = beta_level_begin_[static_cast<size_t>(level)]; i < end;
       ++i) {
    const RegOp& op = beta_ops_[i];
    if (op.run_len != 1) {
      if (op.run_len == 0) continue;  // Member of a fused run.
      // Fused kPayload run: one contiguous elementwise loop over the
      // bound entry's payload block (slot stride 1, see FuseBetaRuns).
      // Each element does the same multiply-add the per-op path does, so
      // results are bit-identical.
      const PayloadRef& pr = view_payload_cache_[static_cast<size_t>(op.view)];
      const double* src = pr.ptr + static_cast<size_t>(op.slot);
      double* dst = beta_vals_.data() + static_cast<size_t>(op.reg);
      const size_t n = static_cast<size_t>(op.run_len);
      if (op.run_kind == RunKind::kScalarSuffix) {
        const double s = SuffixValue(op.suffix_kind, op.suffix_index);
        for (size_t k = 0; k < n; ++k) dst[k] += src[k] * s;
      } else {
        const double* suf =
            beta_vals_.data() + static_cast<size_t>(op.suffix_index);
        for (size_t k = 0; k < n; ++k) dst[k] += src[k] * suf[k];
      }
      continue;
    }
    double v = SuffixValue(op.suffix_kind, op.suffix_index);
    if (op.shape == RegShape::kPayload) {
      const PayloadRef& pr = view_payload_cache_[static_cast<size_t>(op.view)];
      v *= pr.ptr[static_cast<size_t>(op.slot) * pr.sstride];
    } else {
      for (uint32_t p = op.part_begin; p < op.part_end; ++p) {
        v *= EvalExecPart(exec_parts_[p]);
      }
    }
    beta_vals_[static_cast<size_t>(op.reg)] += v;
  }
}

void GroupExecutor::EmitKeyedWrite(const GroupPlan::OutputInfo& o, int output,
                                   int slot,
                                   const std::vector<int>& entry_slots,
                                   double base, int level) {
  // Raw packed key buffer: only the output's actual arity is touched, and
  // UpsertHashed skips the inline-tuple handle entirely.
  const int key_n = static_cast<int>(o.key_sources.size());
  int64_t key[TupleKey::kMaxArity];
  // Fill level-sourced components once.
  for (int i = 0; i < key_n; ++i) {
    const GroupPlan::KeySource& src = o.key_sources[static_cast<size_t>(i)];
    if (src.from_level) {
      key[i] = bound_[static_cast<size_t>(src.level)];
    }
  }
  if (o.key_views.empty()) {
    outputs_[static_cast<size_t>(output)]
        ->UpsertHashed(key, HashKeySpan(key, key_n))[slot] += base;
    return;
  }
  // Iterate the cross product of the key views' entry ranges. The entry
  // payload columns are resolved once, outside the odometer.
  const size_t nv = o.key_views.size();
  if (entry_cursor_.size() < nv) {
    entry_cursor_.resize(nv);
    write_ranges_.resize(nv);
  }
  const double* entry_pcols[TupleKey::kMaxArity];
  for (size_t i = 0; i < nv; ++i) {
    write_ranges_[i] = ViewRangeAt(o.key_views[i], level);
    if (write_ranges_[i].empty()) return;
    entry_cursor_[i] = write_ranges_[i].lo;
    entry_pcols[i] = views_[static_cast<size_t>(o.key_views[i])]->pcol(
        entry_slots[i]);
  }
  for (;;) {
    double value = base;
    for (size_t i = 0; i < nv; ++i) {
      value *= entry_pcols[i][entry_cursor_[i]];
    }
    for (int i = 0; i < key_n; ++i) {
      const GroupPlan::KeySource& src = o.key_sources[static_cast<size_t>(i)];
      if (src.from_level) continue;
      // Locate the cursor of this source's view.
      for (size_t kv = 0; kv < nv; ++kv) {
        if (o.key_views[kv] == src.view_index) {
          key[i] = views_[static_cast<size_t>(src.view_index)]
                       ->col(src.comp)[entry_cursor_[kv]];
          break;
        }
      }
    }
    outputs_[static_cast<size_t>(output)]
        ->UpsertHashed(key, HashKeySpan(key, key_n))[slot] += value;
    // Advance the odometer.
    size_t i = 0;
    for (; i < nv; ++i) {
      if (++entry_cursor_[i] < write_ranges_[i].hi) break;
      entry_cursor_[i] = write_ranges_[i].lo;
    }
    if (i == nv) break;
  }
}

void GroupExecutor::WriteOutputs(int level) {
  // Writes for the same output are consecutive (the plan lowers slots in
  // order); outputs without key views share one key probe per match. The
  // non-keyed fast path reads only the flat WriteOp.
  int last_output = -1;
  double* payload = nullptr;
  const uint32_t end = write_level_begin_[static_cast<size_t>(level) + 1];
  for (uint32_t i = write_level_begin_[static_cast<size_t>(level)]; i < end;
       ++i) {
    const WriteOp& op = write_ops_[i];
    if (op.keyed) {
      double base =
          op.alpha >= 0 ? alpha_vals_[static_cast<size_t>(op.alpha)] : 1.0;
      base *= SuffixValue(op.suffix_kind, op.suffix_index);
      EmitKeyedWrite(plan_.outputs[static_cast<size_t>(op.output)], op.output,
                     op.slot, op.write->entry_slots, base, level);
      continue;
    }
    if (op.output != last_output) {
      const GroupPlan::OutputInfo& o =
          plan_.outputs[static_cast<size_t>(op.output)];
      const int key_n = static_cast<int>(o.key_sources.size());
      int64_t key[TupleKey::kMaxArity];
      for (int i2 = 0; i2 < key_n; ++i2) {
        key[i2] =
            bound_[static_cast<size_t>(o.key_sources[static_cast<size_t>(i2)]
                                           .level)];
      }
      payload = outputs_[static_cast<size_t>(op.output)]->UpsertHashed(
          key, HashKeySpan(key, key_n));
      last_output = op.output;
    }
    double v =
        op.alpha >= 0 ? alpha_vals_[static_cast<size_t>(op.alpha)] : 1.0;
    v *= SuffixValue(op.suffix_kind, op.suffix_index);
    payload[op.slot] += v;
  }
}

void GroupExecutor::EmitLeafWriteBatch(size_t leaf_write_index, size_t rows) {
  const GroupPlan::LeafWrite& lw = plan_.leaf_writes[leaf_write_index];
  const GroupPlan::OutputInfo& o =
      plan_.outputs[static_cast<size_t>(lw.output)];
  // The view parts are loop-invariant over the leaf range and the per-row
  // factor product distributes over the row sum, so one whole-range write
  // replaces the old per-row emission (same keys: the key components come
  // from bound levels and view entries, never from the row).
  double base = 1.0;
  const auto& [part_begin, part_end] = leaf_write_parts_[leaf_write_index];
  for (uint32_t p = part_begin; p < part_end; ++p) {
    base *= EvalExecPart(exec_parts_[p]);
  }
  base *= ScratchProductSum(leaf_write_kernels_[leaf_write_index], rows);
  EmitKeyedWrite(o, lw.output, lw.slot, lw.entry_slots, base,
                 plan_.num_levels());
}

}  // namespace lmfao
