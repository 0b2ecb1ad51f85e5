#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace lmfao {

namespace {

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

/// The ids BuildGroupPlan lowers, which the executor indexes without
/// further checks: every leaf factor list's ids into the leaf factor
/// table, and every incoming view's consumed permutation of its canonical
/// key (whose components are exactly the key_perm and extra_perm
/// positions).
Status CheckLoweredIds(const GroupPlan& plan) {
  const int table_size = static_cast<int>(plan.leaf_factor_table.size());
  auto ids_valid = [table_size](size_t num_factors,
                                const std::vector<int>& ids) {
    return ids.size() == num_factors &&
           std::all_of(ids.begin(), ids.end(), [table_size](int id) {
             return id >= 0 && id < table_size;
           });
  };
  for (const GroupPlan::LeafSum& sum : plan.leaf_sums) {
    if (!ids_valid(sum.factors.size(), sum.factor_ids)) {
      return Status::InvalidArgument(
          "executor: leaf sum factor_ids missing or out of range");
    }
  }
  for (const GroupPlan::LeafWrite& w : plan.leaf_writes) {
    if (!ids_valid(w.leaf_factors.size(), w.factor_ids)) {
      return Status::InvalidArgument(
          "executor: leaf write factor_ids missing or out of range");
    }
  }
  for (const GroupPlan::IncomingView& in : plan.incoming) {
    const int arity =
        static_cast<int>(in.key_perm.size() + in.extra_perm.size());
    if (static_cast<int>(in.consumed_perm.size()) != arity ||
        std::any_of(in.consumed_perm.begin(), in.consumed_perm.end(),
                    [arity](int pos) { return pos < 0 || pos >= arity; })) {
      return Status::InvalidArgument(
          "executor: consumed_perm missing or out of range");
    }
  }
  return Status::OK();
}

}  // namespace

GroupExecutor::GroupExecutor(const GroupPlan& plan,
                             const Relation& sorted_relation,
                             const std::vector<const SortView*>& views,
                             const ParamPack* params,
                             const CancelToken* cancel, size_t charge_base)
    : plan_(plan),
      relation_(sorted_relation),
      cancel_(cancel != nullptr && cancel->armed() ? cancel : nullptr),
      charge_base_(charge_base) {
  views_.reserve(views.size());
  for (const SortView* view : views) {
    ViewArrays& v = views_.emplace_back();
    v.width = view->width();
    v.size = view->size();
    for (int c = 0; c < view->key_arity(); ++c) {
      v.cols[static_cast<size_t>(c)] = view->col(c);
    }
    const PayloadMatrix& pm = view->payload_matrix();
    v.payload_base = pm.data();
    v.payload_layout = pm.layout();
    v.payload_entry_stride = pm.entry_stride();
    v.payload_slot_stride = pm.slot_stride();
  }
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

  // Batched leaf lowering: one typed kind-specialized kernel per entry of
  // the plan's interned leaf factor table, which every leaf sum's and leaf
  // write's factor_ids index (CheckLoweredIds rejects ids outside it).
  const std::vector<std::pair<int, Function>>& table =
      plan_.leaf_factor_table;
  leaf_kernels_.reserve(table.size());
  for (const auto& [col, fn] : table) {
    const Column& c = relation_.column(col);
    leaf_kernels_.push_back(
        c.type() == AttrType::kInt
            ? MakeLeafKernel(c.ints().data(), nullptr, fn, params)
            : MakeLeafKernel(nullptr, c.doubles().data(), fn, params));
  }
  leaf_scratch_.resize(leaf_kernels_.size());

  lowering_status_ = CheckLoweredIds(plan_);
  if (views_.size() == plan_.incoming.size()) LowerLevelProgram(params);
}

void GroupExecutor::LowerLevelProgram(const ParamPack* params) {
  const int levels = plan_.num_levels();
  const size_t nlevels = static_cast<size_t>(levels) + 1;
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

  // The value file: 1.0, the leaf sums, the betas, the alphas, registers
  // renumbered level-major. Compute the renumbering first: beta suffixes
  // reference betas of deeper levels, which are lowered later.
  beta_base_ = 1 + static_cast<int32_t>(plan_.leaf_sums.size());
  alpha_base_ = beta_base_ + static_cast<int32_t>(plan_.betas.size());
  std::vector<int32_t> alpha_pos(plan_.alphas.size(), 0);
  std::vector<int32_t> beta_pos(plan_.betas.size(), 0);
  std::vector<int32_t> alpha_level_begin(nlevels + 1);
  beta_level_begin_.assign(nlevels + 1, 0);
  {
    int32_t na = alpha_base_;
    int32_t nb = beta_base_;
    for (size_t l = 0; l < nlevels; ++l) {
      alpha_level_begin[l] = na;
      beta_level_begin_[l] = nb;
      for (int a : plan_.alphas_at_level[l]) {
        alpha_pos[static_cast<size_t>(a)] = na++;
      }
      for (int b : plan_.betas_at_level[l]) {
        beta_pos[static_cast<size_t>(b)] = nb++;
      }
    }
    alpha_level_begin[nlevels] = na;
    beta_level_begin_[nlevels] = nb;
  }
  auto suffix_index = [&beta_pos](const GroupPlan::Suffix& s) -> int32_t {
    switch (s.kind) {
      case GroupPlan::SuffixKind::kOne:
        return 0;
      case GroupPlan::SuffixKind::kLeaf:
        return 1 + s.index;
      case GroupPlan::SuffixKind::kBeta:
        return beta_pos[static_cast<size_t>(s.index)];
    }
    return 0;
  };
  auto alpha_index = [&alpha_pos](int a) {
    return a >= 0 ? alpha_pos[static_cast<size_t>(a)] : 0;
  };

  // One register before fusion. A payload register multiplies by one
  // payload offset (a single kViewPayload part, or no part at all: view
  // -1 reads the value file's 1.0); any other register keeps its parts.
  struct Reg {
    int32_t dst;
    int32_t src;
    int16_t view;
    int32_t off;
    bool payload;
    uint32_t part_begin;
    uint32_t part_end;
  };
  auto lower_reg = [&](int32_t dst, int32_t src,
                       const std::vector<PlanPart>& parts) {
    Reg r{dst, src, -1, 0, true, 0, 0};
    if (parts.size() == 1 && parts[0].kind == PlanPart::Kind::kViewPayload) {
      r.view = static_cast<int16_t>(parts[0].view_index);
      r.off = parts[0].slot *
              static_cast<int32_t>(
                  views_[static_cast<size_t>(r.view)].payload_slot_stride);
    } else if (!parts.empty()) {
      r.payload = false;
      r.part_begin = static_cast<uint32_t>(exec_parts_.size());
      for (const PlanPart& p : parts) lower_part(p);
      r.part_end = static_cast<uint32_t>(exec_parts_.size());
    }
    return r;
  };
  // Appends one gather span per view over `regs`, in op order within a
  // view.
  auto emit_gathers = [this](StepKind kind, std::vector<Reg>* regs) {
    std::stable_sort(
        regs->begin(), regs->end(),
        [](const Reg& a, const Reg& b) { return a.view < b.view; });
    for (size_t i = 0; i < regs->size();) {
      Step s;
      s.kind = kind;
      s.view = (*regs)[i].view;
      s.off = static_cast<int32_t>(gather_dst_.size());
      for (; i < regs->size() && (*regs)[i].view == s.view; ++i) {
        gather_dst_.push_back((*regs)[i].dst);
        gather_off_.push_back((*regs)[i].off);
        gather_src_.push_back((*regs)[i].src);
      }
      s.len = static_cast<int32_t>(gather_dst_.size()) - s.off;
      steps_.push_back(s);
    }
  };
  // Appends one level's registers: runs of payload registers over
  // consecutive slots of one row-major view into consecutive registers
  // (alphas: one shared prev; betas: one shared suffix, or consecutive
  // suffixes), then the other payload registers as gathers, then the
  // generic ones. The level's registers do not read each other, so the
  // reordering leaves every register's value unchanged.
  auto emit_regs = [&](const std::vector<Reg>& regs, bool alpha) {
    auto fusable = [this](const Reg& r) {
      return r.payload && r.view >= 0 &&
             views_[static_cast<size_t>(r.view)].payload_slot_stride == 1;
    };
    auto follows = [&fusable](const Reg& a, const Reg& b, int32_t step) {
      return fusable(b) && b.view == a.view && b.off == a.off + 1 &&
             b.dst == a.dst + 1 && b.src == a.src + step;
    };
    std::vector<Reg> gathers;
    std::vector<const Reg*> generic;
    for (size_t i = 0; i < regs.size();) {
      const Reg& head = regs[i];
      int32_t step = 0;
      bool run = false;
      if (fusable(head) && i + 1 < regs.size()) {
        run = follows(head, regs[i + 1], 0) ||
              (!alpha && follows(head, regs[i + 1], 1));
        step = regs[i + 1].src - head.src;
      }
      if (!run) {
        if (head.payload) {
          gathers.push_back(head);
        } else {
          generic.push_back(&head);
        }
        ++i;
        continue;
      }
      size_t j = i + 2;
      while (j < regs.size() && follows(regs[j - 1], regs[j], step)) ++j;
      Step s;
      s.kind = alpha ? StepKind::kAlphaRun
                     : (step == 0 ? StepKind::kBetaRun
                                  : StepKind::kBetaPairRun);
      s.view = head.view;
      s.dst = head.dst;
      s.src = head.src;
      s.off = head.off;
      s.len = static_cast<int32_t>(j - i);
      steps_.push_back(s);
      i = j;
    }
    emit_gathers(alpha ? StepKind::kAlphaGather : StepKind::kBetaGather,
                 &gathers);
    for (const Reg* r : generic) {
      Step s;
      s.kind = alpha ? StepKind::kAlpha : StepKind::kBeta;
      s.dst = r->dst;
      s.src = r->src;
      s.off = static_cast<int32_t>(r->part_begin);
      s.len = static_cast<int32_t>(r->part_end - r->part_begin);
      steps_.push_back(s);
    }
  };

  // Output keys and keyed writes: each key component's source (bound level
  // or key-view cursor and column) and each write's entry payload columns
  // are resolved here, not per entry.
  output_key_begin_.push_back(0);
  for (const GroupPlan::OutputInfo& o : plan_.outputs) {
    for (const GroupPlan::KeySource& src : o.key_sources) {
      KeyComp c;
      c.level = src.level;
      if (!src.from_level) {
        const auto it = std::find(o.key_views.begin(), o.key_views.end(),
                                  src.view_index);
        if (it == o.key_views.end()) {
          lowering_status_ = Status::InvalidArgument(
              "executor: output key source is not a key view");
          return;
        }
        c.cursor = static_cast<int32_t>(it - o.key_views.begin());
        c.col = views_[static_cast<size_t>(src.view_index)].col(src.comp);
      }
      key_comps_.push_back(c);
    }
    output_key_begin_.push_back(static_cast<uint32_t>(key_comps_.size()));
  }
  auto keyed_write = [this](int output, int slot, int32_t alpha,
                            int32_t suffix,
                            const std::vector<int>& entry_slots) {
    const GroupPlan::OutputInfo& o =
        plan_.outputs[static_cast<size_t>(output)];
    KeyedWrite w{output, slot, alpha, suffix,
                 static_cast<uint32_t>(keyed_pcols_.size())};
    for (size_t i = 0; i < o.key_views.size(); ++i) {
      keyed_pcols_.push_back(
          views_[static_cast<size_t>(o.key_views[i])].pcol(entry_slots[i]));
    }
    return w;
  };

  level_steps_.resize(nlevels);
  for (size_t l = 0; l < nlevels; ++l) {
    LevelSteps& ls = level_steps_[l];
    ls.entry = static_cast<uint32_t>(steps_.size());
    std::vector<Reg> regs;
    for (int a : plan_.alphas_at_level[l]) {
      const GroupPlan::AlphaReg& reg = plan_.alphas[static_cast<size_t>(a)];
      const int32_t prev = alpha_index(reg.prev);
      if (prev >= alpha_level_begin[l]) {
        lowering_status_ = Status::InvalidArgument(
            "executor: an alpha's prev must be a shallower-level alpha");
        return;
      }
      regs.push_back(lower_reg(alpha_pos[static_cast<size_t>(a)], prev,
                               reg.parts));
    }
    emit_regs(regs, /*alpha=*/true);
    ls.exit = static_cast<uint32_t>(steps_.size());
    regs.clear();
    for (int b : plan_.betas_at_level[l]) {
      const GroupPlan::BetaReg& reg = plan_.betas[static_cast<size_t>(b)];
      const int32_t suffix = suffix_index(reg.next);
      if (suffix >= beta_base_ && suffix < beta_level_begin_[l + 1]) {
        lowering_status_ = Status::InvalidArgument(
            "executor: a beta's suffix must be a deeper-level beta");
        return;
      }
      regs.push_back(lower_reg(beta_pos[static_cast<size_t>(b)], suffix,
                               reg.parts));
    }
    emit_regs(regs, /*alpha=*/false);

    // Writes: keyed ones one step each; non-keyed ones grouped per output
    // (one key probe per match), as runs of consecutive slots written from
    // consecutive alphas with one suffix, then one gather of the rest.
    const std::vector<GroupPlan::Write>& ws = plan_.writes_at_level[l];
    std::vector<bool> done(ws.size(), false);
    for (size_t i = 0; i < ws.size(); ++i) {
      if (done[i]) continue;
      const int output = ws[i].output;
      if (!plan_.outputs[static_cast<size_t>(output)].key_views.empty()) {
        Step s;
        s.kind = StepKind::kKeyedWrite;
        s.dst = static_cast<int32_t>(keyed_writes_.size());
        keyed_writes_.push_back(keyed_write(output, ws[i].slot,
                                            alpha_index(ws[i].alpha),
                                            suffix_index(ws[i].suffix),
                                            ws[i].entry_slots));
        steps_.push_back(s);
        continue;
      }
      Step upsert;
      upsert.kind = StepKind::kUpsert;
      upsert.dst = output;
      steps_.push_back(upsert);
      std::vector<const GroupPlan::Write*> group;
      for (size_t j = i; j < ws.size(); ++j) {
        if (ws[j].output != output) continue;
        group.push_back(&ws[j]);
        done[j] = true;
      }
      auto follows = [&](const GroupPlan::Write& a,
                         const GroupPlan::Write& b) {
        return a.alpha >= 0 && b.alpha >= 0 && b.slot == a.slot + 1 &&
               alpha_index(b.alpha) == alpha_index(a.alpha) + 1 &&
               suffix_index(b.suffix) == suffix_index(a.suffix);
      };
      // Leftover writes gather as registers of the value file's view -1:
      // slot, alpha and suffix in the dst, off and src operands.
      std::vector<Reg> rest;
      for (size_t k = 0; k < group.size();) {
        const GroupPlan::Write& w = *group[k];
        size_t j = k + 1;
        while (j < group.size() && follows(*group[j - 1], *group[j])) ++j;
        if (j - k == 1) {
          rest.push_back(Reg{w.slot, suffix_index(w.suffix), -1,
                             alpha_index(w.alpha), true, 0, 0});
        } else {
          Step s;
          s.kind = StepKind::kWriteRun;
          s.dst = w.slot;
          s.src = suffix_index(w.suffix);
          s.off = alpha_index(w.alpha);
          s.len = static_cast<int32_t>(j - k);
          steps_.push_back(s);
        }
        k = j;
      }
      emit_gathers(StepKind::kWriteGather, &rest);
    }
    ls.end = static_cast<uint32_t>(steps_.size());
  }
  for (const GroupPlan::LeafWrite& lw : plan_.leaf_writes) {
    const uint32_t begin = static_cast<uint32_t>(exec_parts_.size());
    for (const PlanPart& p : lw.parts) lower_part(p);
    leaf_write_parts_.emplace_back(begin,
                                   static_cast<uint32_t>(exec_parts_.size()));
    leaf_keyed_writes_.push_back(
        keyed_write(lw.output, lw.slot, 0, 0, lw.entry_slots));
  }
}

GroupExecutor::ProgramShape GroupExecutor::Shape() const {
  ProgramShape shape;
  for (const Step& s : steps_) {
    switch (s.kind) {
      case StepKind::kAlphaRun:
        ++shape.alpha_runs;
        break;
      case StepKind::kBetaRun:
        ++shape.beta_runs;
        break;
      case StepKind::kBetaPairRun:
        ++shape.beta_pair_runs;
        break;
      case StepKind::kWriteRun:
        ++shape.write_runs;
        break;
      case StepKind::kAlphaGather:
        shape.alpha_gathers += s.len;
        break;
      case StepKind::kBetaGather:
        for (int32_t i = s.off; i < s.off + s.len; ++i) {
          const int32_t src = gather_src_[static_cast<size_t>(i)];
          if (src == 0) {
            ++shape.beta_gathers_one;
          } else if (src < beta_base_) {
            ++shape.beta_gathers_leaf;
          } else {
            ++shape.beta_gathers_beta;
          }
        }
        break;
      case StepKind::kWriteGather:
        shape.write_gathers += s.len;
        break;
      case StepKind::kAlpha:
      case StepKind::kBeta:
        ++shape.generic;
        break;
      case StepKind::kKeyedWrite: {
        const KeyedWrite& w = keyed_writes_[static_cast<size_t>(s.dst)];
        ++shape.keyed_writes;
        shape.max_key_views = std::max(
            shape.max_key_views,
            static_cast<int>(
                plan_.outputs[static_cast<size_t>(w.output)].key_views.size()));
        break;
      }
      case StepKind::kUpsert:
        break;
    }
  }
  return shape;
}

Status GroupExecutor::Validate() const {
  if (views_.size() != plan_.incoming.size()) {
    return Status::InvalidArgument("executor: view count mismatch");
  }
  LMFAO_RETURN_NOT_OK(lowering_status_);
  for (size_t v = 0; v < views_.size(); ++v) {
    if (views_[v].width != plan_.incoming[v].width) {
      return Status::InvalidArgument("executor: view width mismatch");
    }
    // The range-sum and entry-iteration kernels read contiguous payload
    // columns; multi-entry views must therefore arrive columnar
    // (IncomingView::CopyLayout and the plan's freeze layout guarantee
    // it).
    if (plan_.incoming[v].IsMultiEntry() &&
        views_[v].payload_layout != PayloadLayout::kColumnar) {
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
    view_range_[v * level_stride_] = Range{0, views_[v].size};
  }
  bound_.assign(static_cast<size_t>(levels) + 1, 0);
  bound_payload_.assign(views_.size(), nullptr);
  vals_.assign(static_cast<size_t>(alpha_base_) + plan_.alphas.size(), 0.0);
  vals_[0] = 1.0;
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
  // The write paths hand raw key_sources-sized spans to Upsert (which
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
    LeafLoop(rel_range_[0]);
  } else {
    IterateLevel(1);
    LMFAO_RETURN_NOT_OK(abort_status_);
  }
  // Level 0 holds only the writes of outputs with empty write level; their
  // beta values are sums over this range only, so every piece emits and
  // the caller merges.
  RunSteps(level_steps_[0].exit, level_steps_[0].end, 0);
  return Status::OK();
}

void GroupExecutor::IterateLevel(int level) {
  // The level's betas start every parent value at zero.
  std::fill(vals_.begin() + beta_level_begin_[static_cast<size_t>(level)],
            vals_.begin() + beta_level_begin_[static_cast<size_t>(level) + 1],
            0.0);
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
    vcols[i] = views_[static_cast<size_t>(vps[i].first)].col(vps[i].second);
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
    const ViewArrays& cv = views_[static_cast<size_t>(v)];
    bound_payload_[static_cast<size_t>(v)] =
        cv.payload_base + r.lo * cv.payload_entry_stride;
  }
  const LevelSteps& ls = level_steps_[static_cast<size_t>(level)];
  RunSteps(ls.entry, ls.exit, level);
  if (level == plan_.num_levels()) {
    LeafLoop(rel_range_[static_cast<size_t>(level)]);
  } else {
    IterateLevel(level + 1);
    if (!abort_status_.ok()) return;
  }
  RunSteps(ls.exit, ls.end, level);
}

void GroupExecutor::LeafLoop(const Range& range) {
  std::fill(vals_.begin() + 1, vals_.begin() + beta_base_, 0.0);
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
  for (size_t s = 0; s < plan_.leaf_sums.size(); ++s) {
    vals_[1 + s] += ScratchProductSum(plan_.leaf_sums[s].factor_ids, rows);
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
      // parameters were flattened into the part, so no Function object (or
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
      const size_t v = static_cast<size_t>(part.view_index);
      return bound_payload_[v][static_cast<size_t>(part.slot) *
                               views_[v].payload_slot_stride];
    }
    case PlanPart::Kind::kViewRangeSum: {
      const Range r = ViewRangeAt(part.view_index, part.level);
      const ViewArrays& v = views_[static_cast<size_t>(part.view_index)];
      if (part.range_sum_id >= 0 &&
          static_cast<size_t>(part.range_sum_id) < range_sum_cache_.size()) {
        RangeSumCache& c =
            range_sum_cache_[static_cast<size_t>(part.range_sum_id)];
        if (c.lo == r.lo && c.hi == r.hi) return c.sum;
        const double sum = SumRange(v.pcol(part.slot), r.lo, r.hi);
        c.lo = r.lo;
        c.hi = r.hi;
        c.sum = sum;
        return sum;
      }
      return SumRange(v.pcol(part.slot), r.lo, r.hi);
    }
  }
  return 1.0;
}

void GroupExecutor::RunSteps(uint32_t begin, uint32_t end, int level) {
  double* const v = vals_.data();
  const int32_t* const gd = gather_dst_.data();
  const int32_t* const go = gather_off_.data();
  const int32_t* const gs = gather_src_.data();
  double* o = nullptr;  // Payload of the last upserted output.
  for (uint32_t i = begin; i < end; ++i) {
    const Step& s = steps_[i];
    const double* p =
        s.view >= 0 ? bound_payload_[static_cast<size_t>(s.view)] : v;
    const int32_t gend = s.off + s.len;
    switch (s.kind) {
      case StepKind::kAlphaRun: {
        const double a = v[s.src];
        const double* q = p + s.off;
        double* d = v + s.dst;
        for (int32_t k = 0; k < s.len; ++k) d[k] = q[k] * a;
        break;
      }
      case StepKind::kAlphaGather:
        for (int32_t k = s.off; k < gend; ++k) v[gd[k]] = p[go[k]] * v[gs[k]];
        break;
      case StepKind::kBetaRun: {
        const double x = v[s.src];
        const double* q = p + s.off;
        double* d = v + s.dst;
        for (int32_t k = 0; k < s.len; ++k) d[k] += q[k] * x;
        break;
      }
      case StepKind::kBetaPairRun: {
        const double* x = v + s.src;
        const double* q = p + s.off;
        double* d = v + s.dst;
        for (int32_t k = 0; k < s.len; ++k) d[k] += q[k] * x[k];
        break;
      }
      case StepKind::kBetaGather:
        for (int32_t k = s.off; k < gend; ++k) v[gd[k]] += p[go[k]] * v[gs[k]];
        break;
      case StepKind::kAlpha:
      case StepKind::kBeta: {
        double x = v[s.src];
        for (int32_t k = s.off; k < gend; ++k) {
          x *= EvalExecPart(exec_parts_[static_cast<size_t>(k)]);
        }
        if (s.kind == StepKind::kAlpha) {
          v[s.dst] = x;
        } else {
          v[s.dst] += x;
        }
        break;
      }
      case StepKind::kUpsert: {
        const uint32_t kb = output_key_begin_[static_cast<size_t>(s.dst)];
        const int key_n = static_cast<int>(
            output_key_begin_[static_cast<size_t>(s.dst) + 1] - kb);
        int64_t key[TupleKey::kMaxArity];
        for (int c = 0; c < key_n; ++c) {
          key[c] = bound_[static_cast<size_t>(key_comps_[kb + c].level)];
        }
        o = outputs_[static_cast<size_t>(s.dst)]->Upsert(key);
        break;
      }
      case StepKind::kWriteRun: {
        const double x = v[s.src];
        const double* a = v + s.off;
        double* d = o + s.dst;
        for (int32_t k = 0; k < s.len; ++k) d[k] += a[k] * x;
        break;
      }
      case StepKind::kWriteGather:
        for (int32_t k = s.off; k < gend; ++k) o[gd[k]] += v[go[k]] * v[gs[k]];
        break;
      case StepKind::kKeyedWrite: {
        const KeyedWrite& w = keyed_writes_[static_cast<size_t>(s.dst)];
        EmitKeyedWrite(w, v[w.alpha] * v[w.suffix], level);
        break;
      }
    }
  }
}

void GroupExecutor::EmitKeyedWrite(const KeyedWrite& w, double base,
                                   int level) {
  // Raw packed key buffer: only the output's actual arity is touched, and
  // the raw-span Upsert skips the inline-tuple handle entirely.
  const size_t output = static_cast<size_t>(w.output);
  const KeyComp* comps = key_comps_.data() + output_key_begin_[output];
  const int key_n =
      static_cast<int>(output_key_begin_[output + 1] -
                       output_key_begin_[output]);
  int64_t key[TupleKey::kMaxArity];
  // Fill level-sourced components once.
  for (int i = 0; i < key_n; ++i) {
    if (comps[i].col == nullptr) {
      key[i] = bound_[static_cast<size_t>(comps[i].level)];
    }
  }
  const std::vector<int>& key_views = plan_.outputs[output].key_views;
  if (key_views.empty()) {
    outputs_[output]->Upsert(key)[w.slot] += base;
    return;
  }
  // Iterate the cross product of the key views' entry ranges.
  const size_t nv = key_views.size();
  if (entry_cursor_.size() < nv) {
    entry_cursor_.resize(nv);
    write_ranges_.resize(nv);
  }
  for (size_t i = 0; i < nv; ++i) {
    write_ranges_[i] = ViewRangeAt(key_views[i], level);
    if (write_ranges_[i].empty()) return;
    entry_cursor_[i] = write_ranges_[i].lo;
  }
  const double* const* pcols = keyed_pcols_.data() + w.pcols;
  for (;;) {
    double value = base;
    for (size_t i = 0; i < nv; ++i) value *= pcols[i][entry_cursor_[i]];
    for (int i = 0; i < key_n; ++i) {
      if (comps[i].col != nullptr) {
        key[i] = comps[i].col[entry_cursor_[static_cast<size_t>(
            comps[i].cursor)]];
      }
    }
    outputs_[output]->Upsert(key)[w.slot] += value;
    // Advance the odometer.
    size_t i = 0;
    for (; i < nv; ++i) {
      if (++entry_cursor_[i] < write_ranges_[i].hi) break;
      entry_cursor_[i] = write_ranges_[i].lo;
    }
    if (i == nv) break;
  }
}

void GroupExecutor::EmitLeafWriteBatch(size_t leaf_write_index, size_t rows) {
  // The view parts are loop-invariant over the leaf range and the per-row
  // factor product distributes over the row sum, so one whole-range write
  // replaces the old per-row emission (same keys: the key components come
  // from bound levels and view entries, never from the row).
  double base = 1.0;
  const auto& [part_begin, part_end] = leaf_write_parts_[leaf_write_index];
  for (uint32_t p = part_begin; p < part_end; ++p) {
    base *= EvalExecPart(exec_parts_[p]);
  }
  base *= ScratchProductSum(plan_.leaf_writes[leaf_write_index].factor_ids,
                            rows);
  EmitKeyedWrite(leaf_keyed_writes_[leaf_write_index], base,
                 plan_.num_levels());
}

}  // namespace lmfao
