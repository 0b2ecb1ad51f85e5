#include "engine/codegen.h"

#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace lmfao {
namespace {

/// Collects the relation columns used by a plan.
std::set<int> UsedColumns(const GroupPlan& plan) {
  std::set<int> cols;
  for (int c : plan.level_column) cols.insert(c);
  for (const auto& sum : plan.leaf_sums) {
    for (const auto& [col, fn] : sum.factors) {
      (void)fn;
      cols.insert(col);
    }
  }
  for (const auto& w : plan.leaf_writes) {
    for (const auto& [col, fn] : w.leaf_factors) {
      (void)fn;
      cols.insert(col);
    }
  }
  return cols;
}

/// Visits every Function the plan references (register parts and leaf
/// factors) — the one scan behind dictionary and parameter collection.
template <typename Fn>
void ForEachFunction(const GroupPlan& plan, Fn&& visit) {
  auto scan_parts = [&visit](const std::vector<PlanPart>& parts) {
    for (const PlanPart& p : parts) {
      if (!p.is_view()) visit(p.factor.fn);
    }
  };
  for (const auto& a : plan.alphas) scan_parts(a.parts);
  for (const auto& b : plan.betas) scan_parts(b.parts);
  for (const auto& s : plan.leaf_sums) {
    for (const auto& [col, fn] : s.factors) {
      (void)col;
      visit(fn);
    }
  }
  for (const auto& w : plan.leaf_writes) {
    scan_parts(w.parts);
    for (const auto& [col, fn] : w.leaf_factors) {
      (void)col;
      visit(fn);
    }
  }
}

/// Collects dictionary functions referenced by the plan.
std::set<const FunctionDict*> UsedDicts(const GroupPlan& plan) {
  std::set<const FunctionDict*> dicts;
  ForEachFunction(plan, [&dicts](const Function& fn) {
    if (fn.kind() == FunctionKind::kDictionary) dicts.insert(fn.dict().get());
  });
  return dicts;
}

/// Distinct parameter slots referenced by the plan, sorted (the dense
/// order the runtime host marshals LmfaoJitInput::params in).
std::vector<ParamId> UsedParams(const GroupPlan& plan) {
  std::set<ParamId> ids;
  ForEachFunction(plan, [&ids](const Function& fn) {
    if (fn.IsParameterized()) ids.insert(fn.param());
  });
  return std::vector<ParamId>(ids.begin(), ids.end());
}

const char* IndicatorOpStr(FunctionKind kind) {
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
      LMFAO_CHECK(false) << "not an indicator kind";
      return "";
  }
}

/// Binary-search helpers every emitted loop nest uses. Emitted once per
/// translation unit.
const char kSearchHelpers[] =
    "static inline size_t seek(const int64_t* a, size_t lo, size_t hi, "
    "int64_t v) {\n"
    "  while (lo < hi) {\n"
    "    size_t mid = (lo + hi) / 2;\n"
    "    if (a[mid] < v) lo = mid + 1; else hi = mid;\n"
    "  }\n"
    "  return lo;\n"
    "}\n"
    "static inline size_t run_end(const int64_t* a, size_t lo, size_t hi, "
    "int64_t v) {\n"
    "  while (lo < hi) {\n"
    "    size_t mid = (lo + hi) / 2;\n"
    "    if (a[mid] <= v) lo = mid + 1; else hi = mid;\n"
    "  }\n"
    "  return lo;\n"
    "}\n";

/// Range-sum helper: the interpreter's exact four-accumulator reduction
/// shape (payload_columns.h SumRange), so generated code and interpreter
/// produce bit-identical range sums on all data.
const char kSumRangeHelper[] =
    "static inline double sum_range(const double* col, size_t lo, size_t "
    "hi) {\n"
    "  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;\n"
    "  size_t i = lo;\n"
    "  for (; i + 4 <= hi; i += 4) {\n"
    "    s0 += col[i];\n"
    "    s1 += col[i + 1];\n"
    "    s2 += col[i + 2];\n"
    "    s3 += col[i + 3];\n"
    "  }\n"
    "  for (; i < hi; ++i) s0 += col[i];\n"
    "  return (s0 + s1) + (s2 + s3);\n"
    "}\n";

/// A double as a C++ literal. Finite values print with %.17g, which round-
/// trips; non-finite ones, which %.17g prints as the non-C++ `inf`/`nan`,
/// become compiler builtins.
std::string DoubleLiteral(double v) {
  if (std::isnan(v)) return "__builtin_nan(\"\")";
  if (std::isinf(v)) return v > 0 ? "__builtin_inf()" : "(-__builtin_inf())";
  return StringPrintf("%.17g", v);
}

/// Emits one dictionary function definition as a dense switch table.
void EmitDictDefinition(std::ostringstream& out, const std::string& symbol,
                        const FunctionDict& d) {
  out << "static double " << symbol << "(double x) {\n";
  out << "  switch (static_cast<int64_t>(x)) {\n";
  for (const auto& [k, v] : d.table) {
    out << "    case " << k << "ll: return " << DoubleLiteral(v) << ";\n";
  }
  out << "    default: return " << DoubleLiteral(d.default_value)
      << ";\n  }\n}\n\n";
}

/// Emitter for one group's function, `extern "C" lmfao_jit_group_<id>`.
///
/// The loop-nest / register / write lowering emits against local aliases
/// (rel_<attr>, v<N>_size / _k<C> / _payload / _estride / _sstride, par<K>,
/// up<O>) that the prologue binds to the LmfaoJitInput ABI struct (jit.h):
/// payload strides come from the view descriptors so row-major and
/// borrowed-columnar layouts both work; writes go through the host upsert
/// callback; parameterized thresholds read the dense params array.
///
/// The function scans rows [0, rel_rows): the host passes a domain-shard
/// block or split slice as a shorter relation (columns offset to its first
/// row), so the emitted code knows nothing of shards.
class GroupEmitter {
 public:
  GroupEmitter(const GroupPlan& plan, const Workload& workload,
               const Catalog& catalog,
               const std::map<const FunctionDict*, std::string>& dict_syms)
      : plan_(plan),
        workload_(workload),
        catalog_(catalog),
        rel_(catalog.relation(plan.node)),
        dict_syms_(dict_syms),
        param_order_(UsedParams(plan)) {
    const std::set<int> cols = UsedColumns(plan);
    used_cols_.assign(cols.begin(), cols.end());
    for (size_t i = 0; i < param_order_.size(); ++i) {
      param_dense_[param_order_[i]] = static_cast<int>(i);
    }
  }

  std::string EmitFunction() {
    std::ostringstream out;
    EmitHeaderComment(out);
    EmitBody(out);
    return out.str();
  }

  const std::vector<int>& used_cols() const { return used_cols_; }
  const std::vector<ParamId>& param_order() const { return param_order_; }
  std::string Symbol() const {
    return "lmfao_jit_group_" + std::to_string(plan_.group_id);
  }

 private:
  int ViewArity(const GroupPlan::IncomingView& in) const {
    return static_cast<int>(in.key_perm.size() + in.extra_perm.size());
  }

  void EmitHeaderComment(std::ostringstream& out) {
    out << "// Generated by LMFAO's Code Generation layer.\n";
    out << "// Group " << plan_.group_id << " over relation " << rel_.name()
        << "; attribute order:";
    for (AttrId a : plan_.attr_order) out << " " << catalog_.attr(a).name;
    out << "\n// Outputs:";
    for (const auto& o : plan_.outputs) {
      out << " " << workload_.view(o.view).ToString(catalog_);
    }
    out << "\n\n";
  }

  std::string RelCol(int col) {
    return "rel_" + catalog_.attr(rel_.schema().attr(col)).name;
  }

  std::string DictSymbol(const FunctionDict* d) const {
    const auto it = dict_syms_.find(d);
    LMFAO_CHECK(it != dict_syms_.end());
    return it->second;
  }

  std::string ParamVar(ParamId id) const {
    const auto it = param_dense_.find(id);
    LMFAO_CHECK(it != param_dense_.end());
    return "par" + std::to_string(it->second);
  }

  std::string OutputName(int o) const {
    const ViewInfo& info =
        workload_.view(plan_.outputs[static_cast<size_t>(o)].view);
    if (info.IsQueryOutput()) return "Q" + std::to_string(info.query_id);
    return "V" + std::to_string(info.id);
  }

  std::string RangeSumVar(const PlanPart& p) const {
    return "rs_v" + std::to_string(p.view_index) + "_s" +
           std::to_string(p.slot) + "_l" + std::to_string(p.level);
  }

  /// Emits accumulation statements for the distinct range-sum parts of
  /// `parts` (idempotent per level via the emitted set).
  void EmitRangeSums(std::ostringstream& out, int depth,
                     const std::vector<PlanPart>& parts,
                     std::set<std::string>* emitted) {
    for (const PlanPart& p : parts) {
      if (p.kind != PlanPart::Kind::kViewRangeSum) continue;
      const std::string var = RangeSumVar(p);
      if (!emitted->insert(var).second) continue;
      // Unit-stride scan of one contiguous payload column (multi-entry
      // views are columnar: entry stride 1 — the runtime host enforces
      // this before dispatching to generated code).
      Indent(out, depth);
      out << "const double " << var << " = sum_range(v" << p.view_index
          << "_payload + " << p.slot << " * v" << p.view_index
          << "_sstride, v" << p.view_index << "_lo" << p.level << ", v"
          << p.view_index << "_hi" << p.level << ");\n";
    }
  }

  /// The C++ expression of one unary factor applied to `arg`.
  std::string FactorExpr(const Function& fn, const std::string& arg) const {
    switch (fn.kind()) {
      case FunctionKind::kIdentity:
        return arg;
      case FunctionKind::kSquare:
        return "(" + arg + " * " + arg + ")";
      case FunctionKind::kDictionary:
        return DictSymbol(fn.dict().get()) + "(" + arg + ")";
      default: {
        const std::string threshold = fn.IsParameterized()
                                          ? ParamVar(fn.param())
                                          : DoubleLiteral(fn.threshold());
        return "((" + arg + " " + IndicatorOpStr(fn.kind()) + " " +
               threshold + ") ? 1.0 : 0.0)";
      }
    }
  }

  std::string PartExpr(const PlanPart& p) {
    switch (p.kind) {
      case PlanPart::Kind::kViewPayload: {
        // One slot of the entry the view is bound to at its bind level;
        // the stride aliases make the same expression correct for
        // row-major and columnar layouts.
        const auto& in = plan_.incoming[static_cast<size_t>(p.view_index)];
        const std::string v = std::to_string(p.view_index);
        return "v" + v + "_payload[v" + v + "_lo" +
               std::to_string(in.bound_level) + " * v" + v + "_estride + " +
               std::to_string(p.slot) + " * v" + v + "_sstride]";
      }
      case PlanPart::Kind::kViewRangeSum:
        return RangeSumVar(p);
      case PlanPart::Kind::kFactor: {
        const std::string var =
            "x" + std::to_string(p.level) + "_" +
            catalog_.attr(
                    plan_.attr_order[static_cast<size_t>(p.level) - 1])
                .name;
        return FactorExpr(p.factor.fn, "static_cast<double>(" + var + ")");
      }
    }
    return "1.0";
  }

  std::string SuffixExpr(const GroupPlan::Suffix& s) {
    switch (s.kind) {
      case GroupPlan::SuffixKind::kOne:
        return "1.0";
      case GroupPlan::SuffixKind::kLeaf:
        return "leaf" + std::to_string(s.index);
      case GroupPlan::SuffixKind::kBeta:
        return "beta" + std::to_string(s.index);
    }
    return "1.0";
  }

  void Indent(std::ostringstream& out, int depth) {
    for (int i = 0; i < depth; ++i) out << "  ";
  }

  /// The prologue: binds every alias the body reads.
  void EmitAliases(std::ostringstream& out) {
    out << "  const size_t rel_rows = static_cast<size_t>(in->rel_rows); "
           "(void)rel_rows;\n";
    for (size_t i = 0; i < used_cols_.size(); ++i) {
      const AttrInfo& info = catalog_.attr(rel_.schema().attr(used_cols_[i]));
      const char* type = info.type == AttrType::kInt ? "int64_t" : "double";
      out << "  const " << type << "* rel_" << info.name
          << " = static_cast<const " << type << "*>(in->rel_cols[" << i
          << "]); (void)rel_" << info.name << ";\n";
    }
    for (size_t v = 0; v < plan_.incoming.size(); ++v) {
      const auto& in = plan_.incoming[v];
      out << "  const size_t v" << v << "_size = "
          << "static_cast<size_t>(in->views[" << v << "].size); (void)v" << v
          << "_size;\n";
      for (int c = 0; c < ViewArity(in); ++c) {
        out << "  const int64_t* v" << v << "_k" << c << " = in->views[" << v
            << "].keys[" << c << "]; (void)v" << v << "_k" << c << ";\n";
      }
      out << "  const double* v" << v << "_payload = in->views[" << v
          << "].payload; (void)v" << v << "_payload;\n";
      out << "  const size_t v" << v << "_estride = "
          << "static_cast<size_t>(in->views[" << v
          << "].entry_stride); (void)v" << v << "_estride;\n";
      out << "  const size_t v" << v << "_sstride = "
          << "static_cast<size_t>(in->views[" << v
          << "].slot_stride); (void)v" << v << "_sstride;\n";
    }
    for (size_t i = 0; i < param_order_.size(); ++i) {
      out << "  const double par" << i << " = in->params[" << i
          << "]; (void)par" << i << ";\n";
    }
    for (size_t o = 0; o < plan_.outputs.size(); ++o) {
      out << "  auto up" << o
          << " = [&](const int64_t* k) -> double* { return "
             "out->upsert(out->ctx, "
          << o << ", k); }; (void)up" << o << ";\n";
    }
  }

  void EmitBody(std::ostringstream& out) {
    out << "extern \"C\" void " << Symbol()
        << "(const LmfaoJitInput* in, LmfaoJitOutput* out) {\n";
    EmitAliases(out);
    for (size_t a = 0; a < plan_.alphas.size(); ++a) {
      out << "  double alpha" << a << " = 0.0; (void)alpha" << a << ";\n";
    }
    for (size_t b = 0; b < plan_.betas.size(); ++b) {
      out << "  double beta" << b << " = 0.0; (void)beta" << b << ";\n";
    }
    for (size_t l = 0; l < plan_.leaf_sums.size(); ++l) {
      out << "  double leaf" << l << " = 0.0; (void)leaf" << l << ";\n";
    }
    out << "  size_t r_lo0 = 0, r_hi0 = rel_rows;\n";
    out << "  (void)r_lo0; (void)r_hi0;\n";
    for (size_t v = 0; v < plan_.incoming.size(); ++v) {
      out << "  size_t v" << v << "_lo0 = 0, v" << v << "_hi0 = v" << v
          << "_size;\n";
      out << "  (void)v" << v << "_lo0; (void)v" << v << "_hi0;\n";
    }
    const int levels = plan_.num_levels();
    if (levels == 0) {
      EmitLeaf(out, 1, 0);
      EmitWrites(out, 1, 0);
    } else {
      for (int b : plan_.betas_at_level[1]) {
        out << "  beta" << b << " = 0.0;\n";
      }
      EmitLevel(out, 1, 1);
      EmitWrites(out, 1, 0);
    }
    out << "}\n";
  }

  void EmitLevel(std::ostringstream& out, int depth, int level) {
    const int col = plan_.level_column[static_cast<size_t>(level - 1)];
    const std::string attr =
        catalog_.attr(plan_.attr_order[static_cast<size_t>(level - 1)]).name;
    std::vector<std::pair<int, int>> vps;  // (view, component)
    for (size_t v = 0; v < plan_.incoming.size(); ++v) {
      const auto& in = plan_.incoming[v];
      for (size_t c = 0; c < in.key_levels.size(); ++c) {
        if (in.key_levels[c] == level) {
          vps.emplace_back(static_cast<int>(v), static_cast<int>(c));
        }
      }
    }
    const std::string p = std::to_string(level - 1);
    const std::string l = std::to_string(level);

    Indent(out, depth);
    out << "// level " << level << ": " << attr << "\n";
    Indent(out, depth);
    out << "{\n";
    ++depth;
    Indent(out, depth);
    out << "size_t r_pos = r_lo" << p << ";\n";
    for (const auto& [v, c] : vps) {
      Indent(out, depth);
      out << "size_t v" << v << "_pos = v" << v << "_lo" << p << ";\n";
    }
    Indent(out, depth);
    out << "while (true) {\n";
    ++depth;
    Indent(out, depth);
    out << "if (r_pos >= r_hi" << p << ") break;\n";
    for (const auto& [v, c] : vps) {
      Indent(out, depth);
      out << "if (v" << v << "_pos >= v" << v << "_hi" << p << ") break;\n";
    }
    Indent(out, depth);
    out << "int64_t x" << l << "_" << attr << " = " << RelCol(col)
        << "[r_pos];\n";
    Indent(out, depth);
    out << "bool again = true;\n";
    Indent(out, depth);
    out << "while (again) {\n";
    ++depth;
    Indent(out, depth);
    out << "again = false;\n";
    Indent(out, depth);
    out << "r_pos = seek(" << RelCol(col) << ", r_pos, r_hi" << p << ", x"
        << l << "_" << attr << ");\n";
    Indent(out, depth);
    out << "if (r_pos >= r_hi" << p << ") goto done_" << level << ";\n";
    Indent(out, depth);
    out << "if (" << RelCol(col) << "[r_pos] != x" << l << "_" << attr
        << ") { x" << l << "_" << attr << " = " << RelCol(col)
        << "[r_pos]; again = true; }\n";
    for (const auto& [v, c] : vps) {
      const std::string key =
          "v" + std::to_string(v) + "_k" + std::to_string(c);
      Indent(out, depth);
      out << "v" << v << "_pos = seek(" << key << ", v" << v << "_pos, v" << v
          << "_hi" << p << ", x" << l << "_" << attr << ");\n";
      Indent(out, depth);
      out << "if (v" << v << "_pos >= v" << v << "_hi" << p << ") goto done_"
          << level << ";\n";
      Indent(out, depth);
      out << "if (" << key << "[v" << v << "_pos] != x" << l << "_" << attr
          << ") { x" << l << "_" << attr << " = " << key << "[v" << v
          << "_pos]; again = true; }\n";
    }
    --depth;
    Indent(out, depth);
    out << "}\n";
    Indent(out, depth);
    out << "size_t r_lo" << l << " = r_pos;\n";
    Indent(out, depth);
    out << "size_t r_hi" << l << " = run_end(" << RelCol(col) << ", r_pos, "
        << "r_hi" << p << ", x" << l << "_" << attr << ");\n";
    for (size_t v = 0; v < plan_.incoming.size(); ++v) {
      bool participates = false;
      int comp = -1;
      for (const auto& [pv, pc] : vps) {
        if (pv == static_cast<int>(v)) {
          participates = true;
          comp = pc;
        }
      }
      Indent(out, depth);
      if (participates) {
        out << "size_t v" << v << "_lo" << l << " = v" << v << "_pos;\n";
        Indent(out, depth);
        out << "size_t v" << v << "_hi" << l << " = run_end(v" << v << "_k"
            << comp << ", v" << v << "_pos, v" << v << "_hi" << p << ", x"
            << l << "_" << attr << ");\n";
      } else {
        out << "size_t v" << v << "_lo" << l << " = v" << v << "_lo" << p
            << ";\n";
        Indent(out, depth);
        out << "size_t v" << v << "_hi" << l << " = v" << v << "_hi" << p
            << ";\n";
      }
      Indent(out, depth);
      out << "(void)v" << v << "_lo" << l << "; (void)v" << v << "_hi" << l
          << ";\n";
    }
    // Alphas at this level (with any range sums they need).
    std::set<std::string> emitted_sums;
    for (int a : plan_.alphas_at_level[static_cast<size_t>(level)]) {
      const auto& reg = plan_.alphas[static_cast<size_t>(a)];
      EmitRangeSums(out, depth, reg.parts, &emitted_sums);
      Indent(out, depth);
      out << "alpha" << a << " = ";
      bool first = true;
      if (reg.prev >= 0) {
        out << "alpha" << reg.prev;
        first = false;
      }
      for (const PlanPart& part : reg.parts) {
        if (!first) out << " * ";
        first = false;
        out << PartExpr(part);
      }
      if (first) out << "1.0";
      out << ";\n";
    }
    if (level == plan_.num_levels()) {
      for (size_t s = 0; s < plan_.leaf_sums.size(); ++s) {
        Indent(out, depth);
        out << "leaf" << s << " = 0.0;\n";
      }
      EmitLeaf(out, depth, level);
    } else {
      for (int b : plan_.betas_at_level[static_cast<size_t>(level + 1)]) {
        Indent(out, depth);
        out << "beta" << b << " = 0.0;\n";
      }
      EmitLevel(out, depth, level + 1);
    }
    for (int b : plan_.betas_at_level[static_cast<size_t>(level)]) {
      const auto& reg = plan_.betas[static_cast<size_t>(b)];
      EmitRangeSums(out, depth, reg.parts, &emitted_sums);
      Indent(out, depth);
      // Suffix first: the accumulation associates exactly like the
      // interpreter's (suffix, then each part in order).
      out << "beta" << b << " += " << SuffixExpr(reg.next);
      for (const PlanPart& part : reg.parts) {
        out << " * " << PartExpr(part);
      }
      out << ";\n";
    }
    EmitWrites(out, depth, level);
    Indent(out, depth);
    out << "r_pos = r_hi" << l << ";\n";
    for (const auto& [v, c] : vps) {
      Indent(out, depth);
      out << "v" << v << "_pos = v" << v << "_hi" << l << ";\n";
    }
    --depth;
    Indent(out, depth);
    out << "}\n";
    Indent(out, depth);
    out << "done_" << level << ":;\n";
    --depth;
    Indent(out, depth);
    out << "}\n";
  }

  /// Emits the key-array initializer for `output` from bound level values
  /// and (for view-sourced components) the given odometer cursors.
  void EmitKeyArray(std::ostringstream& out, int depth, int output,
                    const char* name) {
    const auto& o = plan_.outputs[static_cast<size_t>(output)];
    Indent(out, depth);
    out << "int64_t " << name << "[" << o.key_sources.size() << "] = {";
    for (size_t i = 0; i < o.key_sources.size(); ++i) {
      if (i > 0) out << ", ";
      const auto& src = o.key_sources[i];
      if (src.from_level) {
        out << "x" << src.level << "_"
            << catalog_
                   .attr(plan_.attr_order[static_cast<size_t>(src.level) - 1])
                   .name;
      } else {
        size_t kv = 0;
        for (; kv < o.key_views.size(); ++kv) {
          if (o.key_views[kv] == src.view_index) break;
        }
        out << "v" << src.view_index << "_k" << src.comp << "[e" << kv
            << "]";
      }
    }
    out << "};\n";
  }

  /// Emits one write: the odometer over key-view entry ranges, the key
  /// expression, and the accumulation through the output's upsert alias.
  void EmitWriteBody(std::ostringstream& out, int depth, int output,
                     int slot, const std::string& value_expr, int level,
                     const std::vector<int>& entry_slots) {
    const auto& o = plan_.outputs[static_cast<size_t>(output)];
    int d = depth;
    // Open one loop per key view.
    for (size_t kv = 0; kv < o.key_views.size(); ++kv) {
      const int v = o.key_views[kv];
      Indent(out, d);
      out << "for (size_t e" << kv << " = v" << v << "_lo" << level << "; e"
          << kv << " < v" << v << "_hi" << level << "; ++e" << kv << ") {\n";
      ++d;
    }
    std::string probe = "up" + std::to_string(output) + "(nullptr)";
    if (!o.key_sources.empty()) {
      EmitKeyArray(out, d, output, "wkey");
      probe = "up" + std::to_string(output) + "(wkey)";
    }
    Indent(out, d);
    out << probe << "[" << slot << "] += " << value_expr;
    for (size_t kv = 0; kv < o.key_views.size(); ++kv) {
      const int v = o.key_views[kv];
      out << " * v" << v << "_payload[e" << kv << " * v" << v
          << "_estride + " << entry_slots[kv] << " * v" << v << "_sstride]";
    }
    out << ";\n";
    for (size_t kv = 0; kv < o.key_views.size(); ++kv) {
      --d;
      Indent(out, d);
      out << "}\n";
    }
  }

  void EmitLeaf(std::ostringstream& out, int depth, int level) {
    const std::string l = std::to_string(level);
    // Range sums used by leaf writes are loop-invariant: emit before rows.
    std::set<std::string> emitted_sums;
    for (const auto& w : plan_.leaf_writes) {
      EmitRangeSums(out, depth, w.parts, &emitted_sums);
    }
    Indent(out, depth);
    out << "for (size_t row = r_lo" << l << "; row < r_hi" << l
        << "; ++row) {\n";
    ++depth;
    for (size_t s = 0; s < plan_.leaf_sums.size(); ++s) {
      Indent(out, depth);
      out << "leaf" << s << " += ";
      const auto& factors = plan_.leaf_sums[s].factors;
      if (factors.empty()) {
        out << "1.0";
      } else {
        for (size_t f = 0; f < factors.size(); ++f) {
          if (f > 0) out << " * ";
          out << FactorExpr(
              factors[f].second,
              "static_cast<double>(" + RelCol(factors[f].first) + "[row])");
        }
      }
      out << ";\n";
    }
    for (const auto& w : plan_.leaf_writes) {
      Indent(out, depth);
      out << "{\n";
      std::string value = "1.0";
      for (const PlanPart& part : w.parts) value += " * " + PartExpr(part);
      for (const auto& [col, fn] : w.leaf_factors) {
        value += " * " + FactorExpr(fn, "static_cast<double>(" +
                                            RelCol(col) + "[row])");
      }
      EmitWriteBody(out, depth + 1, w.output, w.slot, value, level,
                    w.entry_slots);
      Indent(out, depth);
      out << "}\n";
    }
    --depth;
    Indent(out, depth);
    out << "}\n";
  }

  void EmitWrites(std::ostringstream& out, int depth, int level) {
    const auto& writes = plan_.writes_at_level[static_cast<size_t>(level)];
    size_t i = 0;
    while (i < writes.size()) {
      const auto& w = writes[i];
      const auto& o = plan_.outputs[static_cast<size_t>(w.output)];
      auto value_of = [this](const GroupPlan::Write& wr) {
        if (wr.alpha >= 0) {
          return "alpha" + std::to_string(wr.alpha) + " * " +
                 SuffixExpr(wr.suffix);
        }
        return SuffixExpr(wr.suffix);
      };
      if (!o.key_views.empty()) {
        Indent(out, depth);
        out << "// " << OutputName(w.output) << " slot " << w.slot << "\n";
        Indent(out, depth);
        out << "{\n";
        EmitWriteBody(out, depth + 1, w.output, w.slot, value_of(w), level,
                      w.entry_slots);
        Indent(out, depth);
        out << "}\n";
        ++i;
        continue;
      }
      // Consecutive writes to the same key-view-free output share one
      // upsert probe per match (the interpreter's WriteOutputs sharing).
      size_t j = i;
      while (j < writes.size() && writes[j].output == w.output &&
             plan_.outputs[static_cast<size_t>(writes[j].output)]
                 .key_views.empty()) {
        ++j;
      }
      Indent(out, depth);
      out << "{\n";
      const int d = depth + 1;
      std::string probe = "up" + std::to_string(w.output) + "(nullptr)";
      if (!o.key_sources.empty()) {
        EmitKeyArray(out, d, w.output, "wkey");
        probe = "up" + std::to_string(w.output) + "(wkey)";
      }
      Indent(out, d);
      out << "double* p = " << probe << ";\n";
      for (size_t k = i; k < j; ++k) {
        Indent(out, d);
        out << "p[" << writes[k].slot << "] += " << value_of(writes[k])
            << ";  // " << OutputName(writes[k].output) << " slot "
            << writes[k].slot << "\n";
      }
      Indent(out, depth);
      out << "}\n";
      i = j;
    }
  }

  const GroupPlan& plan_;
  const Workload& workload_;
  const Catalog& catalog_;
  const Relation& rel_;
  const std::map<const FunctionDict*, std::string>& dict_syms_;
  std::vector<int> used_cols_;
  std::vector<ParamId> param_order_;
  std::map<ParamId, int> param_dense_;
};

}  // namespace

StatusOr<RuntimeBatchCode> GenerateRuntimeBatchCode(
    const std::vector<GroupPlan>& plans, const Workload& workload,
    const Catalog& catalog) {
  std::ostringstream out;
  out << "// Generated by LMFAO's runtime Code Generation layer: one\n"
         "// translation unit per compiled batch, one extern \"C\" function\n"
         "// per group, dispatched through the LmfaoJit* ABI (engine/"
         "jit.h).\n";
  out << "#include <cstddef>\n#include <cstdint>\n\n";
  // The ABI mirror: struct text duplicated in jit.h, pinned there by
  // static_asserts on sizes and offsets so the two cannot drift silently.
  out << "struct LmfaoJitView {\n"
         "  uint64_t size;\n"
         "  const int64_t* keys[12];  // TupleKey::kMaxArity\n"
         "  const double* payload;\n"
         "  uint64_t entry_stride;\n"
         "  uint64_t slot_stride;\n"
         "};\n"
         "struct LmfaoJitInput {\n"
         "  uint64_t rel_rows;\n"
         "  const void* const* rel_cols;\n"
         "  const LmfaoJitView* views;\n"
         "  const double* params;\n"
         "};\n"
         "struct LmfaoJitOutput {\n"
         "  void* ctx;\n"
         "  double* (*upsert)(void* ctx, int32_t output, const int64_t* "
         "key);\n"
         "};\n\n";
  out << kSearchHelpers;
  out << kSumRangeHelper;
  out << "\n";
  // Dictionary tables: interned per distinct FunctionDict so groups that
  // share a dictionary share one switch table, and same-named dictionaries
  // from different sources cannot collide.
  std::map<const FunctionDict*, std::string> dict_syms;
  for (const GroupPlan& plan : plans) {
    for (const FunctionDict* d : UsedDicts(plan)) {
      if (dict_syms.count(d) != 0) continue;
      std::string symbol =
          "dict_" + std::to_string(dict_syms.size()) + "_" + d->name;
      EmitDictDefinition(out, symbol, *d);
      dict_syms.emplace(d, std::move(symbol));
    }
  }
  RuntimeBatchCode code;
  for (const GroupPlan& plan : plans) {
    GroupEmitter emitter(plan, workload, catalog, dict_syms);
    out << emitter.EmitFunction() << "\n";
    RuntimeGroupMeta meta;
    meta.group_id = plan.group_id;
    meta.symbol = emitter.Symbol();
    meta.used_cols = emitter.used_cols();
    meta.param_order = emitter.param_order();
    code.groups.push_back(std::move(meta));
  }
  code.source = out.str();
  return code;
}

}  // namespace lmfao
