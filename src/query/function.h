/// \file function.h
/// \brief Unary aggregate functions.
///
/// Every LMFAO aggregate is SUM over the join of a *product of unary
/// functions*, each applied to a single attribute (Section 3 of the paper).
/// This file defines the function algebra: identity, square, constants,
/// user dictionaries (the paper's g(item) and h(date)), and threshold
/// indicators (decision-tree conditions `Xj op t` become indicator factors).
///
/// Indicators come in two flavors: *literal* (the threshold is a constant
/// baked into the function) and *parameterized* (the threshold is a named
/// slot, `ParamId`, bound at execution time via a `ParamPack`). Two
/// parameterized functions with the same slot are structurally equal no
/// matter what values are later bound, so a batch built from parameterized
/// functions compiles to ONE artifact that can be executed many times with
/// different constants — the compile-once/execute-many contract of
/// `Engine::Prepare`.

#ifndef LMFAO_QUERY_FUNCTION_H_
#define LMFAO_QUERY_FUNCTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace lmfao {

/// \brief Names a threshold slot of a parameterized function. Slots are
/// dense small integers scoped to one QueryBatch (allocate them 0, 1, 2,
/// ... as the batch is built).
using ParamId = int32_t;

/// Sentinel: the function carries a literal threshold, not a slot.
inline constexpr ParamId kNoParam = -1;

/// \brief Execution-time bindings for parameterized functions: a dense
/// ParamId -> double map.
///
/// Cheap to copy, value-semantic. `PreparedBatch::Execute` validates that
/// every slot the compiled batch references is bound before running.
class ParamPack {
 public:
  ParamPack() = default;

  /// Binds slot `id` (grows the pack as needed). Rebinding overwrites.
  void Set(ParamId id, double value) {
    LMFAO_CHECK_GE(id, 0);
    if (static_cast<size_t>(id) >= values_.size()) {
      values_.resize(static_cast<size_t>(id) + 1, 0.0);
      bound_.resize(static_cast<size_t>(id) + 1, false);
    }
    values_[static_cast<size_t>(id)] = value;
    bound_[static_cast<size_t>(id)] = true;
  }

  bool Has(ParamId id) const {
    return id >= 0 && static_cast<size_t>(id) < bound_.size() &&
           bound_[static_cast<size_t>(id)];
  }

  double Get(ParamId id) const {
    LMFAO_CHECK(Has(id));
    return values_[static_cast<size_t>(id)];
  }

  /// Number of bound slots.
  size_t size() const {
    size_t n = 0;
    for (bool b : bound_) n += b ? 1 : 0;
    return n;
  }
  bool empty() const { return size() == 0; }

 private:
  std::vector<double> values_;
  std::vector<bool> bound_;
};

/// \brief Kinds of unary functions.
enum class FunctionKind : uint8_t {
  kIdentity = 0,   ///< f(x) = x
  kSquare = 1,     ///< f(x) = x^2
  kDictionary = 2, ///< f(x) = dict[x] (missing keys map to a default)
  kIndicatorLe = 3,  ///< f(x) = 1 if x <= t else 0
  kIndicatorLt = 4,  ///< f(x) = 1 if x <  t else 0
  kIndicatorGe = 5,  ///< f(x) = 1 if x >= t else 0
  kIndicatorGt = 6,  ///< f(x) = 1 if x >  t else 0
  kIndicatorEq = 7,  ///< f(x) = 1 if x == t else 0
  kIndicatorNe = 8,  ///< f(x) = 1 if x != t else 0
};

/// \brief Lookup table for user-defined dictionary functions.
///
/// Shared (by pointer) across all factors that reference the same
/// function. Function equality and Function::Signature both go by content,
/// so plans never depend on where a table was allocated.
struct FunctionDict {
  std::string name;
  std::unordered_map<int64_t, double> table;
  double default_value = 0.0;
};

/// \brief A unary function of one numeric argument.
///
/// Cheap to copy; dictionary payloads are shared. Evaluation promotes int
/// attribute values to double (exact below 2^53, which covers all key
/// domains used here).
class Function {
 public:
  /// f(x) = x.
  static Function Identity();
  /// f(x) = x^2.
  static Function Square();
  /// f(x) = dict[x].
  static Function Dictionary(std::shared_ptr<const FunctionDict> dict);
  /// Threshold indicator f(x) = 1 if (x op t) else 0.
  static Function Indicator(FunctionKind op, double threshold);
  /// Parameterized threshold indicator: the threshold is slot `param` of
  /// the ParamPack supplied at execution time. Structural identity (==,
  /// Signature) is the slot, not any bound value.
  static Function IndicatorParam(FunctionKind op, ParamId param);

  FunctionKind kind() const { return kind_; }
  double threshold() const { return threshold_; }
  const std::shared_ptr<const FunctionDict>& dict() const { return dict_; }

  /// The parameter slot, or kNoParam for literal functions.
  ParamId param() const { return param_; }
  bool IsParameterized() const { return param_ != kNoParam; }

  /// The threshold this function evaluates with under `params`: the
  /// literal threshold, or the bound slot value for parameterized
  /// functions (which must then be bound — checked).
  double ResolvedThreshold(const ParamPack* params) const {
    if (param_ == kNoParam) return threshold_;
    LMFAO_CHECK(params != nullptr && params->Has(param_))
        << "unbound function parameter p" << param_;
    return params->Get(param_);
  }

  /// Returns the literal function obtained by substituting the bound slot
  /// value (identity for non-parameterized functions).
  Function Resolve(const ParamPack& params) const;

  /// Evaluates the function. Parameterized functions must be Resolve()d
  /// first (checked).
  double Eval(double x) const;

  /// Structural equality (dictionaries by content: name, default value and
  /// entries, the content hash compared first; parameterized functions by
  /// slot, ignoring any bound value).
  bool operator==(const Function& o) const;
  bool operator!=(const Function& o) const { return !(*this == o); }

  /// Stable 64-bit structural signature for deduplication and canonical
  /// ordering. Parameterized functions hash (kind, slot) — NOT a threshold
  /// value — so batches that differ only in bound constants share one
  /// signature (and one compiled plan in the engine's plan cache).
  /// Dictionaries hash their content (default value and entries in key
  /// order), never their address, so factor and plan-part order — and
  /// with it the floating-point result — is the same in every process.
  uint64_t Signature() const;

  /// Renders e.g. "id", "sq", "g[·]", "(x<=3.5)", "(x<=?p2)".
  std::string ToString() const;

  /// True for indicator kinds.
  bool IsIndicator() const;

 private:
  Function(FunctionKind kind, double threshold,
           std::shared_ptr<const FunctionDict> dict,
           ParamId param = kNoParam)
      : kind_(kind), threshold_(threshold), dict_(std::move(dict)),
        param_(param) {}

  FunctionKind kind_;
  double threshold_;
  std::shared_ptr<const FunctionDict> dict_;
  ParamId param_ = kNoParam;
  /// DictContentHash of `dict_`, computed once by Dictionary().
  uint64_t dict_hash_ = 0;
};

}  // namespace lmfao

#endif  // LMFAO_QUERY_FUNCTION_H_
