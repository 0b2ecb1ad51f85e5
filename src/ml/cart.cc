#include "ml/cart.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "baseline/naive_engine.h"

namespace lmfao {

double DecisionTree::Predict(const Relation& rel, size_t row) const {
  const CartNode* node = root.get();
  while (node != nullptr && !node->is_leaf) {
    const int col = rel.ColumnIndex(node->split.attr);
    LMFAO_CHECK_GE(col, 0);
    const double x = rel.column(col).AsDouble(row);
    const bool goes_left =
        Function::Indicator(node->split.op, node->split.threshold).Eval(x) >
        0.5;
    node = goes_left ? node->left.get() : node->right.get();
  }
  return node == nullptr ? 0.0 : node->prediction;
}

StatusOr<std::vector<QueryResult>> LmfaoCartProvider::EvaluateBatch(
    const QueryBatch& batch, const ParamPack& params) {
  // Prepare routes through the engine's structural plan cache: all node
  // batches sharing this shape (same path attr/op sequence) reuse one
  // compiled artifact and only pay execution here.
  LMFAO_ASSIGN_OR_RETURN(PreparedBatch prepared, engine_->Prepare(batch));
  LMFAO_ASSIGN_OR_RETURN(BatchResult result, prepared.Execute(params));
  return std::move(result.results);
}

StatusOr<std::vector<QueryResult>> ScanCartProvider::EvaluateBatch(
    const QueryBatch& batch, const ParamPack& params) {
  LMFAO_ASSIGN_OR_RETURN(QueryBatch bound, batch.Bind(params));
  return EvaluateBatchSharedScan(*joined_, bound);
}

CartTrainer::CartTrainer(const FeatureSet& features, const Catalog* catalog,
                         CartOptions options)
    : features_(features), catalog_(catalog), options_(options) {
  // Threshold candidates from the base relations (no join needed: a
  // feature's observed values live in the relation that owns it).
  auto column_of = [catalog](AttrId attr) -> const Column* {
    for (RelationId r = 0; r < catalog->num_relations(); ++r) {
      const int col = catalog->relation(r).ColumnIndex(attr);
      if (col >= 0) return &catalog->relation(r).column(col);
    }
    return nullptr;
  };
  for (AttrId attr : features_.continuous) {
    std::vector<double> thresholds;
    const Column* col = column_of(attr);
    if (col != nullptr && col->size() > 0) {
      double lo = col->AsDouble(0);
      double hi = lo;
      for (size_t i = 1; i < col->size(); ++i) {
        lo = std::min(lo, col->AsDouble(i));
        hi = std::max(hi, col->AsDouble(i));
      }
      for (int t = 1; t <= options_.num_thresholds; ++t) {
        thresholds.push_back(
            lo + (hi - lo) * static_cast<double>(t) /
                     static_cast<double>(options_.num_thresholds + 1));
      }
    }
    cont_thresholds_.push_back(std::move(thresholds));
  }
  for (AttrId attr : features_.categorical) {
    std::set<int64_t> values;
    const Column* col = column_of(attr);
    if (col != nullptr) {
      values.insert(col->ints().begin(), col->ints().end());
    }
    cat_values_.emplace_back(values.begin(), values.end());
  }
}

CartNodeBatch CartTrainer::BuildNodeBatch(
    const std::vector<CartCondition>& path) const {
  CartNodeBatch out;
  // Slot allocation is positional and deterministic: path conditions
  // first, then candidates in enumeration order. Two nodes whose paths
  // agree on (attr, op) sequences therefore build byte-identical query
  // structures — the engine's plan cache key — with only these bindings
  // differing.
  ParamId next_param = 0;
  std::vector<Factor> path_factors;
  for (const CartCondition& c : path) {
    path_factors.push_back(c.ToParamFactor(next_param));
    out.params.Set(next_param, c.threshold);
    ++next_param;
  }

  auto make_query = [&](const std::string& name,
                        const std::vector<Factor>& extra) {
    Query q;
    q.name = name;
    std::vector<Factor> base = path_factors;
    base.insert(base.end(), extra.begin(), extra.end());
    // SUM(conds), SUM(conds*Y), SUM(conds*Y^2).
    q.aggregates.push_back(Aggregate(base));
    std::vector<Factor> with_y = base;
    with_y.push_back(Factor{features_.label, Function::Identity()});
    q.aggregates.push_back(Aggregate(with_y));
    std::vector<Factor> with_y2 = base;
    with_y2.push_back(Factor{features_.label, Function::Square()});
    q.aggregates.push_back(Aggregate(with_y2));
    return q;
  };
  auto candidate_factor = [&](AttrId attr, FunctionKind op, double value) {
    Factor f{attr, Function::IndicatorParam(op, next_param)};
    out.params.Set(next_param, value);
    ++next_param;
    return f;
  };

  // Node totals (needed for the complement side of every split).
  out.batch.Add(make_query("node_total", {}));
  for (size_t f = 0; f < features_.continuous.size(); ++f) {
    for (double t : cont_thresholds_[f]) {
      out.batch.Add(make_query(
          "cont_" + std::to_string(f) + "_" + std::to_string(t),
          {candidate_factor(features_.continuous[f],
                            FunctionKind::kIndicatorLe, t)}));
    }
  }
  for (size_t f = 0; f < features_.categorical.size(); ++f) {
    for (int64_t v : cat_values_[f]) {
      out.batch.Add(make_query(
          "cat_" + std::to_string(f) + "_" + std::to_string(v),
          {candidate_factor(features_.categorical[f],
                            FunctionKind::kIndicatorEq,
                            static_cast<double>(v))}));
    }
  }
  return out;
}

int CartTrainer::NodeAggregateCount() const {
  int candidates = 1;  // node_total
  for (const auto& t : cont_thresholds_) {
    candidates += static_cast<int>(t.size());
  }
  for (const auto& v : cat_values_) candidates += static_cast<int>(v.size());
  return candidates * 3;
}

namespace {

/// Variance*count from (count, sum, sum of squares).
double ScaledVariance(double count, double sum, double sum2) {
  if (count <= 0) return 0.0;
  return sum2 - sum * sum / count;
}

/// Reads the 3-slot payload of a no-group-by query result.
void ReadMoments(const QueryResult& r, double* count, double* sum,
                 double* sum2) {
  const double* p = r.data.Lookup(TupleKey());
  *count = p == nullptr ? 0.0 : p[0];
  *sum = p == nullptr ? 0.0 : p[1];
  *sum2 = p == nullptr ? 0.0 : p[2];
}

}  // namespace

Status CartTrainer::GrowNode(CartAggregateProvider* provider,
                             const std::vector<CartCondition>& path,
                             int depth, CartNode* node, int* num_nodes,
                             int* max_depth) {
  *max_depth = std::max(*max_depth, depth);
  const CartNodeBatch node_batch = BuildNodeBatch(path);
  LMFAO_ASSIGN_OR_RETURN(
      std::vector<QueryResult> results,
      provider->EvaluateBatch(node_batch.batch, node_batch.params));

  double total_count, total_sum, total_sum2;
  ReadMoments(results[0], &total_count, &total_sum, &total_sum2);
  node->count = total_count;
  node->prediction = total_count > 0 ? total_sum / total_count : 0.0;
  node->variance = total_count > 0
                       ? ScaledVariance(total_count, total_sum, total_sum2) /
                             total_count
                       : 0.0;
  if (depth >= options_.max_depth ||
      total_count < 2 * options_.min_leaf_count) {
    return Status::OK();
  }

  // Scan all candidates; queries after index 0 follow BuildNodeBatch order.
  SplitCandidate best;
  best.gain = options_.min_variance_gain;
  const double total_scaled_var =
      ScaledVariance(total_count, total_sum, total_sum2);
  size_t qi = 1;
  auto consider = [&](const CartCondition& cond) {
    double c, s, s2;
    ReadMoments(results[qi], &c, &s, &s2);
    ++qi;
    const double rc = total_count - c;
    if (c < options_.min_leaf_count || rc < options_.min_leaf_count) return;
    const double left_var = ScaledVariance(c, s, s2);
    const double right_var =
        ScaledVariance(rc, total_sum - s, total_sum2 - s2);
    const double gain = total_scaled_var - left_var - right_var;
    if (gain > best.gain) {
      best.condition = cond;
      best.gain = gain;
      best.left_count = c;
      best.right_count = rc;
    }
  };
  for (size_t f = 0; f < features_.continuous.size(); ++f) {
    for (double t : cont_thresholds_[f]) {
      consider(CartCondition{features_.continuous[f],
                             FunctionKind::kIndicatorLe, t});
    }
  }
  for (size_t f = 0; f < features_.categorical.size(); ++f) {
    for (int64_t v : cat_values_[f]) {
      consider(CartCondition{features_.categorical[f],
                             FunctionKind::kIndicatorEq,
                             static_cast<double>(v)});
    }
  }
  if (best.gain <= options_.min_variance_gain) return Status::OK();

  node->is_leaf = false;
  node->split = best.condition;
  node->left = std::make_unique<CartNode>();
  node->right = std::make_unique<CartNode>();
  *num_nodes += 2;

  std::vector<CartCondition> left_path = path;
  left_path.push_back(best.condition);
  LMFAO_RETURN_NOT_OK(GrowNode(provider, left_path, depth + 1,
                               node->left.get(), num_nodes, max_depth));

  // Complement condition for the right child.
  CartCondition complement = best.condition;
  complement.op = complement.op == FunctionKind::kIndicatorLe
                      ? FunctionKind::kIndicatorGt
                      : FunctionKind::kIndicatorNe;
  std::vector<CartCondition> right_path = path;
  right_path.push_back(complement);
  LMFAO_RETURN_NOT_OK(GrowNode(provider, right_path, depth + 1,
                               node->right.get(), num_nodes, max_depth));
  return Status::OK();
}

StatusOr<DecisionTree> CartTrainer::Train(CartAggregateProvider* provider) {
  DecisionTree tree;
  tree.root = std::make_unique<CartNode>();
  tree.num_nodes = 1;
  LMFAO_RETURN_NOT_OK(GrowNode(provider, {}, 0, tree.root.get(),
                               &tree.num_nodes, &tree.depth));
  return tree;
}

}  // namespace lmfao
