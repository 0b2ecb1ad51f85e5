/// \file cart.h
/// \brief Regression trees with CART over aggregate batches (Section 3).
///
/// CART grows a binary tree greedily. For each node, every candidate split
/// `Xj op t` needs SUM(1), SUM(Y), SUM(Y^2) over the node's data fragment;
/// all conditions (the root-to-node path plus the candidate) are threshold
/// indicators, so the whole node evaluation is one batch of aggregate
/// queries over D — exactly the workload LMFAO accelerates (the paper
/// reports 3,141 aggregates per node for Retailer).

#ifndef LMFAO_ML_CART_H_
#define LMFAO_ML_CART_H_

#include <memory>
#include <vector>

#include "engine/engine.h"
#include "ml/feature.h"
#include "storage/relation.h"
#include "util/status.h"

namespace lmfao {

/// \brief One split condition on the path to a node.
struct CartCondition {
  AttrId attr = kInvalidAttr;
  /// kIndicatorLe/kIndicatorGt for continuous, kIndicatorEq/kIndicatorNe for
  /// categorical splits.
  FunctionKind op = FunctionKind::kIndicatorLe;
  double threshold = 0.0;

  /// Parameterized form: the threshold lives in slot `param` of the node
  /// batch's ParamPack, so the condition's *structure* (attr, op, slot) is
  /// stable across nodes whose paths differ only in threshold values.
  Factor ToParamFactor(ParamId param) const {
    return Factor{attr, Function::IndicatorParam(op, param)};
  }
};

/// \brief One CART node's aggregate batch: the structural (parameterized)
/// queries plus the bindings of every threshold slot.
///
/// All indicator thresholds — the root-to-node path conditions and every
/// candidate split — are parameter slots, so two nodes whose paths share
/// the same (attr, op) sequence produce *structurally identical* batches:
/// the engine compiles the shape once and each node's evaluation is an
/// execute with fresh bindings.
struct CartNodeBatch {
  QueryBatch batch;
  ParamPack params;
};

/// \brief A binary regression-tree node.
struct CartNode {
  /// Leaf payload.
  double prediction = 0.0;
  double count = 0.0;
  double variance = 0.0;
  /// Split (inner nodes only): left satisfies the condition.
  bool is_leaf = true;
  CartCondition split;
  std::unique_ptr<CartNode> left;
  std::unique_ptr<CartNode> right;
};

/// \brief A trained tree.
struct DecisionTree {
  std::unique_ptr<CartNode> root;
  int num_nodes = 0;
  int depth = 0;

  /// Predicts a row of `rel` (which must contain all split attributes).
  double Predict(const Relation& rel, size_t row) const;
};

/// \brief Training options.
struct CartOptions {
  int max_depth = 4;
  double min_leaf_count = 20;
  /// Number of candidate thresholds per continuous feature (equi-spaced
  /// between the feature's observed min and max).
  int num_thresholds = 16;
  double min_variance_gain = 1e-9;
};

/// \brief Evaluation backend for node batches.
class CartAggregateProvider {
 public:
  virtual ~CartAggregateProvider() = default;
  /// Evaluates a parameterized batch of no-group-by queries under the
  /// given bindings; results parallel the batch.
  virtual StatusOr<std::vector<QueryResult>> EvaluateBatch(
      const QueryBatch& batch, const ParamPack& params) = 0;
};

/// \brief LMFAO-backed provider: Prepare + Execute through the engine's
/// structural plan cache, so structurally repeated node shapes (every
/// retrain, and all same-path-shape nodes of one tree) compile once.
class LmfaoCartProvider : public CartAggregateProvider {
 public:
  explicit LmfaoCartProvider(Engine* engine) : engine_(engine) {}
  StatusOr<std::vector<QueryResult>> EvaluateBatch(
      const QueryBatch& batch, const ParamPack& params) override;

 private:
  Engine* engine_;
};

/// \brief Scan-based provider over the materialized join (baseline).
/// Binds the parameterized batch to its literal form before scanning.
class ScanCartProvider : public CartAggregateProvider {
 public:
  explicit ScanCartProvider(const Relation* joined) : joined_(joined) {}
  StatusOr<std::vector<QueryResult>> EvaluateBatch(
      const QueryBatch& batch, const ParamPack& params) override;

 private:
  const Relation* joined_;
};

/// \brief CART trainer; independent of the evaluation backend.
class CartTrainer {
 public:
  CartTrainer(const FeatureSet& features, const Catalog* catalog,
              CartOptions options = {});

  /// Trains a tree using `provider` for every node's aggregate batch.
  StatusOr<DecisionTree> Train(CartAggregateProvider* provider);

  /// Builds the aggregate batch of one node (exposed for the batch-size
  /// report of EXPERIMENTS.md and for tests). Every indicator threshold is
  /// a parameter slot; the returned ParamPack carries this node's values.
  CartNodeBatch BuildNodeBatch(const std::vector<CartCondition>& path) const;

  /// Number of aggregates in one node's batch.
  int NodeAggregateCount() const;

 private:
  struct SplitCandidate {
    CartCondition condition;
    double gain = 0.0;
    double left_count = 0.0;
    double right_count = 0.0;
  };

  Status GrowNode(CartAggregateProvider* provider,
                  const std::vector<CartCondition>& path, int depth,
                  CartNode* node, int* num_nodes, int* max_depth);

  /// Candidate thresholds per continuous feature (from column min/max).
  std::vector<std::vector<double>> cont_thresholds_;
  /// Candidate values per categorical feature (observed domains).
  std::vector<std::vector<int64_t>> cat_values_;

  FeatureSet features_;
  const Catalog* catalog_;
  CartOptions options_;
};

}  // namespace lmfao

#endif  // LMFAO_ML_CART_H_
