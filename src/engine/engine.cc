#include "engine/engine.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "engine/attribute_order.h"
#include "engine/execution_context.h"
#include "storage/sort.h"
#include "util/cancel.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/timer.h"

namespace lmfao {

namespace {

/// Fingerprint of the compile-relevant options: anything that changes what
/// the three optimization layers produce must be part of the plan-cache
/// key. Scheduler options are execution-only and deliberately excluded.
uint64_t OptionsFingerprint(const EngineOptions& o) {
  uint64_t h = Mix64(0x5f356495u);
  h = HashCombine(h, static_cast<uint64_t>(o.view_generation.merge_views));
  h = HashCombine(h, static_cast<uint64_t>(o.grouping.multi_output));
  h = HashCombine(h, static_cast<uint64_t>(o.plan.factorize));
  return h;
}

/// Exact structural encoding of a batch under the given options: a flat
/// word sequence with size prefixes plus the batch's dictionary functions
/// in encounter order (`*dictionaries`), so equality of two keys IS
/// structural equality of the batches (group-by sets, root hints, and
/// every factor's attr/kind/threshold-or-slot/dictionary content, in
/// canonical order). A dictionary's words are its content signature; its
/// entry in `*dictionaries` is compared by content (Function::operator==).
/// Query names are excluded (they never reach the compiled artifact);
/// parameterized functions encode their slot, not any bound value — which
/// is exactly what lets CART-style workloads share one artifact across
/// re-issued batches that differ only in constants. The plan cache stores
/// this key per entry and verifies it on every hit, so a collision of the
/// 64-bit signature hash degrades to a fresh compile, never to serving
/// another shape's plans.
std::vector<uint64_t> BatchStructuralKey(const QueryBatch& batch,
                                         const EngineOptions& o,
                                         std::vector<Function>* dictionaries) {
  std::vector<uint64_t> key;
  key.push_back(OptionsFingerprint(o));
  key.push_back(static_cast<uint64_t>(batch.size()));
  for (const Query& q : batch.queries()) {
    key.push_back(q.group_by.size());
    for (AttrId a : q.group_by) key.push_back(static_cast<uint64_t>(a));
    key.push_back(static_cast<uint64_t>(q.root_hint));
    key.push_back(q.aggregates.size());
    for (const Aggregate& agg : q.aggregates) {
      key.push_back(agg.factors().size());
      for (const Factor& f : agg.factors()) {
        key.push_back(static_cast<uint64_t>(f.attr));
        key.push_back(static_cast<uint64_t>(f.fn.kind()));
        if (f.fn.kind() == FunctionKind::kDictionary) {
          key.push_back(f.fn.Signature());
          dictionaries->push_back(f.fn);
        } else if (f.fn.IsParameterized()) {
          key.push_back(1);  // Tag: slot, not literal threshold.
          key.push_back(static_cast<uint64_t>(f.fn.param()));
        } else {
          key.push_back(0);
          const double threshold = f.fn.threshold();
          uint64_t bits;
          std::memcpy(&bits, &threshold, sizeof(bits));
          key.push_back(bits);
        }
      }
    }
  }
  return key;
}

/// The plan-cache signature: a hash of the structural key.
uint64_t KeySignature(const std::vector<uint64_t>& key) {
  uint64_t h = Mix64(0x7b9f4a31u);
  for (uint64_t w : key) h = HashCombine(h, w);
  return h;
}

/// Hash of the bound values of the batch's required parameter slots,
/// recorded in BatchResult so ExecuteDelta can verify a base was computed
/// under the same bindings.
uint64_t ParamFingerprint(const std::vector<ParamId>& required,
                          const ParamPack& params) {
  uint64_t h = Mix64(0x243f6a88u);
  for (ParamId p : required) {
    h = HashCombine(h, static_cast<uint64_t>(p));
    const double v = params.Get(p);
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = HashCombine(h, bits);
  }
  return h;
}

}  // namespace

Engine::Engine(const Catalog* catalog, const JoinTree* tree,
               EngineOptions options)
    : catalog_(catalog), tree_(tree), options_(std::move(options)) {
  LMFAO_CHECK(catalog_ != nullptr);
  LMFAO_CHECK(tree_ != nullptr);
  const SchedulerOptions& scheduler = options_.scheduler;
  const int threads = scheduler.ResolvedThreads();
  if (threads > 1 && (scheduler.task_parallel || scheduler.domain_parallel)) {
    pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
  }
}

void Engine::InvalidateCaches() {
  // Sorted relations first, then — atomically under plan_mu_ — the
  // generation bump and the plan-cache clear. Prepare reads the
  // generation and probes the cache under the same lock, so a racing
  // Prepare either sees the old generation (its handle fails Execute as
  // stale) or the new generation with an already-empty cache; the
  // combination "new generation, stale cache entry" cannot be observed.
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    sorted_cache_.clear();
  }
  std::lock_guard<std::mutex> lock(plan_mu_);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  plan_cache_.clear();
  plan_lru_.clear();
}

Engine::PlanCacheStats Engine::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  PlanCacheStats stats;
  stats.hits = plan_cache_hits_;
  stats.misses = plan_cache_misses_;
  stats.entries = plan_cache_.size();
  return stats;
}

StatusOr<CompiledBatch> Engine::Compile(const QueryBatch& batch) const {
  // One compile pipeline: the inspection surface extracts the artifacts
  // from the same code path Prepare runs, so displayed plans can never
  // drift from executed plans.
  LMFAO_ASSIGN_OR_RETURN(std::shared_ptr<CompiledArtifact> artifact,
                         CompileArtifact(batch));
  return std::move(artifact->compiled);
}

StatusOr<std::shared_ptr<CompiledArtifact>> Engine::CompileArtifact(
    const QueryBatch& batch) const {
  auto artifact = std::make_shared<CompiledArtifact>();
  artifact->required_params = batch.RequiredParams();
  artifact->num_queries = batch.size();

  Timer phase_timer;
  LMFAO_ASSIGN_OR_RETURN(
      artifact->compiled.workload,
      GenerateViews(batch, *catalog_, *tree_, options_.view_generation));
  artifact->viewgen_seconds = phase_timer.ElapsedSeconds();
  artifact->num_views = artifact->compiled.workload.NumInnerViews();
  for (const ViewInfo& v : artifact->compiled.workload.views) {
    artifact->num_aggregates += static_cast<int>(v.aggregates.size());
  }

  phase_timer.Reset();
  LMFAO_ASSIGN_OR_RETURN(
      artifact->compiled.grouped,
      GroupViews(artifact->compiled.workload, *catalog_, options_.grouping));
  artifact->grouping_seconds = phase_timer.ElapsedSeconds();

  phase_timer.Reset();
  for (const ViewGroup& group : artifact->compiled.grouped.groups) {
    LMFAO_ASSIGN_OR_RETURN(
        std::vector<AttrId> order,
        ComputeAttributeOrder(artifact->compiled.workload, group, *catalog_));
    LMFAO_ASSIGN_OR_RETURN(
        GroupPlan plan,
        BuildGroupPlan(artifact->compiled.workload, group, *catalog_, order,
                       options_.plan));
    artifact->compiled.attr_orders.push_back(std::move(order));
    artifact->compiled.plans.push_back(std::move(plan));
  }
  AssignLayoutsAndClosures(artifact->compiled.grouped,
                           &artifact->compiled.plans);
  artifact->plan_seconds = phase_timer.ElapsedSeconds();
  return artifact;
}

StatusOr<PreparedBatch> Engine::Prepare(const QueryBatch& batch) {
  Timer prepare_timer;
  std::vector<Function> dictionaries;
  std::vector<uint64_t> structural_key =
      BatchStructuralKey(batch, options_, &dictionaries);
  const uint64_t signature = KeySignature(structural_key);
  const size_t capacity = options_.plan_cache_capacity;

  PreparedBatch prepared;
  prepared.engine_ = this;
  bool collision = false;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    prepared.generation_ = generation();
    auto it = plan_cache_.find(signature);
    if (it != plan_cache_.end()) {
      if (it->second.structural_key == structural_key &&
          it->second.dictionaries == dictionaries) {
        ++plan_cache_hits_;
        plan_lru_.splice(plan_lru_.end(), plan_lru_, it->second.lru_pos);
        prepared.artifact_ = it->second.artifact;
        prepared.from_cache_ = true;
        prepared.compile_seconds_ = prepare_timer.ElapsedSeconds();
        return prepared;
      }
      // Signature collision with a structurally different batch (~2^-64):
      // compile fresh and leave the existing entry in place.
      collision = true;
    }
    ++plan_cache_misses_;
  }

  // Compile outside the lock: concurrent Prepares of the same shape may
  // duplicate work, but never block each other on a long compile.
  LMFAO_ASSIGN_OR_RETURN(std::shared_ptr<CompiledArtifact> fresh,
                         CompileArtifact(batch));
  fresh->signature = signature;
  const std::shared_ptr<const CompiledArtifact> artifact = std::move(fresh);
  prepared.artifact_ = artifact;
  if (capacity > 0 && !collision) {
    std::lock_guard<std::mutex> lock(plan_mu_);
    // Insert only while the generation still matches the one this handle
    // carries: if InvalidateCaches ran mid-compile, the artifact stays
    // private to this (already stale) handle and the fresh cache never
    // holds it.
    if (generation() == prepared.generation_ &&
        plan_cache_.find(signature) == plan_cache_.end()) {
      plan_lru_.push_back(signature);
      PlanCacheEntry entry;
      entry.structural_key = std::move(structural_key);
      entry.dictionaries = std::move(dictionaries);
      entry.artifact = artifact;
      entry.lru_pos = std::prev(plan_lru_.end());
      plan_cache_.emplace(signature, std::move(entry));
      while (plan_cache_.size() > capacity) {
        plan_cache_.erase(plan_lru_.front());
        plan_lru_.pop_front();
      }
    }
  }
  prepared.compile_seconds_ = prepare_timer.ElapsedSeconds();
  return prepared;
}

Status PreparedBatch::CheckExecutable(const ParamPack& params) const {
  if (engine_ == nullptr || artifact_ == nullptr) {
    return Status::FailedPrecondition(
        "PreparedBatch::Execute on an empty handle");
  }
  if (engine_->generation() != generation_) {
    return Status::FailedPrecondition(
        "stale PreparedBatch: Engine::InvalidateCaches ran after Prepare; "
        "re-Prepare the batch against the current data");
  }
  for (ParamId p : artifact_->required_params) {
    if (!params.Has(p)) {
      return Status::InvalidArgument(
          "PreparedBatch::Execute: unbound parameter p" + std::to_string(p));
    }
  }
  return Status::OK();
}

BatchResult PreparedBatch::NewResult(EpochSnapshot epoch,
                                     const ParamPack& params) const {
  BatchResult result;
  result.epoch = std::move(epoch);
  result.artifact_signature = artifact_->signature;
  result.param_fingerprint =
      ParamFingerprint(artifact_->required_params, params);
  ExecutionStats& stats = result.stats;
  stats.num_queries = artifact_->num_queries;
  stats.num_views = artifact_->num_views;
  stats.num_aggregates = artifact_->num_aggregates;
  stats.num_groups =
      static_cast<int>(artifact_->compiled.grouped.groups.size());
  // Phase times of the artifact's original compilation; the call itself
  // pays no compile (the Evaluate wrapper overwrites these two fields with
  // its measured Prepare cost).
  stats.viewgen_seconds = artifact_->viewgen_seconds;
  stats.grouping_seconds = artifact_->grouping_seconds;
  stats.plan_seconds = artifact_->plan_seconds;
  stats.plan_cache_hit = true;
  return result;
}

StatusOr<std::vector<QueryResult>> PreparedBatch::RunPass(
    const PassSpec& spec, const ParamPack& params, const CancelToken& cancel,
    ExecutionStats* stats) const {
  // A failure parked by a void seam during some earlier pass on this
  // thread must not be blamed on this one.
  if (Failpoints::enabled()) Failpoints::ClearParked();
  const CompiledBatch& compiled = artifact_->compiled;
  // Each served snapshot is held by the group that reads it: the engine's
  // sorted cache may prune an epoch while the group still scans it.
  ExecutionContext context(
      compiled.workload, compiled.grouped, compiled.plans,
      engine_->options_.scheduler, engine_->pool_.get(),
      [this, &spec](RelationId node, const std::vector<AttrId>& order)
          -> StatusOr<std::shared_ptr<const Relation>> {
        if (node == spec.delta_node) {
          return engine_->SortedDeltaSlice(node, order, spec.delta_lo,
                                           spec.delta_hi);
        }
        return engine_->SortedRelationAt(node, order, spec.rows->at(node));
      },
      &params, &cancel, spec.split, &spec.rows->ranges);
  LMFAO_RETURN_NOT_OK(context.Run(stats));

  std::vector<QueryResult> results(
      static_cast<size_t>(artifact_->num_queries));
  for (QueryId q = 0; q < artifact_->num_queries; ++q) {
    const ViewId out =
        compiled.workload.query_outputs[static_cast<size_t>(q)];
    QueryResult& qr = results[static_cast<size_t>(q)];
    qr.query_id = q;
    qr.group_by = compiled.workload.view(out).key;
    LMFAO_ASSIGN_OR_RETURN(qr.data, context.TakeQueryResult(out));
  }
  return results;
}

StatusOr<BatchResult> PreparedBatch::Execute(const ParamPack& params,
                                             const ExecLimits& limits) const {
  if (engine_ == nullptr || artifact_ == nullptr) {
    return Status::FailedPrecondition(
        "PreparedBatch::Execute on an empty handle");
  }
  return ExecuteAt(engine_->catalog_->SnapshotEpoch(), params, limits);
}

StatusOr<BatchResult> PreparedBatch::ExecuteAt(const EpochSnapshot& epoch,
                                               const ParamPack& params,
                                               const ExecLimits& limits) const {
  LMFAO_RETURN_NOT_OK(CheckExecutable(params));
  if (epoch.rows.size() !=
      static_cast<size_t>(engine_->catalog_->num_relations())) {
    return Status::InvalidArgument(
        "ExecuteAt: epoch snapshot tracks " +
        std::to_string(epoch.rows.size()) + " relations, catalog has " +
        std::to_string(engine_->catalog_->num_relations()));
  }
  Timer total_timer;
  BatchResult result = NewResult(epoch, params);
  PassSpec spec;
  spec.rows = &result.epoch;
  const CancelToken cancel(limits.deadline_seconds, limits.max_view_bytes);
  LMFAO_ASSIGN_OR_RETURN(result.results,
                         RunPass(spec, params, cancel, &result.stats));
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

StatusOr<BatchResult> PreparedBatch::ExecuteDelta(const BatchResult& base,
                                                  const ParamPack& params,
                                                  const ExecLimits& limits)
    const {
  LMFAO_RETURN_NOT_OK(CheckExecutable(params));
  Timer total_timer;
  const Catalog& catalog = *engine_->catalog_;
  // Nothing of the base's execution carries over: a refresh reports only
  // the passes it runs itself.
  BatchResult result = NewResult(catalog.SnapshotEpoch(), params);
  if (base.artifact_signature != result.artifact_signature) {
    return Status::InvalidArgument(
        "ExecuteDelta: base result was computed by a different batch shape "
        "(artifact signature mismatch)");
  }
  if (base.param_fingerprint != result.param_fingerprint) {
    return Status::InvalidArgument(
        "ExecuteDelta: base result was computed under different parameter "
        "bindings; a delta under other parameters is not a delta of it");
  }
  if (base.epoch.rows.size() != static_cast<size_t>(catalog.num_relations())) {
    return Status::InvalidArgument(
        "ExecuteDelta: base epoch tracks " +
        std::to_string(base.epoch.rows.size()) + " relations, catalog has " +
        std::to_string(catalog.num_relations()));
  }

  std::vector<RelationId> changed;
  size_t delta_rows = 0;
  for (RelationId r = 0; r < catalog.num_relations(); ++r) {
    const size_t old_rows = base.epoch.at(r);
    const size_t new_rows = result.epoch.at(r);
    if (new_rows < old_rows) {
      return Status::FailedPrecondition(
          "ExecuteDelta: relation " + catalog.relation(r).name() +
          " shrank below the base result's watermark — a non-append "
          "mutation happened; call Engine::InvalidateCaches and re-execute");
    }
    if (new_rows > old_rows) {
      changed.push_back(r);
      delta_rows += new_rows - old_rows;
    }
  }

  result.results = base.results;  // Deep copy: the base stays reusable.
  result.stats.delta_execution = true;
  result.stats.delta_passes = static_cast<int>(changed.size());
  result.stats.delta_rows = delta_rows;
  // One deadline for the whole refresh, however many terms it takes.
  const CancelToken cancel(limits.deadline_seconds, limits.max_view_bytes);

  // Multilinearity: summing, over changed relations c_1 < ... < c_k, the
  // batch evaluated with c_i served as its appended slice, c_1..c_{i-1} at
  // their NEW watermarks and c_{i+1}..c_k (and everything unchanged) at the
  // OLD watermarks telescopes to exactly Q(new) - Q(old).
  // Every term sizes its dense outputs from the target epoch's ranges,
  // which cover every row any term serves.
  EpochSnapshot serve = base.epoch;
  serve.ranges = result.epoch.ranges;
  const std::vector<GroupPlan>& plans = artifact_->compiled.plans;
  for (RelationId r : changed) {
    PassSpec spec;
    spec.rows = &serve;
    spec.delta_node = r;
    spec.delta_lo = base.epoch.at(r);
    spec.delta_hi = result.epoch.at(r);
    // Each delta term is one governed pass; a trip (or any failure)
    // propagates out here, before `result` is returned — the caller's
    // `base` is untouched and can seed a later retry.
    LMFAO_ASSIGN_OR_RETURN(std::vector<QueryResult> term,
                           RunPass(spec, params, cancel, &result.stats));
    for (const GroupPlan& plan : plans) {
      if (ClosureContains(plan.source_relation_mask, r)) {
        ++result.stats.delta_dirty_groups;
      }
    }
    for (size_t q = 0; q < result.results.size(); ++q) {
      result.results[q].data.MergeAdd(term[q].data);
    }
    serve.rows[static_cast<size_t>(r)] =
        result.epoch.at(r);  // Later terms see this relation's new extent.
  }
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

StatusOr<BatchResult> Engine::Evaluate(const QueryBatch& batch,
                                       const ParamPack& params,
                                       const ExecLimits& limits) {
  Timer total_timer;
  LMFAO_ASSIGN_OR_RETURN(PreparedBatch prepared, Prepare(batch));
  LMFAO_ASSIGN_OR_RETURN(BatchResult result, prepared.Execute(params, limits));
  result.stats.compile_seconds = prepared.compile_seconds();
  result.stats.plan_cache_hit = prepared.from_cache();
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

StatusOr<std::shared_ptr<const Relation>> Engine::SortedRelationAt(
    RelationId node, const std::vector<AttrId>& order, size_t rows) {
  const Relation& base = catalog_->relation(node);
  std::vector<AttrId> sub;
  for (AttrId a : order) {
    if (base.schema().Contains(a)) sub.push_back(a);
  }

  const std::pair<RelationId, std::vector<AttrId>> key{node, sub};
  // The cache-extension seam: sorting/merging a snapshot is the largest
  // transient allocation the engine itself makes.
  LMFAO_FAILPOINT("engine.sorted_cache");
  std::shared_ptr<const Relation> prefix;  // Largest cached epoch <= rows.
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = sorted_cache_.find(key);
    if (it != sorted_cache_.end() && !it->second.empty()) {
      auto eit = it->second.upper_bound(rows);
      if (eit != it->second.begin()) {
        --eit;
        if (eit->first == rows) return eit->second;
        prefix = eit->second;
      }
    }
  }

  // Build outside the cache lock (duplicated work on a race is harmless):
  // sort only the rows the prefix is missing, then stable-merge (prefix
  // first on ties; an empty order concatenates) — bit-identical to sorting
  // all `rows` rows at once, because SortPermutation breaks ties by
  // original row index.
  const size_t lo = prefix ? prefix->num_rows() : 0;
  LMFAO_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> built,
                         SortedDeltaSlice(node, order, lo, rows));
  if (prefix != nullptr) {
    LMFAO_ASSIGN_OR_RETURN(Relation merged,
                           MergeSortedRelations(*prefix, *built, sub));
    built = std::make_shared<const Relation>(std::move(merged));
  }

  std::lock_guard<std::mutex> lock(cache_mu_);
  auto& epochs = sorted_cache_[key];
  auto [eit, inserted] = epochs.emplace(rows, built);
  if (!inserted) return eit->second;  // A racing build won; use its copy.
  // Keep only the two largest epochs per (node, order): the current one
  // and the previous (which in-flight old-epoch executions pin anyway).
  while (epochs.size() > 2) epochs.erase(epochs.begin());
  return built;
}

StatusOr<std::shared_ptr<const Relation>> Engine::SortedDeltaSlice(
    RelationId node, const std::vector<AttrId>& order, size_t lo, size_t hi) {
  const Relation& base = catalog_->relation(node);
  std::vector<AttrId> sub;
  for (AttrId a : order) {
    if (base.schema().Contains(a)) sub.push_back(a);
  }
  // Copy the rows under a shared hold of the catalog's data mutex:
  // committed rows are immutable, but a concurrent append may reallocate
  // the column vectors mid-copy.
  Relation slice;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_->data_mutex());
    if (hi > base.num_rows()) {
      return Status::InvalidArgument(
          "watermark " + std::to_string(hi) + " beyond relation " +
          base.name() + " (" + std::to_string(base.num_rows()) + " rows)");
    }
    slice = base.SliceRows(lo, hi);
  }
  if (!sub.empty()) LMFAO_RETURN_NOT_OK(SortRelation(&slice, sub));
  return std::make_shared<const Relation>(std::move(slice));
}

}  // namespace lmfao
