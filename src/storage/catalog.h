/// \file catalog.h
/// \brief The database catalog: attribute namespace, relations, and
/// cardinality constraints.
///
/// The catalog is the first input of the View Generation layer (Fig. 1 of
/// the paper): it provides the schema and the cardinality constraints
/// (relation sizes, attribute domain sizes) that drive root assignment and
/// data-structure choices.

#ifndef LMFAO_STORAGE_CATALOG_H_
#define LMFAO_STORAGE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/relation.h"
#include "storage/schema.h"
#include "util/status.h"

namespace lmfao {

/// \brief One consistent per-relation row-count snapshot (indexed by
/// RelationId): the *epoch* a batch execution reads.
///
/// Appends commit atomically — rows land and the relation's watermark
/// advances under one exclusive lock — so a snapshot never observes half an
/// append, and executing against a snapshot pins every scan to the rows
/// that were committed when it was taken. `PreparedBatch::Execute` takes a
/// snapshot at call start; `PreparedBatch::ExecuteDelta` propagates exactly
/// the rows between two snapshots.
struct EpochSnapshot {
  std::vector<size_t> rows;
  /// Per attribute (indexed by AttrId), the [min, max] its committed
  /// values span, read under the same lock as `rows`; the execution pass
  /// sizes direct-addressed output views from it. May be empty or
  /// unknown per attribute, which only costs those outputs the dense mode.
  std::vector<ValueRange> ranges;

  size_t at(RelationId id) const { return rows[static_cast<size_t>(id)]; }
};

/// \brief Owns all attribute metadata and relations of one database.
///
/// Mutation model (the epoch/watermark contract):
///   - *Appends* go through `Append`/`AppendRows`. They commit a new epoch
///     (per-relation row watermark + the catalog-wide append_epoch counter)
///     without structurally changing the database, so compiled plans and
///     outstanding `PreparedBatch` handles stay valid; concurrent
///     executions that hold an `EpochSnapshot` keep reading the old epoch.
///   - *Everything else* (deleting/updating rows via mutable_relation,
///     adding relations or derived columns) is a structural mutation: it
///     must not overlap any engine use, and the owner must call
///     `Engine::InvalidateCaches` after it and before the engine is used
///     again, so stale handles fail cleanly instead of reading rewritten
///     data. `InvalidateCaches` itself may run while executions are in
///     flight.
class Catalog {
 public:
  Catalog();

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// \brief Registers an attribute; names are unique (natural-join
  /// semantics). Returns its id.
  StatusOr<AttrId> AddAttribute(const std::string& name, AttrType type,
                                int64_t domain_size = 0);

  /// \brief Returns the id of an existing attribute by name.
  StatusOr<AttrId> AttrIdOf(const std::string& name) const;

  /// \brief Attribute metadata by id.
  const AttrInfo& attr(AttrId id) const {
    return attrs_[static_cast<size_t>(id)];
  }
  AttrInfo& mutable_attr(AttrId id) { return attrs_[static_cast<size_t>(id)]; }

  int num_attrs() const { return static_cast<int>(attrs_.size()); }

  /// \brief Creates an empty relation from attribute names; all attributes
  /// must already be registered. Returns the relation id.
  StatusOr<RelationId> AddRelation(const std::string& name,
                                   const std::vector<std::string>& attr_names);

  /// \brief Adds an already-built relation (generator path).
  StatusOr<RelationId> AddRelation(Relation relation);

  StatusOr<RelationId> RelationIdOf(const std::string& name) const;

  const Relation& relation(RelationId id) const {
    return *relations_[static_cast<size_t>(id)];
  }
  Relation& mutable_relation(RelationId id) {
    return *relations_[static_cast<size_t>(id)];
  }

  int num_relations() const { return static_cast<int>(relations_.size()); }

  /// \name Append API (epoch/watermark model).
  /// @{

  /// Appends `rows` (same schema and column types as relation `id`) and
  /// commits a new epoch: rows land and the relation's watermark advances
  /// under one exclusive hold of data_mutex(), so concurrent SnapshotEpoch
  /// and shared-lock readers see either none or all of the append.
  Status Append(RelationId id, const Relation& rows);

  /// Convenience: appends value rows (each parallel to the schema,
  /// type-checked) as one committed epoch.
  Status AppendRows(RelationId id,
                    const std::vector<std::vector<Value>>& rows);

  /// Committed row count (watermark) of relation `id`. Until the first
  /// Append to a relation this is its live row count (bulk loaders fill
  /// rows directly, before any concurrent use starts).
  size_t CommittedRows(RelationId id) const;

  /// One consistent snapshot of every relation's watermark and every
  /// attribute's value range.
  EpochSnapshot SnapshotEpoch() const;

  /// The [min, max] the committed values of int attribute `id` span: set by
  /// RefreshDomainSizes, widened by every Append. Unknown until the first
  /// refresh that sees a value of the attribute.
  ValueRange attr_range(AttrId id) const;

  /// Monotonic count of committed Append calls.
  uint64_t append_epoch() const;

  /// Guards live relation row data during appends: Append holds it
  /// exclusively while mutating columns and committing the watermark;
  /// readers of committed row prefixes (the engine's sorted-cache
  /// extension and delta slicing) hold it shared.
  std::shared_mutex& data_mutex() const { return epoch_->mu; }

  /// @}

  /// \brief Recomputes each int attribute's domain_size as the number of
  /// distinct values observed across all relations, and its value range
  /// (attr_range) as their [min, max].
  void RefreshDomainSizes();

  /// \brief Human-readable schema dump.
  std::string ToString() const;

 private:
  /// Sentinel: the relation has never been appended to through the epoch
  /// API; its watermark is its live row count.
  static constexpr size_t kUntrackedWatermark = static_cast<size_t>(-1);

  /// Epoch bookkeeping behind a unique_ptr so the Catalog stays movable
  /// (mutexes are not).
  struct EpochState {
    mutable std::shared_mutex mu;
    /// Parallel to relations_; kUntrackedWatermark until first Append.
    std::vector<size_t> watermarks;
    uint64_t append_epoch = 0;
    /// Parallel to attrs_: each attribute's value range, kept beside its
    /// domain_size but under `mu`, because appends widen it.
    std::vector<ValueRange> ranges;
  };

  std::vector<AttrInfo> attrs_;
  std::unordered_map<std::string, AttrId> attr_by_name_;
  std::vector<std::unique_ptr<Relation>> relations_;
  std::unordered_map<std::string, RelationId> relation_by_name_;
  std::unique_ptr<EpochState> epoch_;
};

}  // namespace lmfao

#endif  // LMFAO_STORAGE_CATALOG_H_
