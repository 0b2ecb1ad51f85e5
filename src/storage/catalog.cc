#include "storage/catalog.h"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "util/failpoint.h"

namespace lmfao {

Catalog::Catalog() : epoch_(std::make_unique<EpochState>()) {}

StatusOr<AttrId> Catalog::AddAttribute(const std::string& name, AttrType type,
                                       int64_t domain_size) {
  if (attr_by_name_.count(name) > 0) {
    return Status::AlreadyExists("attribute already registered: " + name);
  }
  AttrInfo info;
  info.id = static_cast<AttrId>(attrs_.size());
  info.name = name;
  info.type = type;
  info.domain_size = domain_size;
  attrs_.push_back(info);
  attr_by_name_[name] = info.id;
  {
    std::unique_lock<std::shared_mutex> lock(epoch_->mu);
    epoch_->ranges.emplace_back();
  }
  return info.id;
}

StatusOr<AttrId> Catalog::AttrIdOf(const std::string& name) const {
  auto it = attr_by_name_.find(name);
  if (it == attr_by_name_.end()) {
    return Status::NotFound("unknown attribute: " + name);
  }
  return it->second;
}

StatusOr<RelationId> Catalog::AddRelation(
    const std::string& name, const std::vector<std::string>& attr_names) {
  if (relation_by_name_.count(name) > 0) {
    return Status::AlreadyExists("relation already registered: " + name);
  }
  std::vector<AttrId> attrs;
  std::vector<AttrType> types;
  for (const std::string& attr_name : attr_names) {
    LMFAO_ASSIGN_OR_RETURN(AttrId id, AttrIdOf(attr_name));
    attrs.push_back(id);
    types.push_back(attr(id).type);
  }
  auto rel = std::make_unique<Relation>(name, RelationSchema(std::move(attrs)),
                                        std::move(types));
  const RelationId id = static_cast<RelationId>(relations_.size());
  relations_.push_back(std::move(rel));
  relation_by_name_[name] = id;
  {
    std::unique_lock<std::shared_mutex> lock(epoch_->mu);
    epoch_->watermarks.push_back(kUntrackedWatermark);
  }
  return id;
}

StatusOr<RelationId> Catalog::AddRelation(Relation relation) {
  if (relation_by_name_.count(relation.name()) > 0) {
    return Status::AlreadyExists("relation already registered: " +
                                 relation.name());
  }
  const RelationId id = static_cast<RelationId>(relations_.size());
  relation_by_name_[relation.name()] = id;
  relations_.push_back(std::make_unique<Relation>(std::move(relation)));
  {
    std::unique_lock<std::shared_mutex> lock(epoch_->mu);
    epoch_->watermarks.push_back(kUntrackedWatermark);
  }
  return id;
}

Status Catalog::Append(RelationId id, const Relation& rows) {
  if (id < 0 || static_cast<size_t>(id) >= relations_.size()) {
    return Status::InvalidArgument("Append: unknown relation id " +
                                   std::to_string(id));
  }
  Relation& rel = *relations_[static_cast<size_t>(id)];
  std::unique_lock<std::shared_mutex> lock(epoch_->mu);
  // Before any mutation: an injected failure here must leave rows,
  // watermark, and append_epoch exactly as they were (the atomicity the
  // catalog_test append-rejection cases pin).
  LMFAO_FAILPOINT("catalog.append");
  LMFAO_RETURN_NOT_OK(rel.Append(rows));
  epoch_->watermarks[static_cast<size_t>(id)] = rel.num_rows();
  ++epoch_->append_epoch;
  // Widen the known (int) ranges to the appended values. An unknown range
  // stays unknown: the relation's earlier rows are not in it.
  for (int c = 0; c < rows.num_columns(); ++c) {
    ValueRange& range =
        epoch_->ranges[static_cast<size_t>(rel.schema().attr(c))];
    if (!range.known()) continue;
    for (int64_t v : rows.column(c).ints()) {
      range.min = std::min(range.min, v);
      range.max = std::max(range.max, v);
    }
  }
  return Status::OK();
}

Status Catalog::AppendRows(RelationId id,
                           const std::vector<std::vector<Value>>& rows) {
  if (id < 0 || static_cast<size_t>(id) >= relations_.size()) {
    return Status::InvalidArgument("AppendRows: unknown relation id " +
                                   std::to_string(id));
  }
  const Relation& rel = *relations_[static_cast<size_t>(id)];
  std::vector<AttrType> types;
  types.reserve(static_cast<size_t>(rel.num_columns()));
  for (int c = 0; c < rel.num_columns(); ++c) {
    types.push_back(rel.column(c).type());
  }
  Relation staged(rel.name(), rel.schema(), std::move(types));
  for (const std::vector<Value>& row : rows) {
    LMFAO_RETURN_NOT_OK(staged.AppendRow(row));
  }
  return Append(id, staged);
}

size_t Catalog::CommittedRows(RelationId id) const {
  std::shared_lock<std::shared_mutex> lock(epoch_->mu);
  const size_t w = epoch_->watermarks[static_cast<size_t>(id)];
  if (w != kUntrackedWatermark) return w;
  return relations_[static_cast<size_t>(id)]->num_rows();
}

EpochSnapshot Catalog::SnapshotEpoch() const {
  std::shared_lock<std::shared_mutex> lock(epoch_->mu);
  EpochSnapshot snap;
  snap.rows.reserve(relations_.size());
  for (size_t i = 0; i < relations_.size(); ++i) {
    const size_t w = epoch_->watermarks[i];
    snap.rows.push_back(w != kUntrackedWatermark ? w
                                                 : relations_[i]->num_rows());
  }
  snap.ranges = epoch_->ranges;
  return snap;
}

ValueRange Catalog::attr_range(AttrId id) const {
  std::shared_lock<std::shared_mutex> lock(epoch_->mu);
  return epoch_->ranges[static_cast<size_t>(id)];
}

uint64_t Catalog::append_epoch() const {
  std::shared_lock<std::shared_mutex> lock(epoch_->mu);
  return epoch_->append_epoch;
}

StatusOr<RelationId> Catalog::RelationIdOf(const std::string& name) const {
  auto it = relation_by_name_.find(name);
  if (it == relation_by_name_.end()) {
    return Status::NotFound("unknown relation: " + name);
  }
  return it->second;
}

void Catalog::RefreshDomainSizes() {
  std::vector<std::vector<const std::vector<int64_t>*>> columns(attrs_.size());
  for (const auto& rel : relations_) {
    for (int c = 0; c < rel->num_columns(); ++c) {
      const AttrId a = rel->schema().attr(c);
      if (attrs_[static_cast<size_t>(a)].type != AttrType::kInt) continue;
      columns[static_cast<size_t>(a)].push_back(&rel->column(c).ints());
    }
  }
  std::unique_lock<std::shared_mutex> lock(epoch_->mu);
  std::vector<uint64_t> seen;
  std::vector<int64_t> values;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    // One pass for [min, max]; then the distinct count from a bitmap over
    // that range when it is no larger than the values themselves (the
    // common case: dense ids), else from a sort of the values.
    size_t count = 0;
    ValueRange range;
    for (const std::vector<int64_t>* ints : columns[i]) {
      if (ints->empty()) continue;
      const auto [lo, hi] = std::minmax_element(ints->begin(), ints->end());
      range.min = count == 0 ? *lo : std::min(range.min, *lo);
      range.max = count == 0 ? *hi : std::max(range.max, *hi);
      count += ints->size();
    }
    if (count == 0) continue;
    epoch_->ranges[i] = range;
    const uint64_t span = static_cast<uint64_t>(range.max) -
                          static_cast<uint64_t>(range.min);
    int64_t distinct = 0;
    if (span / 64 < count) {
      seen.assign(static_cast<size_t>(span / 64 + 1), 0);
      for (const std::vector<int64_t>* ints : columns[i]) {
        for (int64_t v : *ints) {
          const uint64_t bit =
              static_cast<uint64_t>(v) - static_cast<uint64_t>(range.min);
          seen[bit / 64] |= uint64_t{1} << (bit % 64);
        }
      }
      for (uint64_t word : seen) distinct += __builtin_popcountll(word);
    } else {
      values.clear();
      for (const std::vector<int64_t>* ints : columns[i]) {
        values.insert(values.end(), ints->begin(), ints->end());
      }
      std::sort(values.begin(), values.end());
      distinct = std::unique(values.begin(), values.end()) - values.begin();
    }
    attrs_[i].domain_size = distinct;
  }
}

std::string Catalog::ToString() const {
  std::ostringstream out;
  for (const auto& rel : relations_) {
    out << rel->name() << "(";
    for (int i = 0; i < rel->schema().arity(); ++i) {
      if (i > 0) out << ", ";
      const AttrInfo& info = attr(rel->schema().attr(i));
      out << info.name << ":" << AttrTypeName(info.type);
    }
    out << ") [" << rel->num_rows() << " rows]\n";
  }
  return out.str();
}

}  // namespace lmfao
