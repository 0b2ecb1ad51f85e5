#include "data/loader.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/string_util.h"

namespace lmfao {
namespace {

StatusOr<int64_t> ParseInt(const std::string& field) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(field.c_str(), &end, 10);
  if (errno != 0 || end == field.c_str() || !StripWhitespace(end).empty()) {
    return Status::InvalidArgument("not an integer: '" + field + "'");
  }
  return static_cast<int64_t>(v);
}

/// A finite double: NaN or an infinity would poison every sum over the
/// column.
StatusOr<double> ParseDouble(const std::string& field) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (errno != 0 || end == field.c_str() || !StripWhitespace(end).empty()) {
    return Status::InvalidArgument("not a number: '" + field + "'");
  }
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("not a finite number: '" + field + "'");
  }
  return v;
}

}  // namespace

Status LoadRelationCsvText(const std::string& text, const Catalog& catalog,
                           Relation* relation, const CsvOptions& options) {
  LMFAO_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text, options));
  const int arity = relation->schema().arity();
  // Stage every row before touching the relation: a malformed field in
  // the middle of the file must leave the relation exactly as it was.
  std::vector<std::vector<Value>> staged;
  staged.reserve(table.rows.size());
  std::vector<Value> row(static_cast<size_t>(arity));
  for (size_t r = 0; r < table.rows.size(); ++r) {
    if (static_cast<int>(table.rows[r].size()) != arity) {
      return Status::InvalidArgument(
          "row " + std::to_string(r) + " has " +
          std::to_string(table.rows[r].size()) + " fields, schema has " +
          std::to_string(arity));
    }
    for (int c = 0; c < arity; ++c) {
      const AttrInfo& info = catalog.attr(relation->schema().attr(c));
      const std::string& field = table.rows[r][static_cast<size_t>(c)];
      if (info.type == AttrType::kInt) {
        LMFAO_ASSIGN_OR_RETURN(int64_t v, ParseInt(field));
        row[static_cast<size_t>(c)] = Value::Int(v);
      } else {
        LMFAO_ASSIGN_OR_RETURN(double v, ParseDouble(field));
        row[static_cast<size_t>(c)] = Value::Double(v);
      }
    }
    staged.push_back(row);
  }
  for (const std::vector<Value>& r : staged) relation->AppendRowUnchecked(r);
  return Status::OK();
}

Status LoadRelationCsv(const std::string& path, const Catalog& catalog,
                       Relation* relation, const CsvOptions& options) {
  LMFAO_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return LoadRelationCsvText(text, catalog, relation, options);
}

std::string RelationToCsv(const Relation& relation, const Catalog& catalog) {
  CsvTable table;
  for (AttrId a : relation.schema().attrs()) {
    table.header.push_back(catalog.attr(a).name);
  }
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < relation.num_columns(); ++c) {
      const Column& col = relation.column(c);
      if (col.type() == AttrType::kInt) {
        row.push_back(std::to_string(col.AsInt(r)));
      } else {
        row.push_back(StringPrintf("%.17g", col.doubles()[r]));
      }
    }
    table.rows.push_back(std::move(row));
  }
  return WriteCsv(table);
}

}  // namespace lmfao
