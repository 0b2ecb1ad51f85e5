#include "storage/types.h"

#include <sstream>

namespace lmfao {

const char* AttrTypeName(AttrType type) {
  switch (type) {
    case AttrType::kInt:
      return "int";
    case AttrType::kDouble:
      return "double";
  }
  return "?";
}

std::string Value::ToString() const {
  std::ostringstream out;
  if (type_ == AttrType::kInt) {
    out << AsInt();
  } else {
    out << AsDouble();
  }
  return out.str();
}

}  // namespace lmfao
