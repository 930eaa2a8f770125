#include "catalog/tuple.h"

#include <cstring>

#include "common/string_util.h"

namespace stagedb::catalog {

namespace {
template <typename T>
void AppendRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}
template <typename T>
bool ReadRaw(std::string_view* in, T* v) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(v, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}
}  // namespace

std::string EncodeTuple(const Schema& schema, const Tuple& tuple) {
  std::string out;
  const size_t n = schema.num_columns();
  // Null bitmap, one byte per 8 columns.
  std::string bitmap((n + 7) / 8, '\0');
  for (size_t i = 0; i < n; ++i) {
    if (i < tuple.size() && tuple[i].is_null()) {
      bitmap[i / 8] |= static_cast<char>(1u << (i % 8));
    }
  }
  out += bitmap;
  for (size_t i = 0; i < n; ++i) {
    const Value& v = i < tuple.size() ? tuple[i] : Value::Null();
    if (v.is_null()) continue;
    switch (schema.column(i).type) {
      case TypeId::kBool:
        AppendRaw<uint8_t>(&out, v.bool_value() ? 1 : 0);
        break;
      case TypeId::kInt64:
        AppendRaw<int64_t>(&out, v.int_value());
        break;
      case TypeId::kDouble:
        AppendRaw<double>(&out, v.double_value());
        break;
      case TypeId::kVarchar: {
        const std::string& s = v.varchar_value();
        AppendRaw<uint32_t>(&out, static_cast<uint32_t>(s.size()));
        out += s;
        break;
      }
      default:
        break;
    }
  }
  return out;
}

SlotMap IdentitySlots(size_t width) {
  SlotMap slots(width);
  for (size_t i = 0; i < width; ++i) slots[i] = i;
  return slots;
}

StatusOr<Tuple> DecodeTuple(const Schema& schema, std::string_view bytes) {
  const size_t n = schema.num_columns();
  Tuple tuple(n);
  STAGEDB_RETURN_IF_ERROR(DecodeTuple(schema, bytes, IdentitySlots(n), &tuple));
  return tuple;
}

Status DecodeTuple(const Schema& schema, std::string_view bytes,
                   const SlotMap& slots, Tuple* out) {
  const size_t n = schema.num_columns();
  if (slots.size() != n) {
    return Status::Internal("slot map does not match the schema width");
  }
  const size_t bitmap_len = (n + 7) / 8;
  if (bytes.size() < bitmap_len) {
    return Status::Corruption("tuple shorter than null bitmap");
  }
  std::string_view bitmap = bytes.substr(0, bitmap_len);
  bytes.remove_prefix(bitmap_len);
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = slots[i];
    const bool wanted = slot != kSkipColumn;
    if (wanted && slot >= out->size()) {
      return Status::Internal("decode slot past the output row");
    }
    const bool null = (bitmap[i / 8] >> (i % 8)) & 1;
    if (null) {
      if (wanted) (*out)[slot] = Value::Null();
      continue;
    }
    switch (schema.column(i).type) {
      case TypeId::kBool: {
        uint8_t b;
        if (!ReadRaw(&bytes, &b)) return Status::Corruption("truncated bool");
        if (wanted) (*out)[slot] = Value::Bool(b != 0);
        break;
      }
      case TypeId::kInt64: {
        int64_t v;
        if (!ReadRaw(&bytes, &v)) return Status::Corruption("truncated int");
        if (wanted) (*out)[slot] = Value::Int(v);
        break;
      }
      case TypeId::kDouble: {
        double v;
        if (!ReadRaw(&bytes, &v)) return Status::Corruption("truncated double");
        if (wanted) (*out)[slot] = Value::Double(v);
        break;
      }
      case TypeId::kVarchar: {
        uint32_t len;
        if (!ReadRaw(&bytes, &len) || bytes.size() < len) {
          return Status::Corruption("truncated varchar");
        }
        if (wanted) {
          (*out)[slot] = Value::Varchar(std::string(bytes.substr(0, len)));
        }
        bytes.remove_prefix(len);
        break;
      }
      default:
        return Status::Corruption("unknown column type");
    }
  }
  return Status::OK();
}

std::string TupleToString(const Tuple& tuple) {
  std::vector<std::string> parts;
  parts.reserve(tuple.size());
  for (const Value& v : tuple) parts.push_back(v.ToString());
  return "(" + StrJoin(parts, ", ") + ")";
}

}  // namespace stagedb::catalog
