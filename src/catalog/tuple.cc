#include "catalog/tuple.h"

#include <cstring>

#include "common/string_util.h"

namespace stagedb::catalog {

namespace {
template <typename T>
void AppendRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
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

Status LocateColumns(const Schema& schema, std::string_view bytes,
                     ColumnOffsets* offsets) {
  const size_t n = schema.num_columns();
  offsets->resize(n);
  const size_t bitmap_len = (n + 7) / 8;
  if (bytes.size() < bitmap_len) {
    return Status::Corruption("tuple shorter than null bitmap");
  }
  if (bytes.size() >= kNullColumn) return Status::Corruption("tuple too long");
  const std::vector<Column>& columns = schema.columns();
  const size_t size = bytes.size();
  size_t at = bitmap_len;
  for (size_t i = 0; i < n; ++i) {
    if ((bytes[i / 8] >> (i % 8)) & 1) {
      (*offsets)[i] = kNullColumn;
      continue;
    }
    (*offsets)[i] = static_cast<uint32_t>(at);
    switch (columns[i].type) {
      case TypeId::kBool:
        if (size - at < sizeof(uint8_t)) {
          return Status::Corruption("truncated bool");
        }
        at += sizeof(uint8_t);
        break;
      case TypeId::kInt64:
        if (size - at < sizeof(int64_t)) {
          return Status::Corruption("truncated int");
        }
        at += sizeof(int64_t);
        break;
      case TypeId::kDouble:
        if (size - at < sizeof(double)) {
          return Status::Corruption("truncated double");
        }
        at += sizeof(double);
        break;
      case TypeId::kVarchar: {
        uint32_t len;
        if (size - at < sizeof(len)) {
          return Status::Corruption("truncated varchar");
        }
        std::memcpy(&len, bytes.data() + at, sizeof(len));
        at += sizeof(len);
        if (size - at < len) return Status::Corruption("truncated varchar");
        at += len;
        break;
      }
      default:
        return Status::Corruption("unknown column type");
    }
  }
  return Status::OK();
}

Status DecodeLocated(const Schema& schema, std::string_view bytes,
                     const ColumnOffsets& offsets, const SlotMap& slots,
                     Tuple* out) {
  const size_t n = schema.num_columns();
  if (slots.size() != n || offsets.size() != n) {
    return Status::Internal("slot map does not match the schema width");
  }
  const std::vector<Column>& columns = schema.columns();
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = slots[i];
    if (slot == kSkipColumn) continue;
    if (slot >= out->size()) {
      return Status::Internal("decode slot past the output row");
    }
    Value& v = (*out)[slot];
    if (offsets[i] == kNullColumn) {
      v = Value::Null();
      continue;
    }
    const char* at = bytes.data() + offsets[i];
    switch (columns[i].type) {
      case TypeId::kBool: {
        uint8_t b;
        std::memcpy(&b, at, sizeof(b));
        v = Value::Bool(b != 0);
        break;
      }
      case TypeId::kInt64: {
        int64_t x;
        std::memcpy(&x, at, sizeof(x));
        v = Value::Int(x);
        break;
      }
      case TypeId::kDouble: {
        double x;
        std::memcpy(&x, at, sizeof(x));
        v = Value::Double(x);
        break;
      }
      case TypeId::kVarchar: {
        uint32_t len;
        std::memcpy(&len, at, sizeof(len));
        v.AssignVarchar(std::string_view(at + sizeof(len), len));
        break;
      }
      default:
        return Status::Corruption("unknown column type");
    }
  }
  return Status::OK();
}

StatusOr<Tuple> DecodeTuple(const Schema& schema, std::string_view bytes) {
  const size_t n = schema.num_columns();
  Tuple tuple(n);
  STAGEDB_RETURN_IF_ERROR(DecodeTuple(schema, bytes, IdentitySlots(n), &tuple));
  return tuple;
}

Status DecodeTuple(const Schema& schema, std::string_view bytes,
                   const SlotMap& slots, Tuple* out) {
  if (slots.size() != schema.num_columns()) {
    return Status::Internal("slot map does not match the schema width");
  }
  ColumnOffsets offsets;
  STAGEDB_RETURN_IF_ERROR(LocateColumns(schema, bytes, &offsets));
  return DecodeLocated(schema, bytes, offsets, slots, out);
}

std::string TupleToString(const Tuple& tuple) {
  std::vector<std::string> parts;
  parts.reserve(tuple.size());
  for (const Value& v : tuple) parts.push_back(v.ToString());
  return "(" + StrJoin(parts, ", ") + ")";
}

}  // namespace stagedb::catalog
