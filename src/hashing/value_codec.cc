#include "hashing/value_codec.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>

namespace fxdist {

const char* ValueTypeTag(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

Result<ValueType> ParseValueTypeTag(const std::string& tag) {
  if (tag == "int64") return ValueType::kInt64;
  if (tag == "double") return ValueType::kDouble;
  if (tag == "string") return ValueType::kString;
  return Status::InvalidArgument("unknown field type: " + tag);
}

void EncodeLengthPrefixed(std::ostream& os, const std::string& s) {
  os << s.size() << ':' << s;
}

Result<std::string> DecodeLengthPrefixed(std::istream& in) {
  std::size_t len = 0;
  if (!(in >> len)) return Status::InvalidArgument("expected length");
  if (in.get() != ':') {
    return Status::InvalidArgument("expected ':' after length");
  }
  std::string s(len, '\0');
  if (len > 0 && !in.read(s.data(), static_cast<std::streamsize>(len))) {
    return Status::InvalidArgument("short string payload");
  }
  return s;
}

void EncodeValue(std::ostream& os, const FieldValue& value) {
  switch (TypeOf(value)) {
    case ValueType::kInt64:
      os << "i:" << std::get<std::int64_t>(value);
      break;
    case ValueType::kDouble: {
      std::uint64_t bits;
      const double d = std::get<double>(value);
      std::memcpy(&bits, &d, sizeof(bits));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "d:%016" PRIx64, bits);
      os << buf;
      break;
    }
    case ValueType::kString:
      os << "s:";
      EncodeLengthPrefixed(os, std::get<std::string>(value));
      break;
  }
}

Result<FieldValue> DecodeValue(std::istream& in) {
  if (!(in >> std::ws)) return Status::InvalidArgument("unexpected EOF");
  const int tag = in.get();
  if (tag == EOF || in.get() != ':') {
    return Status::InvalidArgument("expected value tag");
  }
  // One named value and one return site: when each case returns its own
  // FieldValue temporary, GCC 12 with -fsanitize=address reports a false
  // -Wmaybe-uninitialized on the string arm of the variant move.
  FieldValue value;
  switch (tag) {
    case 'i': {
      std::int64_t v = 0;
      if (!(in >> v)) return Status::InvalidArgument("expected integer");
      value = v;
      break;
    }
    case 'd': {
      std::string hex;
      if (!(in >> hex) || hex.size() != 16) {
        return Status::InvalidArgument("expected 16 hex digits");
      }
      std::uint64_t bits = 0;
      if (std::sscanf(hex.c_str(), "%016" SCNx64, &bits) != 1) {
        return Status::InvalidArgument("bad double bits: " + hex);
      }
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      value = d;
      break;
    }
    case 's': {
      auto s = DecodeLengthPrefixed(in);
      FXDIST_RETURN_NOT_OK(s.status());
      value = *std::move(s);
      break;
    }
    default:
      return Status::InvalidArgument("unknown value tag");
  }
  return value;
}

}  // namespace fxdist
