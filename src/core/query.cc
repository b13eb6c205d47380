#include "core/query.h"

#include <sstream>

namespace fxdist {

Result<PartialMatchQuery> PartialMatchQuery::Create(
    const FieldSpec& spec, std::vector<std::optional<std::uint64_t>> values) {
  if (values.size() != spec.num_fields()) {
    return Status::InvalidArgument(
        "query has " + std::to_string(values.size()) + " fields, spec has " +
        std::to_string(spec.num_fields()));
  }
  for (unsigned i = 0; i < spec.num_fields(); ++i) {
    if (values[i].has_value() && *values[i] >= spec.field_size(i)) {
      return Status::OutOfRange(
          "field " + std::to_string(i) + " value " +
          std::to_string(*values[i]) + " >= field size " +
          std::to_string(spec.field_size(i)));
    }
  }
  PartialMatchQuery q(spec.num_fields());
  q.values_ = std::move(values);
  return q;
}

Result<PartialMatchQuery> PartialMatchQuery::FromUnspecifiedMask(
    const FieldSpec& spec, std::uint64_t unspecified_mask,
    const BucketId& specified) {
  const unsigned n = spec.num_fields();
  if (n < 64 && (unspecified_mask >> n) != 0) {
    return Status::InvalidArgument("unspecified mask has bits beyond field " +
                                   std::to_string(n - 1));
  }
  if (specified.size() != n) {
    return Status::InvalidArgument("specified bucket arity mismatch");
  }
  std::vector<std::optional<std::uint64_t>> values(n);
  for (unsigned i = 0; i < n; ++i) {
    if (((unspecified_mask >> i) & 1u) == 0) {
      values[i] = specified[i];
    }
  }
  return Create(spec, std::move(values));
}

Result<PartialMatchQuery> PartialMatchQuery::FromUnspecifiedMaskZero(
    const FieldSpec& spec, std::uint64_t unspecified_mask) {
  return FromUnspecifiedMask(spec, unspecified_mask,
                             BucketId(spec.num_fields(), 0));
}

unsigned PartialMatchQuery::NumUnspecified() const {
  unsigned count = 0;
  for (const auto& v : values_) {
    if (!v.has_value()) ++count;
  }
  return count;
}

std::vector<unsigned> PartialMatchQuery::UnspecifiedFields() const {
  std::vector<unsigned> out;
  for (unsigned i = 0; i < num_fields(); ++i) {
    if (!values_[i].has_value()) out.push_back(i);
  }
  return out;
}

std::vector<unsigned> PartialMatchQuery::SpecifiedFields() const {
  std::vector<unsigned> out;
  for (unsigned i = 0; i < num_fields(); ++i) {
    if (values_[i].has_value()) out.push_back(i);
  }
  return out;
}

std::uint64_t PartialMatchQuery::UnspecifiedMask() const {
  std::uint64_t mask = 0;
  for (unsigned i = 0; i < num_fields(); ++i) {
    if (!values_[i].has_value()) mask |= (std::uint64_t{1} << i);
  }
  return mask;
}

std::uint64_t PartialMatchQuery::NumQualifiedBuckets(
    const FieldSpec& spec) const {
  std::uint64_t count = 1;
  for (unsigned i = 0; i < num_fields(); ++i) {
    if (!values_[i].has_value()) count *= spec.field_size(i);
  }
  return count;
}

bool PartialMatchQuery::Matches(const BucketId& bucket) const {
  FXDIST_DCHECK(bucket.size() == values_.size());
  for (unsigned i = 0; i < num_fields(); ++i) {
    if (values_[i].has_value() && bucket[i] != *values_[i]) return false;
  }
  return true;
}

bool PartialMatchQuery::SharesBucketWith(
    const PartialMatchQuery& other) const {
  if (other.num_fields() != num_fields()) return false;
  for (unsigned i = 0; i < num_fields(); ++i) {
    if (values_[i].has_value() && other.values_[i].has_value() &&
        *values_[i] != *other.values_[i]) {
      return false;
    }
  }
  return true;
}

std::string PartialMatchQuery::ToString() const {
  std::ostringstream oss;
  oss << '<';
  for (unsigned i = 0; i < num_fields(); ++i) {
    if (i != 0) oss << ", ";
    if (values_[i].has_value()) {
      oss << *values_[i];
    } else {
      oss << '*';
    }
  }
  oss << '>';
  return oss.str();
}

}  // namespace fxdist
