// PartialMatchQuery: a query that fixes some hashed field values and
// wildcards the rest.  The qualified buckets R(q) are the cartesian product
// of the unspecified field domains with the specified values pinned.

#ifndef FXDIST_CORE_QUERY_H_
#define FXDIST_CORE_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/bucket.h"
#include "core/field_spec.h"
#include "util/status.h"

namespace fxdist {

/// A partial match query over hashed field values.
///
/// Construction is via the factories, which validate specified values
/// against the FieldSpec.  The query does not own the spec; callers pass it
/// to the accessors that need domain information.
class PartialMatchQuery {
 public:
  /// All fields unspecified ("retrieve whole file").
  explicit PartialMatchQuery(unsigned num_fields)
      : values_(num_fields, std::nullopt) {}

  /// Builds a query from per-field optional values.
  static Result<PartialMatchQuery> Create(
      const FieldSpec& spec,
      std::vector<std::optional<std::uint64_t>> values);

  /// Builds the query whose *unspecified* fields are exactly the set bits of
  /// `unspecified_mask` (bit i = field i); specified fields take the value
  /// from `specified`, which must be a full bucket (unspecified positions
  /// are ignored).
  static Result<PartialMatchQuery> FromUnspecifiedMask(
      const FieldSpec& spec, std::uint64_t unspecified_mask,
      const BucketId& specified);

  /// As above with all specified values 0 — the canonical representative of
  /// a query class under shift invariance.
  static Result<PartialMatchQuery> FromUnspecifiedMaskZero(
      const FieldSpec& spec, std::uint64_t unspecified_mask);

  unsigned num_fields() const {
    return static_cast<unsigned>(values_.size());
  }
  bool is_specified(unsigned i) const { return values_[i].has_value(); }
  /// Specified value of field i; callers must check is_specified first.
  std::uint64_t value(unsigned i) const { return *values_[i]; }

  /// Marks field i specified with `v` (validated by Create paths only).
  void Specify(unsigned i, std::uint64_t v) { values_[i] = v; }
  void Unspecify(unsigned i) { values_[i] = std::nullopt; }

  unsigned NumUnspecified() const;
  std::vector<unsigned> UnspecifiedFields() const;
  std::vector<unsigned> SpecifiedFields() const;
  /// Bitmask of unspecified fields (bit i = field i unspecified).
  std::uint64_t UnspecifiedMask() const;

  /// |R(q)| = product of unspecified field sizes.
  std::uint64_t NumQualifiedBuckets(const FieldSpec& spec) const;

  /// True iff `bucket` satisfies the query.
  bool Matches(const BucketId& bucket) const;

  /// True iff R(q) and R(other) share a bucket: exactly when every field
  /// both queries specify carries the same value, since each field of a
  /// shared bucket must satisfy both.  O(num_fields), no enumeration.
  /// Queries of different arity share nothing.
  bool SharesBucketWith(const PartialMatchQuery& other) const;

  /// e.g. "<*, 3, *, 0>".
  std::string ToString() const;

  bool operator==(const PartialMatchQuery& other) const = default;

 private:
  std::vector<std::optional<std::uint64_t>> values_;
};

/// Invokes `fn(const BucketId&)` for every bucket of R(q), odometer order
/// over the unspecified fields (last unspecified field fastest).  `fn`
/// returning false stops early.
template <typename Fn>
void ForEachQualifiedBucket(const FieldSpec& spec,
                            const PartialMatchQuery& query, Fn&& fn) {
  const unsigned n = spec.num_fields();
  BucketId bucket(n, 0);
  std::vector<unsigned> free_fields;
  for (unsigned i = 0; i < n; ++i) {
    if (query.is_specified(i)) {
      bucket[i] = query.value(i);
    } else {
      free_fields.push_back(i);
    }
  }
  while (true) {
    if (!fn(static_cast<const BucketId&>(bucket))) return;
    std::size_t i = free_fields.size();
    while (i > 0) {
      --i;
      const unsigned f = free_fields[i];
      if (++bucket[f] < spec.field_size(f)) break;
      bucket[f] = 0;
      if (i == 0) return;
    }
    if (free_fields.empty()) return;
  }
}

}  // namespace fxdist

#endif  // FXDIST_CORE_QUERY_H_
