// ValueQuery -> QueryKey canonicalization (hashing/query_key.h): the
// binding between values and the opaque tokens core hashes.

#include "hashing/query_key.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

namespace fxdist {
namespace {

TEST(CanonicalQueryKeyTest, AllWildcardQuery) {
  QueryKey key = CanonicalQueryKey(ValueQuery(3));
  EXPECT_EQ(key.arity(), 3u);
  EXPECT_TRUE(key.all_wildcard());
}

TEST(CanonicalQueryKeyTest, SpecifiedFieldsKeepPositions) {
  ValueQuery q(4);
  q[1] = std::int64_t{7};
  q[3] = std::string("x");
  QueryKey key = CanonicalQueryKey(q);
  ASSERT_EQ(key.specified().size(), 2u);
  EXPECT_EQ(key.specified()[0].first, 1u);
  EXPECT_EQ(key.specified()[1].first, 3u);
}

TEST(CanonicalQueryKeyTest, EqualQueriesEqualKeys) {
  ValueQuery a(3);
  a[0] = std::int64_t{42};
  a[2] = std::string("tag");
  const ValueQuery b = a;
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(b));
  EXPECT_EQ(CanonicalQueryKey(a).hash(), CanonicalQueryKey(b).hash());
}

TEST(CanonicalQueryKeyTest, TokensAreTypeTagged) {
  // int64 5, double 5.0, and string "5" look alike printed but filter
  // differently; their tokens — and keys — must stay distinct.
  ValueQuery as_int(1), as_double(1), as_string(1);
  as_int[0] = std::int64_t{5};
  as_double[0] = 5.0;
  as_string[0] = std::string("5");
  const QueryKey ik = CanonicalQueryKey(as_int);
  const QueryKey dk = CanonicalQueryKey(as_double);
  const QueryKey sk = CanonicalQueryKey(as_string);
  EXPECT_FALSE(ik == dk);
  EXPECT_FALSE(ik == sk);
  EXPECT_FALSE(dk == sk);
}

TEST(CanonicalQueryKeyTest, SamePositionDifferentValueDiffers) {
  ValueQuery a(2), b(2);
  a[0] = std::int64_t{1};
  b[0] = std::int64_t{2};
  EXPECT_FALSE(CanonicalQueryKey(a) == CanonicalQueryKey(b));
}

TEST(CanonicalQueryKeyTest, SameValueDifferentPositionDiffers) {
  ValueQuery a(2), b(2);
  a[0] = std::int64_t{1};
  b[1] = std::int64_t{1};
  EXPECT_FALSE(CanonicalQueryKey(a) == CanonicalQueryKey(b));
}

TEST(CanonicalQueryKeyTest, TokenPrefixesMatchValueCodec) {
  EXPECT_EQ(QueryKeyToken(FieldValue{std::int64_t{-3}}).rfind("i:", 0), 0u);
  EXPECT_EQ(QueryKeyToken(FieldValue{1.5}).rfind("d:", 0), 0u);
  EXPECT_EQ(QueryKeyToken(FieldValue{std::string("ab")}).rfind("s:", 0),
            0u);
}

TEST(CanonicalQueryKeyTest, SignedZerosGetDistinctKeys) {
  // 0.0 == -0.0 under operator==, but the tokens encode IEEE bits: the
  // keys differ.  Safe direction — a missed collapse, never a wrong hit.
  ValueQuery pos(1), neg(1);
  pos[0] = 0.0;
  neg[0] = -0.0;
  EXPECT_FALSE(CanonicalQueryKey(pos) == CanonicalQueryKey(neg));
}

TEST(CanonicalQueryKeyTest, NanBitPatternsCollapseWhenIdentical) {
  const double nan = std::nan("");
  ValueQuery a(1), b(1);
  a[0] = nan;
  b[0] = nan;
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(b));
}

}  // namespace
}  // namespace fxdist
