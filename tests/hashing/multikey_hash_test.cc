#include "hashing/multikey_hash.h"

#include <gtest/gtest.h>

namespace fxdist {
namespace {

Schema TestSchema() {
  return Schema::Create({
                            {"part_no", ValueType::kInt64, 8},
                            {"supplier", ValueType::kString, 4},
                            {"weight", ValueType::kDouble, 2},
                        })
      .value();
}

TEST(SchemaTest, CreateValidates) {
  EXPECT_FALSE(Schema::Create({}).ok());
  EXPECT_FALSE(Schema::Create({{"", ValueType::kInt64, 8}}).ok());
  EXPECT_FALSE(Schema::Create({{"a", ValueType::kInt64, 3}}).ok());
  EXPECT_FALSE(Schema::Create({{"a", ValueType::kInt64, 8},
                               {"a", ValueType::kInt64, 8}})
                   .ok());
}

TEST(SchemaTest, FieldIndex) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.FieldIndex("supplier").value(), 1u);
  EXPECT_FALSE(s.FieldIndex("nope").ok());
}

TEST(SchemaTest, ToFieldSpec) {
  const Schema s = TestSchema();
  auto spec = s.ToFieldSpec(16);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->field_sizes(), (std::vector<std::uint64_t>{8, 4, 2}));
  EXPECT_EQ(spec->num_devices(), 16u);
  EXPECT_FALSE(s.ToFieldSpec(3).ok());
}

TEST(MultiKeyHashTest, HashRecordProducesValidBucket) {
  const Schema s = TestSchema();
  auto mkh = MultiKeyHash::Create(s).value();
  auto spec = s.ToFieldSpec(16).value();
  Record r{std::int64_t{1234}, std::string("acme"), 12.5};
  auto bucket = mkh.HashRecord(r);
  ASSERT_TRUE(bucket.ok());
  EXPECT_TRUE(IsValidBucket(spec, *bucket));
}

TEST(MultiKeyHashTest, HashIsDeterministic) {
  const Schema s = TestSchema();
  auto a = MultiKeyHash::Create(s, 9).value();
  auto b = MultiKeyHash::Create(s, 9).value();
  Record r{std::int64_t{77}, std::string("zeta"), 0.25};
  EXPECT_EQ(a.HashRecord(r).value(), b.HashRecord(r).value());
}

TEST(MultiKeyHashTest, SeedChangesHashFamily) {
  const Schema s = TestSchema();
  auto a = MultiKeyHash::Create(s, 1).value();
  auto b = MultiKeyHash::Create(s, 2).value();
  int diff = 0;
  for (int i = 0; i < 32; ++i) {
    Record r{std::int64_t{i}, std::string("s") + std::to_string(i),
             i * 1.5};
    if (a.HashRecord(r).value() != b.HashRecord(r).value()) ++diff;
  }
  EXPECT_GT(diff, 8);
}

TEST(MultiKeyHashTest, ArityAndTypeErrors) {
  const Schema s = TestSchema();
  auto mkh = MultiKeyHash::Create(s).value();
  EXPECT_FALSE(mkh.HashRecord({std::int64_t{1}}).ok());
  // Wrong type in field 0 (string instead of int).
  EXPECT_FALSE(
      mkh.HashRecord({std::string("x"), std::string("y"), 1.0}).ok());
}

TEST(MultiKeyHashTest, HashQueryPreservesWildcards) {
  const Schema s = TestSchema();
  auto mkh = MultiKeyHash::Create(s).value();
  auto spec = s.ToFieldSpec(16).value();
  ValueQuery q(3);
  q[0] = std::int64_t{1234};
  auto hashed = mkh.HashQuery(spec, q);
  ASSERT_TRUE(hashed.ok());
  EXPECT_TRUE(hashed->is_specified(0));
  EXPECT_FALSE(hashed->is_specified(1));
  EXPECT_FALSE(hashed->is_specified(2));
}

TEST(MultiKeyHashTest, HashQueryAgreesWithHashRecord) {
  // A query specifying a record's value on field i must hash to the same
  // coordinate the record got — otherwise retrieval would miss it.
  const Schema s = TestSchema();
  auto mkh = MultiKeyHash::Create(s).value();
  auto spec = s.ToFieldSpec(16).value();
  Record r{std::int64_t{55}, std::string("acme"), 9.75};
  const BucketId bucket = mkh.HashRecord(r).value();
  for (unsigned i = 0; i < 3; ++i) {
    ValueQuery q(3);
    q[i] = r[i];
    auto hashed = mkh.HashQuery(spec, q).value();
    EXPECT_EQ(hashed.value(i), bucket[i]) << "field " << i;
  }
}

}  // namespace
}  // namespace fxdist
