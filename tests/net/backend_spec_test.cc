// Child-backend spec strings (net/backend_spec.h), focused on the
// "packed:path" kind: per-device packed images compose into a
// ShardedBackend that answers bit-identically to the flat backend the
// images were packed from, and malformed or mismatched specs, and spec
// forms no caller passes, are rejected with honest errors.

#include "net/backend_spec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/composite_backend.h"
#include "sim/packed_backend.h"
#include "sim/parallel_file.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"
#include "test_paths.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kSeed = 31;
constexpr std::uint64_t kDevices = 4;

Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"tag", ValueType::kString, 4},
                            {"score", ValueType::kInt64, 4},
                        })
      .value();
}

TEST(BackendSpecTest, PackedShardsServeBitIdentically) {
  const Schema schema = TestSchema();
  auto flat = ParallelFile::Create(schema, kDevices, "fx-iu2", kSeed).value();
  auto gen = RecordGenerator::Uniform(schema, kSeed).value();
  const std::vector<Record> records = gen.Take(300);
  for (const Record& r : records) ASSERT_TRUE(flat.Insert(r).ok());

  std::vector<std::string> paths;
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (std::uint64_t d = 0; d < kDevices; ++d) {
    paths.push_back(TestPath("spec_dev" + std::to_string(d) + ".fxpk"));
    auto written = PackBackend(flat, paths.back(), d);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    auto child = MakeChildBackend("packed:" + paths.back(), schema,
                                  kDevices, "fx-iu2", kSeed);
    ASSERT_TRUE(child.ok()) << child.status().ToString();
    children.push_back(*std::move(child));
  }

  auto sharded = ShardedBackend::Create(std::move(children));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->num_records(), flat.num_records());
  EXPECT_EQ(sharded->RecordCountsPerDevice(), flat.RecordCountsPerDevice());

  auto qgen = QueryGenerator::Create(&records, 0.5, kSeed + 1).value();
  for (int i = 0; i < 20; ++i) {
    const ValueQuery q = qgen.Next();
    auto a = flat.Execute(q);
    auto b = sharded->Execute(q);
    ASSERT_TRUE(a.ok()) << "query " << i;
    ASSERT_TRUE(b.ok()) << "query " << i;
    EXPECT_EQ(a->records, b->records) << "query " << i;
    EXPECT_EQ(a->stats.qualified_per_device, b->stats.qualified_per_device)
        << "query " << i;
    EXPECT_EQ(a->stats.records_matched, b->stats.records_matched)
        << "query " << i;
  }
  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(BackendSpecTest, RejectsBadPackedSpecs) {
  const Schema schema = TestSchema();
  // Empty path, and spec forms no caller passes.
  for (const char* spec :
       {"packed:", "remote:127.0.0.1:1", "paged:8", "dynamic:64"}) {
    auto made = MakeChildBackend(spec, schema, kDevices, "fx-iu2", kSeed);
    ASSERT_FALSE(made.ok()) << spec;
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument)
        << spec << ": " << made.status().ToString();
  }
  // Missing file.
  EXPECT_FALSE(MakeChildBackend("packed:/nonexistent/no.fxpk", schema,
                                kDevices, "fx-iu2", kSeed)
                   .ok());
  // Device-count mismatch: image packed for 2 devices, composite wants 4.
  auto flat = ParallelFile::Create(schema, 2, "fx-iu2", kSeed).value();
  const std::string path = TestPath("spec_mismatch.fxpk");
  ASSERT_TRUE(PackBackend(flat, path).ok());
  auto mismatched =
      MakeChildBackend("packed:" + path, schema, kDevices, "fx-iu2", kSeed);
  EXPECT_FALSE(mismatched.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fxdist
