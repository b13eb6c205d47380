#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "workload/query_gen.h"
#include "workload/record_gen.h"
#include "test_paths.h"

namespace fxdist {
namespace {

std::string TempPath(const char* name) {
  return TestPath(name);
}

Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"tag", ValueType::kString, 4},
                            {"x", ValueType::kDouble, 4},
                        })
      .value();
}

WorkloadTrace MakeTrace() {
  WorkloadTrace trace;
  trace.num_fields = 3;
  auto gen = RecordGenerator::Uniform(TestSchema(), 3).value();
  trace.records = gen.Take(50);
  auto qgen = QueryGenerator::Create(&trace.records, 0.5, 7).value();
  for (int i = 0; i < 20; ++i) trace.queries.push_back(qgen.Next());
  return trace;
}

TEST(TraceTest, RoundTrip) {
  const WorkloadTrace trace = MakeTrace();
  const std::string path = TempPath("trace.fxt");
  ASSERT_TRUE(SaveTrace(trace, path).ok());
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_fields, 3u);
  EXPECT_EQ(loaded->records, trace.records);
  EXPECT_EQ(loaded->queries, trace.queries);
  std::remove(path.c_str());
}

TEST(TraceTest, WildcardsPreserved) {
  WorkloadTrace trace;
  trace.num_fields = 2;
  trace.records = {{std::int64_t{1}, std::string("a")}};
  ValueQuery all_wild(2);
  ValueQuery mixed(2);
  mixed[1] = FieldValue{std::string("a b c")};
  trace.queries = {all_wild, mixed};
  const std::string path = TempPath("wild.fxt");
  ASSERT_TRUE(SaveTrace(trace, path).ok());
  auto loaded = LoadTrace(path).value();
  EXPECT_FALSE(loaded.queries[0][0].has_value());
  EXPECT_FALSE(loaded.queries[0][1].has_value());
  EXPECT_FALSE(loaded.queries[1][0].has_value());
  EXPECT_EQ(loaded.queries[1][1], FieldValue{std::string("a b c")});
  std::remove(path.c_str());
}

TEST(TraceTest, ArityMismatchRejectedOnSave) {
  WorkloadTrace trace;
  trace.num_fields = 2;
  trace.records = {{std::int64_t{1}}};  // arity 1
  const std::string path = TempPath("bad.fxt");
  EXPECT_FALSE(SaveTrace(trace, path).ok());
  std::remove(path.c_str());
}

TEST(TraceTest, CorruptAndMissingFilesRejected) {
  EXPECT_FALSE(LoadTrace("/no/such/trace.fxt").ok());
  const std::string path = TempPath("garbage.fxt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("fxdist-trace v1 fields 9999 records 1", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadTrace(path).ok());
  std::remove(path.c_str());
}

TEST(TraceTest, MetaRoundTripsAsV2) {
  WorkloadTrace trace = MakeTrace();
  trace.meta = "gen-trace seed=42 zipf=1.1 \"quoted\" and spaces";
  const std::string path = TempPath("meta.fxt");
  ASSERT_TRUE(SaveTrace(trace, path).ok());
  {
    std::ifstream in(path);
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_EQ(first_line, "fxdist-trace v2");
  }
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta, trace.meta);
  EXPECT_EQ(loaded->records, trace.records);
  EXPECT_EQ(loaded->queries, trace.queries);
  std::remove(path.c_str());
}

TEST(TraceTest, EmptyMetaWritesV1Verbatim) {
  // Backward compatibility is byte-level: a meta-less trace must be the
  // exact v1 file older readers already parse.
  const WorkloadTrace trace = MakeTrace();
  const std::string path = TempPath("v1.fxt");
  ASSERT_TRUE(SaveTrace(trace, path).ok());
  std::ifstream in(path);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "fxdist-trace v1");
  std::string second_line;
  std::getline(in, second_line);
  EXPECT_EQ(second_line.rfind("fields ", 0), 0u);
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->meta.empty());
  std::remove(path.c_str());
}

TEST(TraceTest, V2MissingMetaLineRejected) {
  const std::string path = TempPath("badv2.fxt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("fxdist-trace v2\nfields 2\nrecords 0\nqueries 0\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadTrace(path).ok());
  std::remove(path.c_str());
}

TEST(TraceTest, EmptyTraceRoundTrips) {
  WorkloadTrace trace;
  trace.num_fields = 4;
  const std::string path = TempPath("empty.fxt");
  ASSERT_TRUE(SaveTrace(trace, path).ok());
  auto loaded = LoadTrace(path).value();
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_TRUE(loaded.queries.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fxdist
