#include "sim/persistence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "workload/record_gen.h"
#include "test_paths.h"

namespace fxdist {
namespace {

Schema TestSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"name with spaces", ValueType::kString, 8},
                            {"weight", ValueType::kDouble, 4},
                        })
      .value();
}

std::string TempPath(const char* name) {
  return TestPath(name);
}

// The flat file through SaveBackend / LoadBackend, the one writer and
// loader of saved backends.
TEST(PersistenceTest, RoundTripPreservesEverything) {
  auto file = ParallelFile::Create(TestSchema(), 16, "fx-iu2", 7).value();
  auto gen = RecordGenerator::Uniform(TestSchema(), 3).value();
  for (const Record& r : gen.Take(200)) ASSERT_TRUE(file.Insert(r).ok());

  const std::string path = TempPath("roundtrip.fxdist");
  ASSERT_TRUE(SaveBackend(file, path).ok());
  auto backend = LoadBackend(path);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  const auto* loaded = dynamic_cast<const ParallelFile*>(backend->get());
  ASSERT_NE(loaded, nullptr);

  EXPECT_EQ(loaded->num_records(), file.num_records());
  EXPECT_EQ(loaded->num_devices(), file.num_devices());
  EXPECT_EQ(loaded->distribution_spec(), "fx-iu2");
  EXPECT_EQ(loaded->hash_seed(), 7u);
  EXPECT_EQ(loaded->method().name(), file.method().name());
  // Deterministic placement: identical per-device record counts.
  EXPECT_EQ(loaded->RecordCountsPerDevice(), file.RecordCountsPerDevice());
  std::remove(path.c_str());
}

TEST(PersistenceTest, QueriesEquivalentAfterReload) {
  auto file = ParallelFile::Create(TestSchema(), 8, "modulo", 1).value();
  auto gen = RecordGenerator::Uniform(TestSchema(), 9).value();
  const auto data = gen.Take(150);
  for (const Record& r : data) ASSERT_TRUE(file.Insert(r).ok());

  const std::string path = TempPath("queries.fxdist");
  ASSERT_TRUE(SaveBackend(file, path).ok());
  auto loaded = LoadBackend(path).value();

  for (int i = 0; i < 20; ++i) {
    ValueQuery q(3);
    q[0] = data[static_cast<std::size_t>(i) * 7 % data.size()][0];
    auto a = file.Execute(q).value();
    auto b = loaded->Execute(q).value();
    EXPECT_EQ(a.records.size(), b.records.size()) << i;
    EXPECT_EQ(a.stats.largest_response, b.stats.largest_response) << i;
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, TrickyStringContentSurvives) {
  auto schema = Schema::Create({{"k", ValueType::kInt64, 4},
                                {"payload", ValueType::kString, 4}})
                    .value();
  auto file = ParallelFile::Create(schema, 4, "fx-basic").value();
  const std::string nasty = "line\nbreak tab\t colon: 7:seven \"quoted\"";
  ASSERT_TRUE(file.Insert({std::int64_t{1}, nasty}).ok());
  ASSERT_TRUE(file.Insert({std::int64_t{2}, std::string()}).ok());

  const std::string path = TempPath("tricky.fxdist");
  ASSERT_TRUE(SaveBackend(file, path).ok());
  auto loaded = LoadBackend(path).value();
  ValueQuery q(2);
  q[0] = std::int64_t{1};
  auto result = loaded->Execute(q).value();
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0][1], FieldValue{nasty});
  std::remove(path.c_str());
}

TEST(PersistenceTest, DoubleBitsExactRoundTrip) {
  auto schema = Schema::Create({{"x", ValueType::kDouble, 4}}).value();
  auto file = ParallelFile::Create(schema, 4, "fx-basic").value();
  const double values[] = {0.1, -0.0, 1e-300, 12345.6789e200,
                           0.30000000000000004};
  for (double v : values) ASSERT_TRUE(file.Insert({v}).ok());

  const std::string path = TempPath("doubles.fxdist");
  ASSERT_TRUE(SaveBackend(file, path).ok());
  auto loaded = LoadBackend(path).value();
  for (double v : values) {
    ValueQuery q(1);
    q[0] = v;
    EXPECT_EQ(loaded->Execute(q).value().records.size(),
              file.Execute(q).value().records.size())
        << v;
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, DeletedRecordsNotSaved) {
  auto file = ParallelFile::Create(TestSchema(), 8, "fx-iu2").value();
  auto gen = RecordGenerator::Uniform(TestSchema(), 21).value();
  for (const Record& r : gen.Take(50)) ASSERT_TRUE(file.Insert(r).ok());
  const std::uint64_t removed = file.Delete(ValueQuery(3)).value();
  EXPECT_EQ(removed, 50u);

  const std::string path = TempPath("deleted.fxdist");
  ASSERT_TRUE(SaveBackend(file, path).ok());
  auto loaded = LoadBackend(path).value();
  EXPECT_EQ(loaded->num_records(), 0u);
  std::remove(path.c_str());
}

TEST(PersistenceTest, TruncatedFilesRejectedAtEveryPoint) {
  // Fuzz the parser: truncating a valid file anywhere must produce a
  // clean error, never a crash or a silently short file.
  auto file = ParallelFile::Create(TestSchema(), 8, "fx-iu2").value();
  auto gen = RecordGenerator::Uniform(TestSchema(), 13).value();
  for (const Record& r : gen.Take(5)) ASSERT_TRUE(file.Insert(r).ok());
  const std::string path = TempPath("full.fxdist");
  ASSERT_TRUE(SaveBackend(file, path).ok());
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    content = ss.str();
  }
  const std::string cut_path = TempPath("cut.fxdist");
  for (std::size_t len = 0; len < content.size();
       len += std::max<std::size_t>(1, content.size() / 40)) {
    {
      std::ofstream out(cut_path, std::ios::trunc | std::ios::binary);
      out.write(content.data(), static_cast<std::streamsize>(len));
    }
    auto loaded = LoadBackend(cut_path);
    if (loaded.ok()) {
      // Only acceptable if the cut landed exactly after a complete file.
      EXPECT_EQ((*loaded)->num_records(), file.num_records())
          << "silently short load at cut " << len;
    }
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(PersistenceTest, CorruptFilesRejected) {
  const std::string path = TempPath("corrupt.fxdist");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not an fxdist file at all", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadBackend(path).ok());
  EXPECT_FALSE(LoadBackend("/no/such/file.fxdist").ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Golden blobs: byte-exact copies of the v2 on-disk formats, frozen here
// so loader changes that break old files fail loudly instead of silently
// orphaning saved data, and the retired flat-file v1 format, which must
// be refused cleanly.

std::string WriteGolden(const char* name, const std::string& text) {
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  return path;
}

TEST(GoldenFormatTest, V1FlatFileIsRefused) {
  // What the retired flat-file writer produced.  The loader reports an
  // error instead of guessing at the layout.
  const std::string path = WriteGolden(
      "golden_v1.fxdist",
      "fxdist-file v1\n"
      "devices 4\n"
      "distribution 6:fx-iu2\n"
      "seed 42\n"
      "fields 2\n"
      "field 2:f0 int64 8\n"
      "field 2:f1 int64 8\n"
      "records 3\n"
      "i:1 i:2\n"
      "i:3 i:4\n"
      "i:-5 i:6\n");
  auto loaded = LoadBackend(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(GoldenFormatTest, V2FlatBackendStillLoads) {
  // v2 is the flat body behind a kind token, predating composite kinds
  // and dynamic depths.  LoadBackend must keep accepting it.
  const std::string path = WriteGolden(
      "golden_v2_flat.fxdist",
      "fxdist-backend v2\n"
      "kind flat\n"
      "devices 4\n"
      "distribution 6:fx-iu2\n"
      "seed 42\n"
      "fields 2\n"
      "field 2:f0 int64 8\n"
      "field 2:f1 int64 8\n"
      "records 2\n"
      "i:1 i:2\n"
      "s:0: d:3ff0000000000000\n");  // wrong-typed row must be rejected...

  // ...so the arity/type checks still run on the replay path: the third
  // row's values don't match the schema.
  EXPECT_FALSE(LoadBackend(path).ok());

  const std::string ok_path = WriteGolden(
      "golden_v2_flat_ok.fxdist",
      "fxdist-backend v2\n"
      "kind flat\n"
      "devices 4\n"
      "distribution 6:fx-iu2\n"
      "seed 42\n"
      "fields 2\n"
      "field 2:f0 int64 8\n"
      "field 2:f1 int64 8\n"
      "records 2\n"
      "i:1 i:2\n"
      "i:3 i:4\n");
  auto loaded = LoadBackend(ok_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->backend_name(), "flat");
  EXPECT_EQ((*loaded)->num_records(), 2u);

  // Re-saving upgrades to v3; the upgraded file must reload to the same
  // contents.
  const std::string upgraded = TempPath("golden_v2_upgraded.fxdist");
  ASSERT_TRUE(SaveBackend(**loaded, upgraded).ok());
  auto reloaded = LoadBackend(upgraded);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)->num_records(), 2u);
  EXPECT_EQ((*reloaded)->RecordCountsPerDevice(),
            (*loaded)->RecordCountsPerDevice());
  std::remove(path.c_str());
  std::remove(ok_path.c_str());
  std::remove(upgraded.c_str());
}

TEST(GoldenFormatTest, V2DynamicBackendWithoutDepthsStillLoads) {
  // v2 dynamic blueprints have no "depths" line — directories start at
  // depth 0 and regrow during replay.  v3 added the line; the loader
  // must keep reading the old shape.
  const std::string path = WriteGolden(
      "golden_v2_dynamic.fxdist",
      "fxdist-backend v2\n"
      "kind dynamic\n"
      "devices 2\n"
      "family iu2\n"
      "pagecap 4\n"
      "seed 7\n"
      "fields 2\n"
      "field 2:f0 int64\n"
      "field 2:f1 int64\n"
      "records 3\n"
      "i:10 i:20\n"
      "i:11 i:21\n"
      "i:12 i:22\n");
  auto loaded = LoadBackend(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->backend_name(), "dynamic");
  EXPECT_EQ((*loaded)->num_records(), 3u);

  ValueQuery q(2);
  q[0] = std::int64_t{11};
  auto result = (*loaded)->Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(result->records[0][1]), 21);
  std::remove(path.c_str());
}

TEST(GoldenFormatTest, UnknownVersionsRejected) {
  // v4 is now a real format (in-flight migrations); the first unknown
  // version is v5.
  const std::string path = WriteGolden(
      "golden_v5.fxdist",
      "fxdist-backend v5\n"
      "kind flat\n");
  auto loaded = LoadBackend(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GoldenFormatTest, V4HeaderRecognizedButBodyStillValidated) {
  // A v4 header passes the version gate (it is not "unknown"), but a
  // truncated body is still a clean error, never a crash.
  const std::string path = WriteGolden(
      "golden_v4_truncated.fxdist",
      "fxdist-backend v4\n"
      "kind flat\n");
  auto loaded = LoadBackend(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message().find("unsupported backend format"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fxdist
