// Format wall for packed files: a golden pin of a deterministic build
// (any byte-level change to the writer must show up here as a diff, not
// slip out as silent incompatibility), plus the corruption suite — every
// way a mapped file can lie (truncation, appended garbage, flipped
// checksums, directory ranges past EOF, varint overruns) must surface as
// DataLoss and never as a crash or over-read, including under ASan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/packed_backend.h"
#include "sim/packed_format.h"
#include "util/random.h"
#include "test_paths.h"

namespace fxdist {
namespace {

Schema GoldenSchema() {
  return Schema::Create({
                            {"id", ValueType::kInt64, 8},
                            {"tag", ValueType::kString, 4},
                            {"score", ValueType::kInt64, 4},
                        })
      .value();
}

/// Hand-written records: the golden image must not depend on any
/// generator's stream layout.
std::vector<Record> GoldenRecords() {
  std::vector<Record> records;
  const char* tags[] = {"ab", "cd", "ef", "gh", "ij", "kl", "mn"};
  for (std::int64_t i = 0; i < 7; ++i) {
    records.push_back({FieldValue{i * 11 - 3},
                       FieldValue{std::string(tags[i])},
                       FieldValue{std::int64_t{100 - i}}});
  }
  return records;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Builds the deterministic golden image: fixed schema, 2 devices,
/// fx-iu2 placement, seed 1.
std::string BuildGoldenImage() {
  const std::string path = TestPath("golden.fxpk");
  auto builder = PackedBuilder::Create(GoldenSchema(), 2, "fx-iu2", 1, path);
  EXPECT_TRUE(builder.ok()) << builder.status().ToString();
  for (const Record& r : GoldenRecords()) {
    EXPECT_TRUE(builder->Add(r).ok());
  }
  EXPECT_TRUE(builder->Finish().ok());
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

std::string HexPrefix(const std::string& bytes, std::size_t n) {
  std::string out;
  char buf[4];
  for (std::size_t i = 0; i < n && i < bytes.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%02x",
                  static_cast<unsigned char>(bytes[i]));
    out += buf;
  }
  return out;
}

using Delivery = std::vector<std::pair<std::size_t, Record>>;

/// Scans every non-empty bucket in directory order through ScanMany.
Delivery ScanEverything(const StorageBackend& backend) {
  const PartialMatchQuery hashed =
      backend.HashQuery(ValueQuery(3)).value();
  std::vector<BucketRef> refs;
  for (std::uint64_t d = 0; d < backend.num_devices(); ++d) {
    backend.device_map().ForEachQualifiedLinearOnDevice(
        hashed, d, [&refs, d](std::uint64_t linear) {
          refs.push_back({d, linear});
          return true;
        });
  }
  Delivery out;
  backend.ScanMany(refs, [&out](std::size_t s, const Record& record) {
    out.emplace_back(s, record);
    return true;
  });
  return out;
}

// -- Golden pin -----------------------------------------------------------

// If this test fails, the writer's byte layout changed: that is a format
// break.  Bump packed::kVersion and re-pin — never just update the
// constants to make it pass.
TEST(PackedGoldenTest, ImageIsByteStable) {
  const std::string bytes = BuildGoldenImage();
  EXPECT_EQ(bytes.size(), 347u);
  EXPECT_EQ(packed::Checksum(bytes), 0xbc9774ed6dcd4684ull);
  // Header prefix: magic "FXPK", version 2, file size 347.
  EXPECT_EQ(HexPrefix(bytes, 16), "4658504b020000005b01000000000000");

  auto header = packed::DecodeHeader(bytes);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->num_devices, 2u);
  EXPECT_EQ(header->num_records, 7u);
  EXPECT_EQ(header->num_buckets, 7u);
  EXPECT_EQ(header->file_size, bytes.size());

  // And the image is fully readable: every record comes back.
  auto opened = PackedBackend::OpenFromBuffer(bytes);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->num_records(), 7u);
  std::vector<Record> seen;
  (*opened)->ForEachLiveRecord(
      [&seen](const Record& r) { seen.push_back(r); });
  EXPECT_EQ(seen.size(), 7u);
}

// -- Corruption: structural -----------------------------------------------

TEST(PackedCorruptionTest, EveryTruncationFailsWithDataLoss) {
  const std::string bytes = BuildGoldenImage();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto opened = PackedBackend::OpenFromBuffer(bytes.substr(0, len));
    ASSERT_FALSE(opened.ok()) << "prefix " << len << " opened";
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
        << "prefix " << len;
  }
}

TEST(PackedCorruptionTest, AppendedGarbageFailsWithDataLoss) {
  const std::string bytes = BuildGoldenImage();
  auto opened =
      PackedBackend::OpenFromBuffer(bytes + std::string(17, '\xee'));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(PackedCorruptionTest, DirectoryOffsetPastEofFailsAtOpen) {
  // Re-seal the header (valid checksum!) with the bucket directory
  // pointing past the end of the file: the range check alone must
  // reject it.
  std::string bytes = BuildGoldenImage();
  auto header = packed::DecodeHeader(bytes).value();
  header.directory_off = header.file_size + 64;
  bytes.replace(0, packed::kHeaderSize, packed::EncodeHeader(header));
  auto opened = PackedBackend::OpenFromBuffer(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(PackedCorruptionTest, BlueprintRunningOffEofFailsAtOpen) {
  std::string bytes = BuildGoldenImage();
  auto header = packed::DecodeHeader(bytes).value();
  header.blueprint_len = header.file_size;  // off + len overflows the file
  bytes.replace(0, packed::kHeaderSize, packed::EncodeHeader(header));
  auto opened = PackedBackend::OpenFromBuffer(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(PackedCorruptionTest, FlippedHeaderByteFailsAtOpen) {
  std::string bytes = BuildGoldenImage();
  bytes[8] = static_cast<char>(bytes[8] ^ 0x40);  // inside file_size
  auto opened = PackedBackend::OpenFromBuffer(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(PackedCorruptionTest, WrongMagicAndVersionFailAtOpen) {
  const std::string bytes = BuildGoldenImage();
  {
    std::string bad = bytes;
    bad[0] = 'Z';
    EXPECT_EQ(PackedBackend::OpenFromBuffer(bad).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // A future version must be refused even with a fixed-up checksum.
    auto header = packed::DecodeHeader(bytes).value();
    std::string sealed = packed::EncodeHeader(header);
    sealed[4] = 3;  // version field
    std::string bad = bytes;
    bad.replace(0, packed::kHeaderSize, sealed);
    EXPECT_EQ(PackedBackend::OpenFromBuffer(bad).status().code(),
              StatusCode::kDataLoss);
  }
}

TEST(PackedCorruptionTest, VersionOneFileIsRefused) {
  // Version 1 (arrival-ordered record blocks + posting lists) is not
  // read: such files must be re-packed, and the refusal must say so
  // rather than misparse a 104-byte header as this version's.
  std::string bytes = BuildGoldenImage();
  bytes[4] = 1;  // version field, checked before the header checksum
  auto opened = PackedBackend::OpenFromBuffer(bytes);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(opened.status().message().find(
                "unsupported packed format version 1"),
            std::string::npos)
      << opened.status().ToString();
}

// -- Corruption: payload checksums ----------------------------------------

TEST(PackedCorruptionTest, FlippedPayloadByteFailsEagerOpen) {
  std::string bytes = BuildGoldenImage();
  // First payload byte: inside the first bucket block.
  bytes[packed::kHeaderSize] =
      static_cast<char>(bytes[packed::kHeaderSize] ^ 0x01);
  PackedOptions options;
  options.verify_all_checksums = true;
  auto opened = PackedBackend::OpenFromBuffer(bytes, options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(PackedCorruptionTest, FlippedPayloadBytePoisonsLazyScans) {
  std::string bytes = BuildGoldenImage();
  bytes[packed::kHeaderSize] =
      static_cast<char>(bytes[packed::kHeaderSize] ^ 0x01);
  // Lazy default: the directories are intact, so Open succeeds...
  auto opened = PackedBackend::OpenFromBuffer(bytes);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->Health().ok());
  // ...but touching the corrupted block poisons Health with DataLoss
  // instead of delivering garbage records.
  const Delivery delivered = ScanEverything(**opened);
  auto health = (*opened)->Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.code(), StatusCode::kDataLoss);
  EXPECT_LT(delivered.size(), (*opened)->num_records());
}

/// The golden image with one bucket's directory count raised by one and
/// the per-device and header counts raised to match, every checksum
/// resealed: structurally consistent, but that bucket's block holds one
/// record fewer than its entry claims.
std::string ImageWithOvercountedBucket() {
  std::string bytes = BuildGoldenImage();
  packed::Header header = packed::DecodeHeader(bytes).value();
  packed::Directory dir =
      packed::DecodeDirectory(
          std::string_view(bytes).substr(header.directory_off,
                                         header.directory_len),
          header.file_size, header.num_devices, header.num_records,
          header.num_buckets)
          .value();
  packed::BucketEntry& entry = dir.buckets.front();
  ++entry.count;
  ++dir.device_records[entry.device];
  ++header.num_records;
  const std::string resealed = packed::EncodeDirectory(dir);
  EXPECT_EQ(resealed.size(), header.directory_len);
  bytes.replace(header.directory_off, header.directory_len, resealed);
  bytes.replace(0, packed::kHeaderSize, packed::EncodeHeader(header));
  return bytes;
}

TEST(PackedCorruptionTest, DirectoryCountDisagreeingWithBlockFailsEagerOpen) {
  PackedOptions options;
  options.verify_all_checksums = true;
  auto opened =
      PackedBackend::OpenFromBuffer(ImageWithOvercountedBucket(), options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
}

TEST(PackedCorruptionTest, DirectoryCountDisagreeingWithBlockPoisonsLazyScans) {
  // Every checksum holds, so only decoding the block against its count
  // can tell: a scan must poison Health, and a fresh Execute must fail
  // rather than answer from the records it could decode.
  const std::string bytes = ImageWithOvercountedBucket();
  auto scanned = PackedBackend::OpenFromBuffer(bytes);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_TRUE((*scanned)->Health().ok());
  (void)ScanEverything(**scanned);
  auto health = (*scanned)->Health();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.code(), StatusCode::kDataLoss);

  auto executed = PackedBackend::OpenFromBuffer(bytes);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  auto result = (*executed)->Execute(ValueQuery(3));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ((*executed)->Health().code(), StatusCode::kDataLoss);
}

// -- Corruption: directory-level validation (crafted sections) ------------

packed::Directory ValidDirectory() {
  packed::Directory dir;
  dir.device_records = {3, 2};
  dir.field_types = {ValueType::kInt64, ValueType::kString};
  dir.buckets.push_back({0, 1, 3, packed::kHeaderSize, 10, 77});
  dir.buckets.push_back({1, 4, 2, packed::kHeaderSize + 10, 8, 88});
  return dir;
}

constexpr std::uint64_t kDirFileSize = 400;

TEST(PackedDirectoryTest, RoundTripsAndValidates) {
  const packed::Directory dir = ValidDirectory();
  auto decoded = packed::DecodeDirectory(packed::EncodeDirectory(dir),
                                         kDirFileSize, 2, 5, 2);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->device_records, dir.device_records);
  EXPECT_EQ(decoded->field_types, dir.field_types);
  ASSERT_EQ(decoded->buckets.size(), 2u);
  EXPECT_EQ(decoded->buckets[1].offset, dir.buckets[1].offset);
  EXPECT_EQ(decoded->buckets[1].checksum, dir.buckets[1].checksum);
}

TEST(PackedDirectoryTest, RejectsEveryInvariantBreak) {
  const auto expect_data_loss = [](const packed::Directory& dir,
                                   const char* what) {
    auto decoded = packed::DecodeDirectory(packed::EncodeDirectory(dir),
                                           kDirFileSize, 2, 5, 2);
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << what;
  };

  packed::Directory dir = ValidDirectory();
  dir.buckets[1].offset = kDirFileSize - 2;  // block runs past EOF
  expect_data_loss(dir, "offset past EOF");

  dir = ValidDirectory();
  dir.buckets[1].device = 2;  // device id out of range
  expect_data_loss(dir, "device out of range");

  dir = ValidDirectory();
  std::swap(dir.buckets[0], dir.buckets[1]);  // not ascending
  expect_data_loss(dir, "descending order");

  dir = ValidDirectory();
  dir.buckets[0].count = 0;  // empty buckets have no directory entry
  expect_data_loss(dir, "zero count");

  dir = ValidDirectory();
  dir.device_records = {4, 2};  // 6 != num_records
  expect_data_loss(dir, "device sum mismatch");

  dir = ValidDirectory();
  dir.buckets[0].count = 2;  // device 0's buckets sum to 2, not 3
  expect_data_loss(dir, "bucket sum mismatch");

  dir = ValidDirectory();
  dir.device_records = {2, 3};  // sums to 5, but not device by device
  expect_data_loss(dir, "per-device mismatch");

  // A flipped byte anywhere trips the section checksum.
  std::string bytes = packed::EncodeDirectory(ValidDirectory());
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  auto decoded = packed::DecodeDirectory(bytes, kDirFileSize, 2, 5, 2);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

// -- Fuzz: random single-bit flips ----------------------------------------

// Flip one bit anywhere in the image and open it both lazily and with
// eager verification: no outcome may crash or over-read (ASan enforces
// the latter), and a lazy open that succeeds must either deliver the
// exact clean scan or poison Health — never silently wrong data.
TEST(PackedFuzzTest, SingleBitFlipsNeverCrashOrLie) {
  const std::string clean = BuildGoldenImage();
  const Delivery expected = [&clean] {
    auto opened = PackedBackend::OpenFromBuffer(clean);
    EXPECT_TRUE(opened.ok());
    return ScanEverything(**opened);
  }();

  Xoshiro256 rng(2026);
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t pos = rng.Next() % clean.size();
    const int bit = static_cast<int>(rng.Next() % 8);
    std::string mutated = clean;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
    const std::string context =
        "byte " + std::to_string(pos) + " bit " + std::to_string(bit);

    PackedOptions eager;
    eager.verify_all_checksums = true;
    auto strict = PackedBackend::OpenFromBuffer(mutated, eager);
    if (strict.ok()) {
      // Every byte of the payload and directories is checksummed and the
      // blueprint feeds the twin parser: an eager open that still
      // succeeds must behave exactly like the clean file.
      EXPECT_EQ(ScanEverything(**strict), expected) << context;
      EXPECT_TRUE((*strict)->Health().ok()) << context;
    }

    auto lazy = PackedBackend::OpenFromBuffer(mutated);
    if (!lazy.ok()) continue;
    const Delivery delivered = ScanEverything(**lazy);
    if ((*lazy)->Health().ok()) {
      EXPECT_EQ(delivered, expected) << context;
    } else {
      EXPECT_EQ((*lazy)->Health().code(), StatusCode::kDataLoss)
          << context;
    }
  }
}

// Stacked corruption: flip several bytes at once.
TEST(PackedFuzzTest, MultiByteCorruptionNeverCrashes) {
  const std::string clean = BuildGoldenImage();
  Xoshiro256 rng(4096);
  for (int iter = 0; iter < 100; ++iter) {
    std::string mutated = clean;
    const int flips = 1 + static_cast<int>(rng.Next() % 16);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.Next() % mutated.size();
      mutated[pos] = static_cast<char>(rng.Next() & 0xff);
    }
    auto opened = PackedBackend::OpenFromBuffer(mutated);
    if (!opened.ok()) {
      EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
      continue;
    }
    (void)ScanEverything(**opened);   // must not crash
    (void)(*opened)->Execute(ValueQuery(3));
    (void)(*opened)->Health();
  }
}

}  // namespace
}  // namespace fxdist
