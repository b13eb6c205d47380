#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "test_paths.h"

namespace fxdist {
namespace {

TEST(CsvWriterTest, BasicDocument) {
  CsvWriter csv({"k", "modulo", "fx"});
  csv.AddRow({"2", "8.0", "3.2"});
  csv.AddRow({"3", "48.0", "18.9"});
  EXPECT_EQ(csv.ToString(), "k,modulo,fx\n2,8.0,3.2\n3,48.0,18.9\n");
}

TEST(CsvWriterTest, QuotesSpecialCharacters) {
  CsvWriter csv({"name"});
  csv.AddRow({"a,b"});
  csv.AddRow({"say \"hi\""});
  csv.AddRow({"line\nbreak"});
  EXPECT_EQ(csv.ToString(),
            "name\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"line\nbreak\"\n");
}

TEST(CsvWriterTest, ShortRowsPadded) {
  CsvWriter csv({"a", "b"});
  csv.AddRow({"1"});
  EXPECT_EQ(csv.ToString(), "a,b\n1,\n");
}

TEST(CsvWriterTest, WriteFileRoundTrip) {
  CsvWriter csv({"x"});
  csv.AddRow({"42"});
  const std::string path = TestPath("fxdist_csv_test.csv");
  ASSERT_TRUE(csv.WriteFile(path).ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "x\n42\n");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, WriteFileToBadPathFails) {
  CsvWriter csv({"x"});
  EXPECT_FALSE(csv.WriteFile("/nonexistent-dir/foo.csv").ok());
}

}  // namespace
}  // namespace fxdist
