// Per-test file paths.  Tests that write files must not share them: not
// with another test of the same binary run in parallel by ctest, nor
// with a concurrent run of another build on the same host.

#ifndef FXDIST_TESTS_TEST_PATHS_H_
#define FXDIST_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>

namespace fxdist {

/// testing::TempDir() (TEST_TMPDIR when set), then the running test's
/// full name, the process id and `file`, e.g.
/// "/tmp/PackedGoldenTest.Image-4242-golden.fxpk".  The '/' of a
/// parameterized test's name becomes '_'.
inline std::string TestPath(std::string_view file) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? std::string("no-test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  std::string path = testing::TempDir();
  if (!path.empty() && path.back() != '/') path += '/';
  return path + name + "-" + std::to_string(::getpid()) + "-" +
         std::string(file);
}

}  // namespace fxdist

#endif  // FXDIST_TESTS_TEST_PATHS_H_
