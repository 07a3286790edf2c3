// A fresh mkdtemp(3) directory for one test, removed with everything in it
// when the test ends. ctest runs every test case as its own process in
// parallel (`ctest -j`), so a test never writes to a fixed path: two cases
// sharing one would race.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace tvnep {

class TempDir {
 public:
  /// Makes the directory under `base`, or under the system temp directory
  /// when `base` is empty.
  explicit TempDir(const std::filesystem::path& base = {}) {
    std::string tmpl =
        ((base.empty() ? std::filesystem::temp_directory_path() : base) /
         "tvnep_test_XXXXXX")
            .string();
    const char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr) << "mkdtemp failed under " << tmpl;
    path = made == nullptr ? tmpl : made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string file(const std::string& name) const { return path + "/" + name; }

  std::string path;
};

}  // namespace tvnep
