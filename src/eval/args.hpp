// Minimal command-line flag parser for the bench/example binaries.
// Accepted syntax: --name value | --name=value | --flag (boolean true).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tvnep::eval {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Strict numeric accessors: the whole value must parse
  /// (std::from_chars), so `--time-limit=8s` throws CheckError with the
  /// offending flag and text instead of silently truncating to 8.
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Names that were provided but never queried — typo detection.
  std::vector<std::string> unused() const;

  /// Refuses a flag the program never read — a typo, or an option that no
  /// longer exists — with `error: unknown flag --<name>` on stderr and
  /// exit code 2. Call it once every flag the chosen code path reads has
  /// been read, and before that path does any work.
  void reject_unknown_flags() const;

 private:
  std::optional<std::string> raw(const std::string& name) const;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace tvnep::eval
