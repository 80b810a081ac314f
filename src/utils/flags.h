#ifndef HIRE_UTILS_FLAGS_H_
#define HIRE_UTILS_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace hire {

/// Minimal command-line flag parser for the example binaries and the CLI
/// tool. Supports "--key=value" and boolean "--key" forms; positional
/// arguments are collected in order.
class Flags {
 public:
  /// Parses argv; throws hire::CheckError on malformed input (e.g. a value
  /// flag at the end with no value).
  static Flags Parse(int argc, const char* const* argv);

  /// True when --name was present (with or without a value). Has and the
  /// getters below mark `name` as read.
  bool Has(const std::string& name) const;

  /// Typed getters with defaults. Throw hire::CheckError when the value is
  /// present but malformed.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of the flags that were set but never read through Has or a
  /// getter, in sorted order: typos, or flags the command does not know.
  std::vector<std::string> UnreadNames() const;

 private:
  /// Looks `name` up and marks it read; nullptr when it was not set.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace hire

#endif  // HIRE_UTILS_FLAGS_H_
