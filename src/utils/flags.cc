#include "utils/flags.h"

#include "utils/check.h"
#include "utils/string_utils.h"

namespace hire {

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      flags.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    HIRE_CHECK(!body.empty()) << "bare '--' is not a flag";
    const size_t equals = body.find('=');
    if (equals != std::string::npos) {
      flags.values_[body.substr(0, equals)] = body.substr(equals + 1);
      continue;
    }
    // Bare "--key" is a boolean flag; values must use "--key=value" (the
    // space-separated form is ambiguous with positional arguments).
    flags.values_[body] = "";
  }
  return flags;
}

const std::string* Flags::Find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  const std::string* value = Find(name);
  return value == nullptr ? fallback : *value;
}

int64_t Flags::GetInt(const std::string& name, int64_t fallback) const {
  const std::string* value = Find(name);
  return value == nullptr ? fallback : ParseInt64(*value);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  const std::string* value = Find(name);
  return value == nullptr ? fallback : ParseDouble(*value);
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  if (value->empty() || *value == "true" || *value == "1") return true;
  if (*value == "false" || *value == "0") return false;
  HIRE_CHECK(false) << "bad boolean for --" << name << ": '" << *value << "'";
  return fallback;
}

std::vector<std::string> Flags::UnreadNames() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) names.push_back(name);
  }
  return names;
}

}  // namespace hire
