#include "release/options.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "dp/check.h"

namespace privtree::release {

bool ValueParsesAs(OptionType type, const std::string& value) {
  if (value.empty()) return false;
  char* tail = nullptr;
  switch (type) {
    case OptionType::kDouble:
      std::strtod(value.c_str(), &tail);
      break;
    case OptionType::kInt:
      std::strtoll(value.c_str(), &tail, 10);
      break;
    case OptionType::kBool:
      return value == "0" || value == "1" || value == "true" ||
             value == "false";
  }
  return tail != nullptr && *tail == '\0' && tail != value.c_str();
}

Status CheckOptionValue(const OptionKey& key, const std::string& value) {
  if (!ValueParsesAs(key.type, value)) {
    const char* want = key.type == OptionType::kDouble    ? "a number"
                       : key.type == OptionType::kInt     ? "an integer"
                                                          : "a boolean";
    return Status::InvalidArgument("option \"" + key.name + "\" needs " +
                                   want + " (got \"" + value + "\")");
  }
  if (key.type == OptionType::kBool) return Status::OK();
  const double parsed = std::strtod(value.c_str(), nullptr);
  const bool in_range =
      key.open_bounds
          ? parsed > key.min_value && parsed < key.max_value
          : parsed >= key.min_value && parsed <= key.max_value;
  if (!std::isnan(parsed) && in_range) return Status::OK();
  char range[96];
  std::snprintf(range, sizeof(range), "%s%g, %g%s",
                key.open_bounds ? "(" : "[", key.min_value, key.max_value,
                key.open_bounds ? ")" : "]");
  return Status::InvalidArgument("option \"" + key.name + "\" must be in " +
                                 range + " (got \"" + value + "\")");
}

MethodOptions::MethodOptions(
    std::initializer_list<std::pair<std::string, std::string>> entries) {
  for (const auto& [key, value] : entries) Set(key, value);
}

MethodOptions MethodOptions::Parse(std::string_view text) {
  MethodOptions out;
  std::string error;
  if (!TryParse(text, &out, &error)) {
    std::fprintf(stderr, "MethodOptions: %s\n", error.c_str());
    PRIVTREE_CHECK(false);
  }
  return out;
}

bool MethodOptions::TryParse(std::string_view text, MethodOptions* out,
                             std::string* error) {
  MethodOptions parsed;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view entry = text.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      *error = "malformed entry \"" + std::string(entry) +
               "\" (expected key=value)";
      return false;
    }
    parsed.Set(std::string(entry.substr(0, eq)),
               std::string(entry.substr(eq + 1)));
  }
  *out = std::move(parsed);
  return true;
}

void MethodOptions::Set(std::string key, std::string value) {
  PRIVTREE_CHECK(!key.empty());
  entries_[std::move(key)] = std::move(value);
}

std::string MethodOptions::GetString(const std::string& key,
                                     std::string fallback) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? std::move(fallback) : it->second;
}

double MethodOptions::GetDouble(const std::string& key,
                                double fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  char* tail = nullptr;
  const double value = std::strtod(it->second.c_str(), &tail);
  if (tail == nullptr || *tail != '\0' || tail == it->second.c_str()) {
    std::fprintf(stderr, "MethodOptions: non-numeric value \"%s\" for \"%s\"\n",
                 it->second.c_str(), key.c_str());
    PRIVTREE_CHECK(false);
  }
  return value;
}

std::int64_t MethodOptions::GetInt(const std::string& key,
                                   std::int64_t fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  char* tail = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &tail, 10);
  if (tail == nullptr || *tail != '\0' || tail == it->second.c_str()) {
    std::fprintf(stderr, "MethodOptions: non-integer value \"%s\" for \"%s\"\n",
                 it->second.c_str(), key.c_str());
    PRIVTREE_CHECK(false);
  }
  return static_cast<std::int64_t>(value);
}

bool MethodOptions::GetBool(const std::string& key, bool fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true") return true;
  if (v == "0" || v == "false") return false;
  std::fprintf(stderr, "MethodOptions: non-boolean value \"%s\" for \"%s\"\n",
               v.c_str(), key.c_str());
  PRIVTREE_CHECK(false);
  return fallback;
}

std::string MethodOptions::ToString() const {
  std::string out;
  for (const auto& [key, value] : entries_) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

}  // namespace privtree::release
