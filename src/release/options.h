// String-keyed configuration for release methods.
//
// Every registered method accepts a MethodOptions bag; keys are parsed into
// the method's native option struct by its factory.  A flat string map keeps
// the registry, the CLI (`--options=k=v,...`) and config files decoupled
// from the per-method option structs.  Which keys a method accepts, and in
// what range, is stated once, by the OptionKeys of its registry entry
// (release/registry.h): MethodRegistry::Create refuses an unknown key and
// MethodRegistry::CheckFit screens every value.
#ifndef PRIVTREE_RELEASE_OPTIONS_H_
#define PRIVTREE_RELEASE_OPTIONS_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "dp/status.h"

namespace privtree::release {

/// Value type of a method option, for user-facing validation.
enum class OptionType { kDouble, kInt, kBool };

/// One advertised option key of a registered method, with the numeric
/// range its method accepts.  User-facing surfaces (the CLI, the serving
/// front end) screen values against the range *before* the method sees
/// them, so an out-of-range value from an untrusted client yields a clean
/// error instead of tripping the method's aborting contract checks.
struct OptionKey {
  std::string name;
  OptionType type = OptionType::kDouble;
  /// Valid numeric range (ignored for kBool).  `open_bounds` makes both
  /// ends strict — the "fraction in (0, 1)" case; an infinite end is
  /// always satisfied either way.
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  bool open_bounds = false;
};

/// Whether `value` parses completely as `type` ("1"/"0" are valid for all
/// three; "true"/"false" only for kBool).  Non-aborting — this is how
/// user-facing surfaces screen values before the aborting typed getters
/// see them.
bool ValueParsesAs(OptionType type, const std::string& value);

/// Full non-aborting screen of one option value against its key: type
/// parse plus declared range.  OK, or InvalidArgument with a diagnostic
/// naming the key and its valid range.
Status CheckOptionValue(const OptionKey& key, const std::string& value);

/// An ordered bag of `key=value` strings with typed accessors.
class MethodOptions {
 public:
  MethodOptions() = default;
  MethodOptions(
      std::initializer_list<std::pair<std::string, std::string>> entries);

  /// Parses "k1=v1,k2=v2" (empty text gives empty options).  Malformed
  /// entries (no '=', empty key) abort: option strings come from
  /// developer-controlled surfaces and a typo must not be silently dropped.
  /// User-facing surfaces (the CLI) should use TryParse instead.
  static MethodOptions Parse(std::string_view text);

  /// Non-aborting variant for user-supplied text: on success fills `out`
  /// and returns true; on a malformed entry fills `error` with a
  /// diagnostic and returns false.
  static bool TryParse(std::string_view text, MethodOptions* out,
                       std::string* error);

  void Set(std::string key, std::string value);

  bool Has(const std::string& key) const { return entries_.contains(key); }
  bool empty() const { return entries_.empty(); }

  /// Typed getters; return `fallback` when the key is absent and abort when
  /// the stored value does not parse as the requested type.
  std::string GetString(const std::string& key, std::string fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Every key → value, sorted by key.
  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  /// Canonical "k1=v1,k2=v2" form (keys sorted).
  std::string ToString() const;

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_OPTIONS_H_
