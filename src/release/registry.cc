#include "release/registry.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "dp/check.h"
#include "release/builtin_methods.h"

namespace privtree::release {
namespace {

/// " k1 k2 ...": the keys an entry accepts, for a refusal's message.
std::string AllowedKeyList(const MethodRegistry::Entry& entry) {
  std::string out;
  for (const OptionKey& key : entry.allowed_keys) out += " " + key.name;
  return out;
}

}  // namespace

void MethodRegistry::Register(std::string name, Entry entry) {
  PRIVTREE_CHECK(!name.empty());
  PRIVTREE_CHECK(entry.factory != nullptr);
  const auto [it, inserted] = methods_.emplace(std::move(name),
                                               std::move(entry));
  if (!inserted) {
    std::fprintf(stderr, "MethodRegistry: duplicate method \"%s\"\n",
                 it->first.c_str());
    PRIVTREE_CHECK(false);
  }
}

const OptionKey* MethodRegistry::Entry::FindKey(std::string_view name) const {
  for (const OptionKey& key : allowed_keys) {
    if (key.name == name) return &key;
  }
  return nullptr;
}

bool MethodRegistry::Contains(std::string_view name) const {
  return methods_.find(name) != methods_.end();
}

std::vector<std::string> MethodRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(methods_.size());
  for (const auto& [name, entry] : methods_) out.push_back(name);
  return out;
}

const MethodRegistry::Entry& MethodRegistry::Get(
    std::string_view name) const {
  const auto it = methods_.find(name);
  PRIVTREE_CHECK(it != methods_.end());
  return it->second;
}

const std::string& MethodRegistry::Description(std::string_view name) const {
  return Get(name).description;
}

DatasetKind MethodRegistry::Kind(std::string_view name) const {
  return Get(name).kind;
}

std::vector<std::string> MethodRegistry::Names(DatasetKind kind) const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : methods_) {
    if (entry.kind == kind) out.push_back(name);
  }
  return out;
}

std::unique_ptr<Method> MethodRegistry::Create(
    std::string_view name, const MethodOptions& options) const {
  const auto it = methods_.find(name);
  if (it == methods_.end()) {
    std::fprintf(stderr, "MethodRegistry: unknown method \"%.*s\"\n",
                 static_cast<int>(name.size()), name.data());
    PRIVTREE_CHECK(false);
  }
  const Entry& entry = it->second;
  for (const auto& [key, value] : options.entries()) {
    if (entry.FindKey(key) != nullptr) continue;
    // A mistyped option name must fail loudly, not run with defaults.
    std::fprintf(stderr, "unknown method option \"%s\"; allowed:%s\n",
                 key.c_str(), AllowedKeyList(entry).c_str());
    PRIVTREE_CHECK(false);
  }
  return entry.factory(options);
}

Status MethodRegistry::CheckFit(std::string_view method,
                                const MethodOptions& options, double epsilon,
                                DatasetKind kind, std::size_t dim) const {
  const auto it = methods_.find(method);
  if (it == methods_.end()) {
    return Status::InvalidArgument("unknown method \"" + std::string(method) +
                                   "\"");
  }
  const Entry& entry = it->second;
  // Spelled out only for a refusal: the pass path allocates nothing.
  const auto name = [&] { return "method \"" + it->first + "\""; };
  if (entry.kind != kind) {
    return Status::InvalidArgument(
        name() + " fits " + std::string(DatasetKindName(entry.kind)) +
        " datasets, not " + std::string(DatasetKindName(kind)) + " data");
  }
  if (kind == DatasetKind::kSpatial && entry.required_dim != 0 &&
      entry.required_dim != dim) {
    return Status::InvalidArgument(
        name() + " requires " + std::to_string(entry.required_dim) +
        "-dimensional data (got dim=" + std::to_string(dim) + ")");
  }
  if (kind == DatasetKind::kSpatial && entry.max_dim != 0 &&
      dim > entry.max_dim) {
    return Status::InvalidArgument(
        name() + " supports at most " + std::to_string(entry.max_dim) +
        "-dimensional data (got dim=" + std::to_string(dim) + ")");
  }
  // Both the noise scale and the split threshold are set by ε: an infinite
  // or NaN ε is no privacy budget at all.
  if (!(std::isfinite(epsilon) && epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be finite and positive");
  }
  for (const auto& [key, value] : options.entries()) {
    const OptionKey* advertised = entry.FindKey(key);
    if (advertised == nullptr) {
      return Status::InvalidArgument(name() + " has no option \"" + key +
                                     "\"; allowed:" + AllowedKeyList(entry));
    }
    if (Status screened = CheckOptionValue(*advertised, value);
        !screened.ok()) {
      return screened;
    }
  }
  return entry.check ? entry.check(options, dim) : Status::OK();
}

MethodRegistry& GlobalMethodRegistry() {
  static MethodRegistry* registry = [] {
    auto* r = new MethodRegistry();
    RegisterBuiltinMethods(*r);
    return r;
  }();
  return *registry;
}

}  // namespace privtree::release
