// Name → factory registry for release methods.
//
// The registry is the single point where a method name ("privtree", "ug",
// "dawa", ...) becomes a Method instance, the idiom large multi-backend
// engines use to keep interchangeable implementations behind one stable
// interface.  Adding a new backend is a one-file change: implement Method,
// register a factory, and every registry-driven bench, test and CLI picks
// it up.
#ifndef PRIVTREE_RELEASE_REGISTRY_H_
#define PRIVTREE_RELEASE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/byteio.h"
#include "dp/status.h"
#include "release/dataset.h"
#include "release/method.h"
#include "release/options.h"

namespace privtree::release {

/// Builds a Method from an options bag.  Factories parse (and validate)
/// their options eagerly, so a typo fails at Create rather than at Fit.
using MethodFactory =
    std::function<std::unique_ptr<Method>(const MethodOptions&)>;

/// Reconstructs a fitted Method from a deserialized envelope and its
/// payload bytes (see release/serialization.h).  The envelope's options
/// text has been validated against the entry's allowed keys and the payload
/// checksum verified before a loader runs; the loader must consume the
/// payload exactly and return a method whose Metadata() reproduces the
/// envelope's.  Corrupt payloads yield a Status error, never a crash.
using MethodLoader = std::function<Result<std::unique_ptr<Method>>(
    const SynopsisEnvelope& envelope, ByteReader& payload)>;

/// A string-keyed collection of method factories.
class MethodRegistry {
 public:
  /// One registered backend.  `allowed_keys` lists every option key the
  /// factory accepts (with its value type) and `required_dim` / `max_dim`
  /// the hard dimensionality constraints (0 = any), so user-facing surfaces
  /// can reject a typo or an unsupported input gracefully before the
  /// aborting contract checks run.
  struct Entry {
    std::string description;  ///< One-line summary for `--list` surfaces.
    std::string display;      ///< Column label for tables ("PrivTree").
    std::vector<OptionKey> allowed_keys;  ///< Valid option keys + types.
    /// Input shape the method fits: spatial (PointSet + Box) or sequence
    /// (SequenceDataset).  User-facing surfaces screen a dataset's kind
    /// against this before Create/Fit, so a sequence method asked to fit
    /// points (or vice versa) fails with a clean error, never an abort.
    DatasetKind kind = DatasetKind::kSpatial;
    std::size_t required_dim = 0;  ///< Exact input dim required; 0 = any.
    std::size_t max_dim = 0;  ///< Largest input dim supported; 0 = any.
    /// Largest dimensionality the method is practical at (cost grows too
    /// fast beyond it — e.g. complete hierarchies); 0 = no limit.
    /// Advisory metadata for evaluation lineups, not enforced at Fit.
    std::size_t max_practical_dim = 0;
    MethodFactory factory;
    /// Payload codec for LoadMethod; null means the backend's synopses
    /// cannot be re-loaded (every built-in registers one).
    MethodLoader loader;
  };

  /// Registers a backend under `name`; duplicate names abort.
  void Register(std::string name, Entry entry);

  bool Contains(std::string_view name) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  /// The full registration record; aborts on unknown names.
  const Entry& Get(std::string_view name) const;

  /// Description of a registered method; aborts on unknown names.
  const std::string& Description(std::string_view name) const;

  /// Option keys the named method accepts; aborts on unknown names.
  const std::vector<OptionKey>& AllowedKeys(std::string_view name) const;

  /// The exact input dimensionality the named method requires, or 0 when
  /// any dimension is supported; aborts on unknown names.
  std::size_t RequiredDim(std::string_view name) const;

  /// The dataset kind the named method fits; aborts on unknown names.
  DatasetKind Kind(std::string_view name) const;

  /// Registered names of one dataset kind, sorted.
  std::vector<std::string> Names(DatasetKind kind) const;

  /// Instantiates (but does not fit) the named method.  Unknown names
  /// abort; call Contains first when the name comes from user input.
  std::unique_ptr<Method> Create(std::string_view name,
                                 const MethodOptions& options = {}) const;

 private:
  std::map<std::string, Entry, std::less<>> methods_;
};

/// The process-wide registry, with all built-in backends (see
/// release/builtin_methods.h) registered on first use.
MethodRegistry& GlobalMethodRegistry();

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_REGISTRY_H_
