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

/// Builds a Method from an options bag.  MethodRegistry::Create has
/// checked every key against the entry's `allowed_keys` first; values are
/// not screened there (CheckFit does that for user-facing surfaces), so a
/// factory only parses.
using MethodFactory =
    std::function<std::unique_ptr<Method>(const MethodOptions&)>;

/// The dataset-relative part of a method's screen (see
/// MethodRegistry::CheckFit): OK, or InvalidArgument when `options`, whose
/// values already passed their OptionKey screens, cannot be fitted on
/// `dim`-dimensional data.
using FitCheck =
    std::function<Status(const MethodOptions& options, std::size_t dim)>;

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
  /// One registered backend, and the only statement of what it accepts:
  /// `allowed_keys` lists every option key (with its value type and range),
  /// `kind`, `required_dim` / `max_dim` the input it fits, and `check` the
  /// rest, which depends on the data.  CheckFit screens a spec against all
  /// of them, so user-facing surfaces refuse a typo or an unsupported input
  /// with a Status before the aborting contract checks run.
  struct Entry {
    /// The advertised key named `name`, or null.
    const OptionKey* FindKey(std::string_view name) const;

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
    /// Dataset-relative screen run after the key screens; null = none.
    FitCheck check = nullptr;
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

  /// The dataset kind the named method fits; aborts on unknown names.
  DatasetKind Kind(std::string_view name) const;

  /// Registered names of one dataset kind, sorted.
  std::vector<std::string> Names(DatasetKind kind) const;

  /// Instantiates (but does not fit) the named method.  An unknown name or
  /// an option key outside the entry's `allowed_keys` aborts; values are
  /// not range-checked, so callers in process may set any value the
  /// method's contract allows.  Screen user input with CheckFit first.
  std::unique_ptr<Method> Create(std::string_view name,
                                 const MethodOptions& options = {}) const;

  /// The one screen of a fit spec from user input (the server, the CLI):
  /// OK when `method` can fit `kind` data of dimension `dim` (the alphabet
  /// size for sequence data) with `options` at `epsilon`, else
  /// InvalidArgument naming the reason.  It refuses an unregistered method,
  /// a kind or (spatial) dim the entry does not fit, an ε that is not
  /// finite and positive, an unknown key, a value outside its OptionKey
  /// type and range, and whatever the entry's `check` refuses for this dim
  /// (a split over more dims than the data has; a fixed-height tree whose
  /// complete tree passes 2^24 nodes).  A spec it passes never trips a
  /// fitter's aborting contract check.  Looks the entry up once; allocates
  /// only to describe a refusal.
  Status CheckFit(std::string_view method, const MethodOptions& options,
                  double epsilon, DatasetKind kind, std::size_t dim) const;

 private:
  std::map<std::string, Entry, std::less<>> methods_;
};

/// The process-wide registry, with all built-in backends (see
/// release/builtin_methods.h) registered on first use.
MethodRegistry& GlobalMethodRegistry();

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_REGISTRY_H_
