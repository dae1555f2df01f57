// Registration of the built-in release backends.
//
// Each backend adapts one existing builder from hist/ or spatial/ — the
// free functions and classes there remain the concrete implementations;
// the adapters only parse options, thread the PrivacyBudget, and forward
// queries.  Registered names: privtree, simpletree, ug, ag (2-d data only),
// kdtree, dawa, hierarchy, wavelet; each one's registry entry lists the
// option keys it accepts (`privtree_cli list` prints the names).
//
// RegisterBuiltinMethods also registers the two sequence-kind backends
// (pst_privtree, ngram) via release/sequence_methods.h.
#ifndef PRIVTREE_RELEASE_BUILTIN_METHODS_H_
#define PRIVTREE_RELEASE_BUILTIN_METHODS_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "dp/status.h"
#include "release/method.h"
#include "release/options.h"
#include "release/registry.h"
#include "spatial/spatial_histogram.h"

namespace privtree::release {

/// Shared bookkeeping of every built-in adapter, spatial and sequence: the
/// canonical options text the method was created with (persisted in the
/// envelope) and the fit state, restored verbatim when a synopsis is loaded
/// from disk.
class BuiltinMethod : public Method {
 protected:
  /// State tracked across Fit (or restored from an envelope).
  struct FitState {
    bool fitted = false;
    std::size_t dim = 0;  ///< Sequence methods: the alphabet size.
    double epsilon_spent = 0.0;
  };

  explicit BuiltinMethod(const MethodOptions& o)
      : options_text_(o.ToString()) {}
  explicit BuiltinMethod(const SynopsisEnvelope& env)
      : options_text_(env.options_text),
        state_{true, env.metadata.dim, env.metadata.epsilon_spent} {}

  /// Envelope + payload write shared by the Save overrides; callers have
  /// checked state_.fitted.
  Status SaveSynopsis(std::ostream& out, std::string_view payload) const;

  Status NotFitted() const {
    return Status::InvalidArgument("Save requires a fitted method");
  }

  std::string options_text_;
  FitState state_;
};

/// Registers all built-in backends into `registry` — the eight spatial
/// ones plus the two sequence-kind ones (release/sequence_methods.h).
/// Called once by GlobalMethodRegistry(); call it directly only on private
/// registries (e.g. in tests).  Every entry registers both a factory and a
/// loader, so all backends round-trip through release/serialization.h.
void RegisterBuiltinMethods(MethodRegistry& registry);

/// String-bag → native option-struct translations for the tree-backed
/// methods, shared between the registry adapters and callers that need
/// the concrete builders directly (e.g. privtree_cli's serialization
/// path), so both surfaces honor exactly the same keys.
PrivTreeHistogramOptions ParsePrivTreeHistogramOptions(
    const MethodOptions& options);
SimpleTreeHistogramOptions ParseSimpleTreeHistogramOptions(
    const MethodOptions& options);

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_BUILTIN_METHODS_H_
