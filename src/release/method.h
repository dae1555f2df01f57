// The unified release API: every histogram backend in this repository —
// tree-based (PrivTree, SimpleTree, kd-tree), grid-based (UG, AG, DAWA,
// Privelet*) and hierarchical — is exposed behind one runtime-polymorphic
// `Method` interface, so benches, examples and services can treat "which
// private synopsis do we release?" as a string-valued configuration knob
// (see release/registry.h) instead of a compile-time decision.
//
// Contract:
//   * Fit() consumes the *entire* PrivacyBudget slice it is handed — the
//     caller decides how much ε this release gets; the method decides how to
//     split it internally (tree vs. counts, level 1 vs. level 2, ...).
//   * Query()/QueryBatch() are pure post-processing of released values and
//     therefore free under differential privacy.
//   * Metadata() reports what was released (node/cell counts, ε spent) for
//     logging and accounting.
#ifndef PRIVTREE_RELEASE_METHOD_H_
#define PRIVTREE_RELEASE_METHOD_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "dp/budget.h"
#include "dp/rng.h"
#include "dp/status.h"
#include "release/dataset.h"
#include "release/sequence_query.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {
class SequenceModel;  // seq/model.h
}

namespace privtree::release {

/// What a fitted method released, for accounting and diagnostics.
struct MethodMetadata {
  /// Registry name the method was created under ("privtree", "ug", ...).
  std::string method;
  /// Dimensionality of the fitted domain (0 before Fit).  Sequence-kind
  /// methods report the alphabet size here.
  std::size_t dim = 0;
  /// Total ε consumed by Fit (0 before Fit).
  double epsilon_spent = 0.0;
  /// Size of the released synopsis: decomposition-tree nodes for tree
  /// methods, released noisy cells/counts for grid methods.
  std::size_t synopsis_size = 0;
  /// Decomposition height (tree methods and hierarchies; 0 for flat grids).
  std::int32_t height = 0;
};

/// The self-describing header of a serialized synopsis: what was released
/// (metadata) and the exact options the method was created with, in the
/// canonical "k1=v1,k2=v2" spelling.  See release/serialization.h for the
/// on-disk envelope that carries it.
struct SynopsisEnvelope {
  MethodMetadata metadata;
  std::string options_text;
};

/// A differentially private range-count release mechanism.
class Method {
 public:
  virtual ~Method();

  Method(const Method&) = delete;
  Method& operator=(const Method&) = delete;

  /// Fits the synopsis on `data`, drawing randomness from `rng` and
  /// consuming all of `budget` (the slice the caller allocated to this
  /// release).  Must be called exactly once before Query/QueryBatch.  The
  /// default dispatches spatial datasets to the spatial Fit overload and
  /// aborts on any other kind; sequence methods override this directly.
  /// Callers screen the dataset kind against the registry entry's `kind`
  /// before fitting (ReleaseSession, the serving engine and the CLI all
  /// do), so a kind mismatch here is a programming error, not user input.
  virtual void Fit(const Dataset& data, PrivacyBudget& budget, Rng& rng);

  /// Spatial fit over `points` in the declared `domain`.  Every spatial
  /// backend overrides this; the default aborts (sequence-only methods fit
  /// through the Dataset overload).
  virtual void Fit(const PointSet& points, const Box& domain,
                   PrivacyBudget& budget, Rng& rng);

  /// Estimated number of points in `q`.  Requires a prior Fit.  The
  /// default aborts — sequence methods answer SequenceQuery batches, not
  /// boxes, and user-facing surfaces screen the query shape against the
  /// method kind before dispatching.
  virtual double Query(const Box& q) const;

  /// Answers many boxes at once.  The default loops over Query; every
  /// built-in backend overrides it with a batch strategy: tree-backed
  /// methods run one root-to-cell descent per box over a flattened copy of
  /// the tree, sharing one stack across the batch (see
  /// release/tree_batch.h), and the grid family answers through prefix-sum
  /// lattices / summed-area tables with the per-query allocations hoisted
  /// out (see hist/grid.h, hist/ag.h, hist/hierarchy.h).  A fitted Method
  /// is immutable, so Query/QueryBatch may be called concurrently from many
  /// threads (see serve/).
  virtual std::vector<double> QueryBatch(std::span<const Box> queries) const;

  /// Answers many sequence queries at once (one double per spec — see
  /// release/sequence_query.h for the kinds).  Sequence-kind methods
  /// override this; the default aborts, mirroring Query(Box) on sequence
  /// methods.  Callers must have validated every spec against the fitted
  /// alphabet (ValidateSequenceQuery) — the serving engine and the CLI do.
  virtual std::vector<double> QueryBatch(
      std::span<const SequenceQuery> queries) const;

  /// Release accounting; `epsilon_spent`/`synopsis_size` are meaningful
  /// only after Fit.
  virtual MethodMetadata Metadata() const = 0;

  /// Serializes the fitted synopsis — the v3 envelope plus a per-backend
  /// payload (see release/serialization.h for the format) — so
  /// a later process can re-load and query it without touching the data
  /// (pure post-processing, free under DP).  Every registry backend
  /// implements this; the default rejects with InvalidArgument so
  /// out-of-registry Method implementations (test stubs) keep compiling.
  /// Requires a prior Fit; load back through release::LoadMethod.
  virtual Status Save(std::ostream& out) const;

  /// The fitted generative model behind a sequence-kind method (the PST or
  /// n-gram SequenceModel), or nullptr for spatial methods and before Fit.
  /// Model-level consumers — top-k string mining, synthetic-sequence
  /// sampling in the figure benches — read it through this accessor so
  /// their fits ride the registry/serving path instead of re-implementing
  /// builder calls.  The model is owned by the method and immutable after
  /// Fit, so it shares the method's thread-safety.
  virtual const SequenceModel* sequence_model() const { return nullptr; }

 protected:
  Method() = default;
};

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_METHOD_H_
