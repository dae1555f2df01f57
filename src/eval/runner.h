// Small experiment-harness utilities shared by the bench binaries:
// repetition with forked deterministic RNG streams, environment-variable
// scaling, the paper's ε grid, and registry-driven method sweeps (the
// comparative benches iterate MethodSpecs built from release::
// GlobalMethodRegistry() instead of hard-coding per-method dispatch).
#ifndef PRIVTREE_EVAL_RUNNER_H_
#define PRIVTREE_EVAL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dp/rng.h"
#include "release/options.h"
#include "release/sequence_query.h"
#include "seq/sequence.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree {

class SequenceModel;  // seq/model.h

/// The ε grid used throughout Section 6.
inline const std::vector<double>& PaperEpsilons() {
  static const std::vector<double> epsilons = {0.05, 0.1, 0.2, 0.4, 0.8, 1.6};
  return epsilons;
}

/// True when PRIVTREE_PAPER_SCALE is set to a non-zero value: benches then
/// use the full Table 2/3 cardinalities and 100 repetitions.
bool PaperScale();

/// Number of repetitions: PRIVTREE_REPS if set, else 100 at paper scale,
/// else `quick_default`.
std::size_t Repetitions(std::size_t quick_default);

/// Dataset cardinality: `paper_n` at paper scale, else
/// min(paper_n, quick_n).
std::size_t ScaledCardinality(std::size_t paper_n, std::size_t quick_n);

/// Runs `body` `reps` times, each with an independent deterministic RNG
/// forked from `seed`, and returns the mean of the returned values.
double MeanOverReps(std::size_t reps, std::uint64_t seed,
                    const std::function<double(Rng&)>& body);

/// One registry-backed method in a comparative sweep.
struct MethodSpec {
  std::string name;     ///< Registry key ("privtree", "ug", ...).
  std::string display;  ///< Column label ("PrivTree", "UG", ...).
  release::MethodOptions options;
};

/// The paper's comparative lineup (Figure 5 / Table 2) for a d-dimensional
/// dataset, in presentation order: PrivTree, UG, then AG and Hierarchy on
/// 2-d data only (as in the paper), DAWA, Privelet*.  The grid-discretized
/// methods get `discretization_cells` as their target cell count.
std::vector<MethodSpec> ComparativeLineup(std::size_t dim,
                                          std::int64_t discretization_cells);

/// Every sequence-kind method in the global registry (pst_privtree,
/// ngram), in registry order, each configured with the public length cap
/// `l_top` of the swept dataset.
std::vector<MethodSpec> SequenceSpecs(std::size_t l_top);

/// Builds `spec` afresh `reps` times (independent forked RNG streams and a
/// fresh ε budget each time), answers the workload with QueryBatch, and
/// returns the mean smoothed relative error (Δ = 0.1%·n).  Fits are sharded
/// across serve::SharedPool() and memoized in serve::SharedSynopsisCache(),
/// so --threads/PRIVTREE_THREADS parallelizes every registry-driven bench;
/// results are bit-for-bit identical at any thread count.
double RegistryMethodError(const MethodSpec& spec, const PointSet& points,
                           const Box& domain, double epsilon,
                           const std::vector<Box>& queries,
                           const std::vector<double>& exact,
                           std::size_t reps, std::uint64_t seed);

/// As RegistryMethodError, but evaluates every workload in `band_queries`
/// against the *same* `reps` fitted synopses (one fit sweep, many query
/// bands) and returns one mean error per band.  This is the economical
/// shape for the figure benches, which report small/medium/large bands of
/// one release.
std::vector<double> RegistryMethodErrorBands(
    const MethodSpec& spec, const PointSet& points, const Box& domain,
    double epsilon, const std::vector<std::vector<Box>>& band_queries,
    const std::vector<std::vector<double>>& band_exact, std::size_t reps,
    std::uint64_t seed);

/// The sequence twin of RegistryMethodError: fits the sequence-kind `spec`
/// (pst_privtree / ngram) `reps` times through serve::SharedPool() +
/// SharedSynopsisCache() — the same pre-forked-Rng discipline, so results
/// are bit-for-bit identical at any thread count — answers `queries`
/// through the SequenceQuery batch path, and returns the mean smoothed
/// relative error against `exact`.
double RegistrySequenceMethodError(
    const MethodSpec& spec, const SequenceDataset& data, double epsilon,
    const std::vector<release::SequenceQuery>& queries,
    const std::vector<double>& exact, std::size_t reps, std::uint64_t seed);

/// Model-level sibling of RegistrySequenceMethodError for the figure
/// benches whose metrics read the fitted generative model directly (top-k
/// string mining, synthetic-sequence sampling) instead of a SequenceQuery
/// workload.  Fits `spec` `reps` times through serve::SharedPool() +
/// SharedSynopsisCache(), then evaluates `metric` on each fitted
/// Method::sequence_model() with its own pre-forked Rng stream (forked
/// after the fit streams, in rep order), and returns the mean.  Results
/// are bit-for-bit identical at any thread count.
double RegistrySequenceModelMetric(
    const MethodSpec& spec, const SequenceDataset& data, double epsilon,
    std::size_t reps, std::uint64_t seed,
    const std::function<double(const SequenceModel&, Rng&)>& metric);

}  // namespace privtree

#endif  // PRIVTREE_EVAL_RUNNER_H_
