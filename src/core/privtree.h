// PrivTree (Algorithm 2): hierarchical decomposition under ε-differential
// privacy with *constant* noise per split decision, independent of the
// recursion depth.
//
// For each unvisited node v the algorithm computes the biased score
//     b(v) = max{ θ − δ,  c(v) − depth(v)·δ }            (Equation (8))
// and the noisy score b̂(v) = b(v) + Lap(λ), and splits v iff b̂(v) > θ.
// The output tree reveals only the sub-domains of its nodes; all scores are
// concealed (Line 11 of Algorithm 2).  Noisy per-node counts, when needed,
// are produced by a separate post-processing step on a fresh budget slice
// (Section 3.4) — see spatial/spatial_histogram.h and seq/pst_privtree.h.
#ifndef PRIVTREE_CORE_PRIVTREE_H_
#define PRIVTREE_CORE_PRIVTREE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/decomposition_policy.h"
#include "core/privtree_params.h"
#include "core/tree.h"
#include "dp/distributions.h"
#include "dp/rng.h"

namespace privtree {

/// Diagnostics accumulated while running a decomposition algorithm.
struct DecompositionStats {
  std::size_t nodes_visited = 0;  ///< Total split decisions made.
  std::size_t nodes_split = 0;    ///< Decisions that resulted in a split.
  std::int32_t height = 0;        ///< Height of the produced tree.
};

/// Lines 5-8 of Algorithm 2 for one node of depth `depth` and exact score
/// `score`: the biased score b(v) of Equation (8), one Laplace draw for the
/// noisy score, and the split test against θ and the structural depth cap
/// (see privtree_params.h).  The caller adds its own structural,
/// data-independent CanSplit test.  Every PrivTree decomposition decides
/// through this one function, so they draw and compare identically.
inline bool PrivTreeSplits(const PrivTreeParams& params, double score,
                           std::int32_t depth, Rng& rng) {
  // Lines 5-6: biased score with the θ−δ floor.
  const double biased =
      std::max(params.theta - params.delta,
               score - static_cast<double>(depth) * params.delta);
  // Line 7: noisy score.
  const double noisy = biased + SampleLaplace(rng, params.lambda);
  // Line 8: split decision.
  return noisy > params.theta && depth < params.max_depth;
}

/// Runs Algorithm 2 and returns the decomposition tree (domains only).
///
/// The caller guarantees that `policy.Score` is monotonic with the
/// sensitivity `params` were derived for; under that contract the returned
/// tree is ε-DP for ε = params.GuaranteedEpsilon() (Theorem 3.1).
template <DecompositionPolicy Policy>
DecompTree<typename Policy::Domain> RunPrivTree(
    const Policy& policy, const PrivTreeParams& params, Rng& rng,
    DecompositionStats* stats = nullptr) {
  params.Validate();
  DecompTree<typename Policy::Domain> tree;
  tree.AddRoot(policy.Root());
  DecompositionStats local_stats;

  // Line 3: process unvisited nodes in FIFO order.  Order does not affect
  // the output distribution (decisions are independent given the data) but
  // FIFO keeps peak queue memory proportional to the widest level.
  std::deque<NodeId> unvisited;
  unvisited.push_back(tree.root());
  while (!unvisited.empty()) {
    const NodeId v = unvisited.front();
    unvisited.pop_front();
    ++local_stats.nodes_visited;

    const auto& node = tree.node(v);
    if (PrivTreeSplits(params, policy.Score(node.domain), node.depth, rng) &&
        policy.CanSplit(node.domain)) {
      ++local_stats.nodes_split;
      for (auto& child_domain : policy.Split(node.domain)) {
        unvisited.push_back(tree.AddChild(v, std::move(child_domain)));
      }
    }
  }
  local_stats.height = tree.Height();
  if (stats != nullptr) *stats = local_stats;
  return tree;
}

/// The noiseless reference decomposition T* of Lemma 3.2: splits a node iff
/// its exact score exceeds θ.  Not differentially private; used in tests,
/// ablations and utility analyses.
template <DecompositionPolicy Policy>
DecompTree<typename Policy::Domain> RunNoiselessTree(
    const Policy& policy, double theta, std::int32_t max_depth = 512) {
  DecompTree<typename Policy::Domain> tree;
  tree.AddRoot(policy.Root());
  std::deque<NodeId> unvisited;
  unvisited.push_back(tree.root());
  while (!unvisited.empty()) {
    const NodeId v = unvisited.front();
    unvisited.pop_front();
    const auto& node = tree.node(v);
    if (policy.Score(node.domain) > theta && node.depth < max_depth &&
        policy.CanSplit(node.domain)) {
      for (auto& child_domain : policy.Split(node.domain)) {
        unvisited.push_back(tree.AddChild(v, std::move(child_domain)));
      }
    }
  }
  return tree;
}

}  // namespace privtree

#endif  // PRIVTREE_CORE_PRIVTREE_H_
