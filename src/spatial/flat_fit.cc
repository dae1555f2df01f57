#include "spatial/flat_fit.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

#include "core/privtree_params.h"
#include "core/simpletree.h"
#include "dp/budget.h"
#include "dp/check.h"
#include "dp/distributions.h"
#include "obs/metrics.h"

namespace privtree {

namespace {

/// Fit-time state of one node.  `begin`/`end` are the node's exact key
/// range in the index, so this never leaves the fit.
struct FitNode {
  MortonKey prefix = 0;          // The low depth·dims_per_split bits count.
  std::uint32_t begin = 0;       // Keys [begin, end) lie in the cell.
  std::uint32_t end = 0;
  std::int32_t depth = 0;
  std::uint32_t first_child = 0;  // 0 for a leaf: the root is no child.
};

std::uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

int DimsPerSplit(int requested, const Box& domain) {
  const int dims = requested > 0 ? requested : static_cast<int>(domain.dim());
  PRIVTREE_CHECK_GE(dims, 1);
  PRIVTREE_CHECK_LE(static_cast<std::size_t>(dims), domain.dim());
  return dims;
}

/// The breadth-first decomposition both builders share.  `splits(score,
/// depth)` makes a node's split decision, with its draws; a node splits
/// only if it also passes QuadtreePolicy::CanSplit.  Fills the parent links
/// and bounds of `out` and the fit state of every node, and returns the
/// number of splits.
template <typename Splits>
std::size_t Decompose(const MortonIndex& index, const Box& domain,
                      int dims_per_split, Splits&& splits,
                      FlatSpatialTree* out, std::vector<FitNode>* nodes) {
  PRIVTREE_CHECK(index.root() == domain);
  const std::size_t dim = domain.dim();
  const std::size_t stride = 2 * dim;
  const int fanout = 1 << dims_per_split;
  out->dim = dim;
  out->parent.push_back(kInvalidNode);
  out->bounds.insert(out->bounds.end(), domain.lo().begin(),
                     domain.lo().end());
  out->bounds.insert(out->bounds.end(), domain.hi().begin(),
                     domain.hi().end());
  nodes->push_back({0, 0, static_cast<std::uint32_t>(index.size()), 0, 0});
  std::size_t split_count = 0;
  for (std::size_t v = 0; v < nodes->size(); ++v) {
    const FitNode node = (*nodes)[v];  // A copy: the appends below move it.
    const int bits = node.depth * dims_per_split;
    if (!splits(static_cast<double>(node.end - node.begin), node.depth) ||
        bits + dims_per_split > index.max_prefix_bits()) {
      continue;
    }
    ++split_count;
    const std::size_t first = nodes->size();
    // Node ids are NodeId (int32): the tree must stay below 2^31 nodes.
    PRIVTREE_CHECK_LE(first + static_cast<std::size_t>(fanout),
                      static_cast<std::size_t>(
                          std::numeric_limits<NodeId>::max()));
    (*nodes)[v].first_child = static_cast<std::uint32_t>(first);
    out->bounds.resize(out->bounds.size() + stride * fanout);
    const int child_bits = bits + dims_per_split;
    std::uint32_t begin = node.begin;
    for (int c = 0; c < fanout; ++c) {
      // QuadtreePolicy::Split: children come in ascending prefix order, so
      // each key range ends where the next prefix's keys start.
      const MortonKey prefix = (node.prefix << dims_per_split) | c;
      const std::uint32_t end =
          c + 1 == fanout
              ? node.end
              : index.LowerBound(prefix + 1, child_bits, begin, node.end);
      nodes->push_back({prefix, begin, end, node.depth + 1, 0});
      out->parent.push_back(static_cast<NodeId>(v));
      begin = end;
      // The parent's box, then Box::Halve once per appended bit, in the
      // global round-robin dimension order.
      double* lo = &out->bounds[stride * (first + c)];
      double* hi = lo + dim;
      const double* parent_lo = &out->bounds[stride * v];
      std::copy(parent_lo, parent_lo + stride, lo);
      for (int step = 0; step < dims_per_split; ++step) {
        const std::size_t j = static_cast<std::size_t>(bits + step) % dim;
        const double mid = 0.5 * (lo[j] + hi[j]);
        if ((c >> (dims_per_split - 1 - step)) & 1) {
          lo[j] = mid;
        } else {
          hi[j] = mid;
        }
      }
    }
  }
  return split_count;
}

struct FitMetrics {
  obs::Histogram& tree_nodes =
      obs::Registry::Global().GetHistogram("spatial.tree_nodes");
  obs::Histogram& nodes_split =
      obs::Registry::Global().GetHistogram("spatial.nodes_split");
  obs::Histogram& tree_height =
      obs::Registry::Global().GetHistogram("spatial.tree_height");
  obs::Histogram& decompose_us =
      obs::Registry::Global().GetHistogram("spatial.decompose_us");
  obs::Histogram& count_release_us =
      obs::Registry::Global().GetHistogram("spatial.count_release_us");
};

FitMetrics& Metrics() {
  static FitMetrics metrics;
  return metrics;
}

/// The shape of one fit: its node count, splits and height.
void ObserveShape(const DecompositionStats& stats) {
  Metrics().tree_nodes.Observe(stats.nodes_visited);
  Metrics().nodes_split.Observe(stats.nodes_split);
  Metrics().tree_height.Observe(static_cast<std::uint64_t>(stats.height));
}

}  // namespace

FlatSpatialTree FitPrivTreeFlat(const MortonIndex& index, const Box& domain,
                                double epsilon,
                                const PrivTreeHistogramOptions& options,
                                Rng& rng) {
  PRIVTREE_CHECK_GT(epsilon, 0.0);
  PRIVTREE_CHECK_GT(options.tree_budget_fraction, 0.0);
  PRIVTREE_CHECK_LT(options.tree_budget_fraction, 1.0);
  const int dims_per_split = DimsPerSplit(options.dims_per_split, domain);

  // The budget split and parameters of BuildPrivTreeHistogram.
  PrivacyBudget budget(epsilon);
  const double tree_epsilon =
      budget.SpendFraction(options.tree_budget_fraction);
  const double count_epsilon = budget.SpendRemaining();
  PrivTreeParams params =
      PrivTreeParams::ForEpsilon(tree_epsilon, 1 << dims_per_split);
  params.max_depth = options.max_depth;
  params.Validate();

  FlatSpatialTree tree;
  std::vector<FitNode> nodes;
  auto start = std::chrono::steady_clock::now();
  tree.stats.nodes_split = Decompose(
      index, domain, dims_per_split,
      [&](double score, std::int32_t depth) {
        return PrivTreeSplits(params, score, depth, rng);
      },
      &tree, &nodes);
  Metrics().decompose_us.Observe(MicrosSince(start));

  // ReleaseLeafCounts: Lap(1/ε_count) on every leaf in id order, then each
  // internal count is the sum of its children's, in child order.
  start = std::chrono::steady_clock::now();
  const std::size_t n = nodes.size();
  const double scale = 1.0 / count_epsilon;
  tree.count.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (nodes[v].first_child != 0) continue;
    tree.count[v] = static_cast<double>(nodes[v].end - nodes[v].begin) +
                    SampleLaplace(rng, scale);
  }
  const std::size_t fanout = std::size_t{1} << dims_per_split;
  for (std::size_t v = n; v-- > 0;) {
    const std::size_t first = nodes[v].first_child;
    if (first == 0) continue;
    double total = 0.0;
    for (std::size_t c = first; c < first + fanout; ++c) total += tree.count[c];
    tree.count[v] = total;
  }
  Metrics().count_release_us.Observe(MicrosSince(start));

  tree.stats.nodes_visited = n;
  tree.stats.height = nodes.back().depth;  // Breadth-first: deepest last.
  ObserveShape(tree.stats);
  return tree;
}

FlatSpatialTree FitSimpleTreeFlat(const MortonIndex& index, const Box& domain,
                                  double epsilon,
                                  const SimpleTreeHistogramOptions& options,
                                  Rng& rng) {
  PRIVTREE_CHECK_GT(epsilon, 0.0);
  const int dims_per_split = DimsPerSplit(options.dims_per_split, domain);
  SimpleTreeParams params =
      SimpleTreeParams::ForEpsilon(epsilon, options.height);
  params.theta = options.theta;

  // RunSimpleTree: every node's count is its noisy score, released as it
  // is visited.
  FlatSpatialTree tree;
  std::vector<FitNode> nodes;
  const auto start = std::chrono::steady_clock::now();
  tree.stats.nodes_split = Decompose(
      index, domain, dims_per_split,
      [&](double score, std::int32_t depth) {
        const double noisy = score + SampleLaplace(rng, params.lambda);
        tree.count.push_back(noisy);
        return noisy > params.theta && depth < params.height - 1;
      },
      &tree, &nodes);
  Metrics().decompose_us.Observe(MicrosSince(start));

  tree.stats.nodes_visited = nodes.size();
  tree.stats.height = nodes.back().depth;
  ObserveShape(tree.stats);
  return tree;
}

}  // namespace privtree
