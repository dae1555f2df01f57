#include "spatial/flat_fit.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/privtree_params.h"
#include "core/simpletree.h"
#include "dp/budget.h"
#include "dp/check.h"
#include "dp/distributions.h"
#include "obs/metrics.h"

namespace privtree {

namespace {

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

/// The exact key ranges [begin, end) of one level's nodes, in id order.
/// They never leave the fit.
struct LevelRanges {
  std::vector<std::uint32_t> begin;
  std::vector<std::uint32_t> end;
};

/// Child boundary searches waiting to run as one MortonIndex lockstep
/// group.  The answer of probe j is where next-level node slot[j]'s keys
/// end and node slot[j] + 1's begin.
class BoundaryGroup {
 public:
  /// Queues a probe; runs the group once it is full.
  void Add(const MortonIndex& index, const MortonIndex::Probe& probe,
           std::size_t slot, LevelRanges* next) {
    probes_[size_] = probe;
    slot_[size_] = slot;
    if (++size_ == MortonIndex::kProbeGroup) Run(index, next);
  }

  /// Runs the queued probes and writes their answers into `next`.
  void Run(const MortonIndex& index, LevelRanges* next) {
    std::array<std::uint32_t, MortonIndex::kProbeGroup> found;
    index.LowerBoundGroup({probes_.data(), size_}, found.data());
    for (std::size_t j = 0; j < size_; ++j) {
      next->end[slot_[j]] = found[j];
      next->begin[slot_[j] + 1] = found[j];
    }
    size_ = 0;
  }

 private:
  std::array<MortonIndex::Probe, MortonIndex::kProbeGroup> probes_;
  std::array<std::size_t, MortonIndex::kProbeGroup> slot_;
  std::size_t size_ = 0;
};

/// The decomposition both builders share, one breadth-first level at a
/// time.  `splits(score, depth)` makes a node's split decision, with its
/// draws; a node splits only if it also passes QuadtreePolicy::CanSplit.
/// The nodes of a level decide in id order, so the draws come in the
/// library builders' order, and a split appends its children's parent
/// links.  The children's key ranges are found by lockstep searches inside
/// the parent's range.  Fills the parent links and bounds of `out` and
/// returns the first id of every level, then the node count.
template <typename Splits>
std::vector<std::size_t> Decompose(const MortonIndex& index,
                                   const Box& domain, int dims_per_split,
                                   Splits&& splits, FlatSpatialTree* out) {
  PRIVTREE_CHECK(index.root() == domain);
  const std::size_t fanout = std::size_t{1} << dims_per_split;
  const int max_bits = index.max_prefix_bits();
  const MortonKey* keys = index.keys().data();
  out->dim = domain.dim();
  out->parent.push_back(kInvalidNode);
  std::vector<std::size_t> level_start = {0};
  LevelRanges level{{0}, {static_cast<std::uint32_t>(index.size())}};
  LevelRanges next;
  BoundaryGroup group;
  for (std::int32_t depth = 0; !level.begin.empty(); ++depth) {
    const std::size_t first = level_start.back();
    const int bits = depth * dims_per_split;
    next.begin.clear();
    next.end.clear();
    for (std::size_t i = 0; i < level.begin.size(); ++i) {
      const std::uint32_t begin = level.begin[i];
      const std::uint32_t end = level.end[i];
      if (!splits(static_cast<double>(end - begin), depth) ||
          bits + dims_per_split > max_bits) {
        continue;
      }
      out->parent.insert(out->parent.end(), fanout,
                         static_cast<NodeId>(first + i));
      // Node ids are NodeId (int32): the tree must stay below 2^31 nodes.
      PRIVTREE_CHECK_LE(out->parent.size(),
                        static_cast<std::size_t>(
                            std::numeric_limits<NodeId>::max()));
      // Child 0 begins and the last child ends with the parent; the
      // children of an empty node are empty.
      const std::size_t child = next.begin.size();
      next.begin.resize(child + fanout, begin);
      next.end.resize(child + fanout, end);
      if (begin == end) continue;
      // QuadtreePolicy::Split: children come in ascending prefix order, so
      // child c's keys begin where the smallest key with its prefix would.
      // The node's prefix is the leading `bits` bits of any of its keys.
      const int node_shift = max_bits - bits;
      const MortonKey node_key = keys[begin] >> node_shift << node_shift;
      const int child_shift = node_shift - dims_per_split;
      for (std::size_t c = 1; c < fanout; ++c) {
        group.Add(index, {node_key + (MortonKey{c} << child_shift), begin,
                          end - begin},
                  child + c - 1, &next);
      }
    }
    group.Run(index, &next);
    level_start.push_back(first + level.begin.size());
    std::swap(level, next);
  }

  // Bounds, now that the node count is known: the parent's box, then
  // Box::Halve once per appended bit, in the global round-robin dimension
  // order.  Each level holds whole sibling groups of `fanout` nodes.
  const std::size_t dim = domain.dim();
  const std::size_t stride = 2 * dim;
  out->bounds.resize(stride * out->parent.size());
  std::copy(domain.lo().begin(), domain.lo().end(), out->bounds.begin());
  std::copy(domain.hi().begin(), domain.hi().end(), out->bounds.begin() + dim);
  for (std::size_t l = 1; l + 1 < level_start.size(); ++l) {
    const int bits = static_cast<int>(l - 1) * dims_per_split;
    for (std::size_t v = level_start[l]; v < level_start[l + 1]; ++v) {
      const std::size_t c = (v - level_start[l]) & (fanout - 1);
      double* lo = &out->bounds[stride * v];
      double* hi = lo + dim;
      const double* parent_lo =
          &out->bounds[stride * static_cast<std::size_t>(out->parent[v])];
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
  return level_start;
}

/// The shape of a tree from Decompose's level starts: every split added
/// one sibling group of `1 << dims_per_split` nodes.
DecompositionStats ShapeOf(const std::vector<std::size_t>& level_start,
                           int dims_per_split) {
  DecompositionStats stats;
  stats.nodes_visited = level_start.back();
  stats.nodes_split = (stats.nodes_visited - 1) >> dims_per_split;
  stats.height = static_cast<std::int32_t>(level_start.size()) - 2;
  return stats;
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

  // The splits keep each node's exact count, in id order, for the count
  // release below.
  FlatSpatialTree tree;
  auto start = std::chrono::steady_clock::now();
  const std::vector<std::size_t> level_start = Decompose(
      index, domain, dims_per_split,
      [&](double score, std::int32_t depth) {
        tree.count.push_back(score);
        return PrivTreeSplits(params, score, depth, rng);
      },
      &tree);
  Metrics().decompose_us.Observe(MicrosSince(start));

  // ReleaseLeafCounts: Lap(1/ε_count) on every leaf in id order, then each
  // internal count is the sum of its children's, in child order.  The
  // children of the internal nodes follow one another in their parents'
  // order, so one cursor over them tells the leaves apart; the sums run
  // level by level from the deepest, through the parent links.
  start = std::chrono::steady_clock::now();
  const std::size_t n = tree.size();
  const std::size_t fanout = std::size_t{1} << dims_per_split;
  const double scale = 1.0 / count_epsilon;
  for (std::size_t v = 0, child = 1; v < n; ++v) {
    if (child < n && static_cast<std::size_t>(tree.parent[child]) == v) {
      tree.count[v] = 0.0;
      child += fanout;
    } else {
      tree.count[v] += SampleLaplace(rng, scale);
    }
  }
  for (std::size_t l = level_start.size() - 2; l > 0; --l) {
    for (std::size_t v = level_start[l]; v < level_start[l + 1]; ++v) {
      tree.count[static_cast<std::size_t>(tree.parent[v])] += tree.count[v];
    }
  }
  Metrics().count_release_us.Observe(MicrosSince(start));

  tree.stats = ShapeOf(level_start, dims_per_split);
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
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::size_t> level_start = Decompose(
      index, domain, dims_per_split,
      [&](double score, std::int32_t depth) {
        const double noisy = score + SampleLaplace(rng, params.lambda);
        tree.count.push_back(noisy);
        return noisy > params.theta && depth < params.height - 1;
      },
      &tree);
  Metrics().decompose_us.Observe(MicrosSince(start));

  tree.stats = ShapeOf(level_start, dims_per_split);
  ObserveShape(tree.stats);
  return tree;
}

}  // namespace privtree
