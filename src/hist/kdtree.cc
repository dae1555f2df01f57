#include "hist/kdtree.h"

#include <algorithm>
#include <deque>

#include "dp/check.h"
#include "dp/distributions.h"
#include "dp/quantile.h"

namespace privtree {

double PrivateMedianSplit(const std::vector<double>& values, double lo,
                          double hi, double epsilon, Rng& rng) {
  return PrivateQuantile(values, 0.5, lo, hi, epsilon, rng);
}

KdTreeHistogram::KdTreeHistogram(const PointSet& points, const Box& domain,
                                 double epsilon, const KdTreeOptions& options,
                                 Rng& rng) {
  PRIVTREE_CHECK_GT(epsilon, 0.0);
  PRIVTREE_CHECK_GE(options.height, 1);
  PRIVTREE_CHECK_GT(options.split_budget_fraction, 0.0);
  PRIVTREE_CHECK_LT(options.split_budget_fraction, 1.0);
  const std::size_t d = domain.dim();
  const double split_epsilon = epsilon * options.split_budget_fraction /
                               static_cast<double>(options.height);
  const double count_epsilon = epsilon * (1.0 - options.split_budget_fraction);

  tree_.AddRoot(domain);

  struct Pending {
    NodeId node;
    std::int32_t depth;
    std::vector<std::size_t> members;  ///< Point indices inside the node.
  };
  std::deque<Pending> queue;
  {
    std::vector<std::size_t> all(points.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    queue.push_back({tree_.root(), 0, std::move(all)});
  }
  // Leaf membership is resolved during construction; counts noised at the
  // end with the count budget (one point in exactly one leaf).
  std::vector<std::pair<NodeId, std::size_t>> leaf_sizes;

  while (!queue.empty()) {
    Pending current = std::move(queue.front());
    queue.pop_front();
    const Box box = tree_.node(current.node).domain;
    if (current.depth >= options.height) {
      leaf_sizes.emplace_back(current.node, current.members.size());
      continue;
    }
    const std::size_t axis =
        static_cast<std::size_t>(current.depth) % d;
    // Noisy median along the split axis.
    std::vector<double> coords;
    coords.reserve(current.members.size());
    for (std::size_t i : current.members) {
      coords.push_back(points.point(i)[axis]);
    }
    const double split = PrivateMedianSplit(coords, box.lo(axis),
                                            box.hi(axis), split_epsilon, rng);
    Box left = box;
    Box right = box;
    {
      std::vector<double> left_lo = box.lo(), left_hi = box.hi();
      left_hi[axis] = split;
      left = Box(std::move(left_lo), std::move(left_hi));
      std::vector<double> right_lo = box.lo(), right_hi = box.hi();
      right_lo[axis] = split;
      right = Box(std::move(right_lo), std::move(right_hi));
    }
    const NodeId left_id = tree_.AddChild(current.node, left);
    const NodeId right_id = tree_.AddChild(current.node, right);
    std::vector<std::size_t> left_members, right_members;
    for (std::size_t i : current.members) {
      if (points.point(i)[axis] < split) {
        left_members.push_back(i);
      } else {
        right_members.push_back(i);
      }
    }
    queue.push_back({left_id, current.depth + 1, std::move(left_members)});
    queue.push_back({right_id, current.depth + 1, std::move(right_members)});
  }

  count_.assign(tree_.size(), 0.0);
  for (const auto& [leaf, size] : leaf_sizes) {
    count_[leaf] = static_cast<double>(size) +
                   SampleLaplace(rng, 1.0 / count_epsilon);
  }
  // Internal counts = sums of leaf counts (consistent by construction).
  const auto& nodes = tree_.nodes();
  for (std::size_t i = nodes.size(); i-- > 0;) {
    if (nodes[i].is_leaf()) continue;
    double total = 0.0;
    for (NodeId child : nodes[i].children) total += count_[child];
    count_[i] = total;
  }
}

double KdTreeHistogram::Query(const Box& q) const {
  double ans = 0.0;
  std::vector<NodeId> stack = {tree_.root()};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    const auto& node = tree_.node(v);
    if (!q.Intersects(node.domain)) continue;
    if (q.ContainsBox(node.domain)) {
      ans += count_[v];
      continue;
    }
    if (!node.is_leaf()) {
      for (NodeId child : node.children) stack.push_back(child);
      continue;
    }
    const double volume = node.domain.Volume();
    if (volume > 0.0) {
      ans += count_[v] * (node.domain.IntersectionVolume(q) / volume);
    }
  }
  return ans;
}

}  // namespace privtree
