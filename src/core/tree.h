// A generic hierarchical-decomposition tree.
//
// Nodes are stored in a flat vector and addressed by index; each node carries
// the sub-domain it represents (a spatial box, a PST predictor string, ...).
// The container is shared by PrivTree, SimpleTree and the non-private
// reference decomposition.
#ifndef PRIVTREE_CORE_TREE_H_
#define PRIVTREE_CORE_TREE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dp/check.h"

namespace privtree {

/// Identifies a node inside a DecompTree.  The root is always node 0.
using NodeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;

/// One node of a decomposition tree.
template <typename Domain>
struct DecompNode {
  Domain domain;
  NodeId parent = kInvalidNode;
  std::int32_t depth = 0;  ///< Hop distance to the root (root = 0).
  std::vector<NodeId> children;

  bool is_leaf() const { return children.empty(); }
};

/// A tree-structured decomposition of a domain into sub-domains.
template <typename Domain>
class DecompTree {
 public:
  DecompTree() = default;

  /// Creates the root node; must be called exactly once, before AddChild.
  NodeId AddRoot(Domain domain) {
    PRIVTREE_CHECK(nodes_.empty());
    DecompNode<Domain> node;
    node.domain = std::move(domain);
    nodes_.push_back(std::move(node));
    return 0;
  }

  /// Appends a child of `parent` and returns its id.
  NodeId AddChild(NodeId parent, Domain domain) {
    PRIVTREE_CHECK_GE(parent, 0);
    PRIVTREE_CHECK_LT(static_cast<std::size_t>(parent), nodes_.size());
    DecompNode<Domain> node;
    node.domain = std::move(domain);
    node.parent = parent;
    node.depth = nodes_[parent].depth + 1;
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::move(node));
    nodes_[parent].children.push_back(id);
    return id;
  }

  bool empty() const { return nodes_.empty(); }
  std::size_t size() const { return nodes_.size(); }

  const DecompNode<Domain>& node(NodeId id) const {
    PRIVTREE_CHECK_GE(id, 0);
    PRIVTREE_CHECK_LT(static_cast<std::size_t>(id), nodes_.size());
    return nodes_[id];
  }

  /// Mutable access to a node's domain, for post-processing passes that
  /// rewrite per-node state in place (the shape stays fixed).
  Domain& mutable_domain(NodeId id) {
    PRIVTREE_CHECK_GE(id, 0);
    PRIVTREE_CHECK_LT(static_cast<std::size_t>(id), nodes_.size());
    return nodes_[id].domain;
  }

  NodeId root() const {
    PRIVTREE_CHECK(!nodes_.empty());
    return 0;
  }

  /// Ids of all leaf nodes, in increasing id order.
  std::vector<NodeId> LeafIds() const {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].is_leaf()) out.push_back(static_cast<NodeId>(i));
    }
    return out;
  }

  /// Number of leaf nodes.
  std::size_t LeafCount() const {
    std::size_t count = 0;
    for (const auto& n : nodes_) count += n.is_leaf() ? 1 : 0;
    return count;
  }

  /// Maximum node depth; 0 for a root-only tree.
  std::int32_t Height() const {
    std::int32_t h = 0;
    for (const auto& n : nodes_) h = std::max(h, n.depth);
    return h;
  }

  const std::vector<DecompNode<Domain>>& nodes() const { return nodes_; }

 private:
  std::vector<DecompNode<Domain>> nodes_;
};

}  // namespace privtree

#endif  // PRIVTREE_CORE_TREE_H_
