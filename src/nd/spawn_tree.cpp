#include "nd/spawn_tree.hpp"

namespace ndf {

NodeId SpawnTree::add_node(SpawnNode n) {
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void SpawnTree::adopt(NodeId parent, const std::vector<NodeId>& children) {
  for (NodeId c : children) {
    NDF_CHECK_MSG(nodes_[c].parent == kNoNode,
                  "node " << c << " already has a parent");
    nodes_[c].parent = parent;
  }
}

NodeId SpawnTree::strand(double work, double size, std::string label,
                         std::function<void()> body) {
  NDF_CHECK(work >= 0.0 && size >= 0.0);
  SpawnNode n;
  n.kind = Kind::Strand;
  n.work = work;
  n.size = size;
  n.label = std::move(label);
  n.body = std::move(body);
  return add_node(std::move(n));
}

NodeId SpawnTree::seq(std::vector<NodeId> children, double size,
                      std::string label) {
  NDF_CHECK_MSG(children.size() >= 2, "seq needs >= 2 children");
  SpawnNode n;
  n.kind = Kind::Seq;
  n.children = std::move(children);
  n.size = size;
  n.label = std::move(label);
  NodeId id = add_node(std::move(n));
  adopt(id, nodes_[id].children);
  return id;
}

NodeId SpawnTree::par(std::vector<NodeId> children, double size,
                      std::string label) {
  NDF_CHECK_MSG(children.size() >= 2, "par needs >= 2 children");
  SpawnNode n;
  n.kind = Kind::Par;
  n.children = std::move(children);
  n.size = size;
  n.label = std::move(label);
  NodeId id = add_node(std::move(n));
  adopt(id, nodes_[id].children);
  return id;
}

NodeId SpawnTree::fire(FireType type, NodeId left, NodeId right, double size,
                       std::string label) {
  NDF_CHECK(rules_.valid(type));
  SpawnNode n;
  n.kind = Kind::Fire;
  n.fire_type = type;
  n.children = {left, right};
  n.size = size;
  n.label = std::move(label);
  NodeId id = add_node(std::move(n));
  adopt(id, nodes_[id].children);
  return id;
}

void SpawnTree::set_root(NodeId root) {
  NDF_CHECK(root < nodes_.size());
  NDF_CHECK_MSG(nodes_[root].parent == kNoNode, "root must have no parent");
  root_ = root;
}

double SpawnTree::size_of(NodeId id) const {
  NodeId cur = id;
  while (cur != kNoNode) {
    if (nodes_[cur].size >= 0.0) return nodes_[cur].size;
    cur = nodes_[cur].parent;
  }
  NDF_CHECK_MSG(false, "no size annotation on path to root from " << id);
  return 0.0;
}

double SpawnTree::work_of(NodeId id) const {
  const SpawnNode& n = node(id);
  if (n.kind == Kind::Strand) return n.work;
  double w = 0.0;
  for (NodeId c : n.children) w += work_of(c);
  return w;
}

std::size_t SpawnTree::strand_count(NodeId id) const {
  const SpawnNode& n = node(id);
  if (n.kind == Kind::Strand) return 1;
  std::size_t k = 0;
  for (NodeId c : n.children) k += strand_count(c);
  return k;
}

NodeId SpawnTree::descend(NodeId id, const Pedigree& p) const {
  NodeId cur = id;
  for (std::uint8_t ix : p) {
    const SpawnNode& n = node(cur);
    if (n.kind == Kind::Strand) break;  // recursion terminated at a leaf
    NDF_CHECK_MSG(ix <= n.children.size(),
                  "pedigree index " << int(ix) << " out of range at node "
                                    << cur << " (" << n.children.size()
                                    << " children)");
    cur = n.children[ix - 1];
  }
  return cur;
}

bool SpawnTree::in_subtree(NodeId desc, NodeId anc) const {
  NodeId cur = desc;
  while (cur != kNoNode) {
    if (cur == anc) return true;
    cur = nodes_[cur].parent;
  }
  return false;
}

std::vector<bool> SpawnTree::reachable() const {
  std::vector<bool> live(nodes_.size(), false);
  const NodeId r = root();
  live[r] = true;
  for (NodeId n = r + 1; n-- > 0;) {
    if (!live[n]) continue;
    for (NodeId c : nodes_[n].children) {
      NDF_DCHECK(c < n);
      live[c] = true;
    }
  }
  return live;
}

std::vector<NodeId> SpawnTree::strands_under(NodeId id) const {
  std::vector<NodeId> out;
  std::vector<NodeId> stack{id};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    const SpawnNode& n = node(cur);
    if (n.kind == Kind::Strand) {
      out.push_back(cur);
    } else {
      for (auto it = n.children.rbegin(); it != n.children.rend(); ++it)
        stack.push_back(*it);
    }
  }
  return out;
}

}  // namespace ndf
