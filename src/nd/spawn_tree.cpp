#include "nd/spawn_tree.hpp"

namespace ndf {

NodeId SpawnTree::add_node(Kind kind, std::span<const NodeId> children,
                           double size, std::string_view label) {
  NDF_CHECK_MSG(kind == Kind::Strand || kind == Kind::Fire ||
                    children.size() >= 2,
                (kind == Kind::Seq ? "seq" : "par")
                    << " needs >= 2 children");
  NDF_CHECK_MSG(nodes_.size() < kNoNode, "spawn tree is full");
  NDF_CHECK_MSG(kids_.size() + children.size() <= UINT32_MAX,
                "spawn tree child array is full");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (NodeId c : children) {
    NDF_CHECK_MSG(c < id, "child " << c << " does not exist yet");
    NDF_CHECK_MSG(nodes_[c].parent == kNoNode,
                  "node " << c << " already has a parent");
    nodes_[c].parent = id;
  }
  SpawnNode& n = nodes_.emplace_back();
  n.kind = kind;
  n.size = size;
  n.label = intern(label);
  n.first_child = static_cast<std::uint32_t>(kids_.size());
  n.num_children = static_cast<std::uint32_t>(children.size());
  kids_.insert(kids_.end(), children.begin(), children.end());
  return id;
}

std::uint32_t SpawnTree::intern(std::string_view label) {
  if (label.empty()) return 0;
  for (const std::uint32_t ix : recent_labels_)
    if (ix != 0 && label_at(ix) == label) return ix;
  NDF_CHECK_MSG(label_chars_.size() + label.size() <= UINT32_MAX,
                "spawn tree label table is full");
  label_chars_.append(label);
  label_off_.push_back(static_cast<std::uint32_t>(label_chars_.size()));
  const auto ix = static_cast<std::uint32_t>(label_off_.size() - 2);
  recent_labels_[ix % recent_labels_.size()] = ix;
  return ix;
}

NodeId SpawnTree::strand(double work, double size, std::string_view label,
                         Body body) {
  NDF_CHECK(work >= 0.0 && size >= 0.0);
  const NodeId id = add_node(Kind::Strand, {}, size, label);
  nodes_[id].work = work;
  if (body) set_body(id, std::move(body));
  return id;
}

NodeId SpawnTree::fire(FireType type, NodeId left, NodeId right, double size,
                       std::string_view label) {
  NDF_CHECK(rules_.valid(type));
  const NodeId pair[2] = {left, right};
  const NodeId id = add_node(Kind::Fire, pair, size, label);
  nodes_[id].fire_type = type;
  return id;
}

void SpawnTree::set_body(NodeId id, Body body) {
  NDF_CHECK_MSG(id < nodes_.size() && is_strand(id),
                "only strands carry bodies (node " << id << ")");
  if (id >= bodies_.size()) {
    if (!body) return;
    bodies_.resize(std::max<std::size_t>(id + 1, nodes_.size()));
  }
  bodies_[id] = std::move(body);
}

SpawnTree::Footprint* SpawnTree::footprint(NodeId id, std::size_t added) {
  NDF_CHECK_MSG(id < nodes_.size() && is_strand(id),
                "only strands declare footprints (node " << id << ")");
  if (added == 0) return nullptr;
  if (id >= footprints_.size())
    footprints_.resize(std::max<std::size_t>(id + 1, nodes_.size()));
  return &footprints_[id];
}

void SpawnTree::add_reads(NodeId id, std::span<const MemSegment> segs) {
  if (Footprint* f = footprint(id, segs.size()))
    f->reads.insert(f->reads.end(), segs.begin(), segs.end());
}

void SpawnTree::add_writes(NodeId id, std::span<const MemSegment> segs) {
  if (Footprint* f = footprint(id, segs.size()))
    f->writes.insert(f->writes.end(), segs.begin(), segs.end());
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
  for (NodeId c : children(id)) w += work_of(c);
  return w;
}

std::size_t SpawnTree::strand_count(NodeId id) const {
  if (is_strand(id)) return 1;
  std::size_t k = 0;
  for (NodeId c : children(id)) k += strand_count(c);
  return k;
}

NodeId SpawnTree::descend(NodeId id, const Pedigree& p) const {
  NodeId cur = id;
  for (const std::uint16_t ix : p) {
    if (is_strand(cur)) break;  // recursion terminated at a leaf
    const std::span<const NodeId> kids = children(cur);
    NDF_CHECK_MSG(ix <= kids.size(),
                  "pedigree index " << ix << " out of range at node " << cur
                                    << " (" << kids.size() << " children)");
    cur = kids[ix - 1];
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
    for (NodeId c : children(n)) {
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
    const NodeId cur = stack.back();
    stack.pop_back();
    if (is_strand(cur)) {
      out.push_back(cur);
    } else {
      const std::span<const NodeId> kids = children(cur);
      stack.insert(stack.end(), kids.rbegin(), kids.rend());
    }
  }
  return out;
}

}  // namespace ndf
