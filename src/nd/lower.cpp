#include "nd/lower.hpp"

namespace ndf {

SpawnTree lower_to_np(const SpawnTree& tree) {
  SpawnTree out;
  // Recursive copy; node ids change (detached nodes are dropped).
  auto copy = [&](auto&& self, NodeId n) -> NodeId {
    const SpawnNode& node = tree.node(n);
    if (node.kind == Kind::Strand) {
      const NodeId id =
          out.strand(node.work, node.size, tree.label(n), tree.body(n));
      out.add_reads(id, tree.reads(n));
      out.add_writes(id, tree.writes(n));
      return id;
    }
    std::vector<NodeId> kids;
    kids.reserve(tree.children(n).size());
    for (NodeId c : tree.children(n)) kids.push_back(self(self, c));
    // Fires become seqs: the NP elision of every dataflow arrow.
    return node.kind == Kind::Par ? out.par(kids, node.size, tree.label(n))
                                  : out.seq(kids, node.size, tree.label(n));
  };
  out.set_root(copy(copy, tree.root()));
  return out;
}

}  // namespace ndf
