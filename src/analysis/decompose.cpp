#include "analysis/decompose.hpp"

namespace ndf {

Decomposition decompose(const SpawnTree& tree, double M) {
  NDF_CHECK(M > 0.0);
  Decomposition d;
  d.M = M;
  d.owner.assign(tree.num_nodes(), -1);

  // Iterative DFS from the root; cut at the first node of size <= M.
  std::vector<NodeId> stack{tree.root()};
  std::vector<NodeId> sub;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    const SpawnNode& node = tree.node(n);
    const double size = tree.size_of(n);
    if (size <= M || node.kind == Kind::Strand) {
      const int idx = static_cast<int>(d.maximal.size());
      d.maximal.push_back(n);
      d.maximal_size.push_back(size);
      // Mark the whole maximal subtree, strands included.
      sub.assign(1, n);
      while (!sub.empty()) {
        NodeId s = sub.back();
        sub.pop_back();
        d.owner[s] = idx;
        for (NodeId c : tree.node(s).children) sub.push_back(c);
      }
    } else {
      d.glue.push_back(n);
      for (auto it = node.children.rbegin(); it != node.children.rend(); ++it)
        stack.push_back(*it);
    }
  }
  return d;
}

}  // namespace ndf
