#include "analysis/decompose.hpp"

namespace ndf {

Decomposition decompose(const SpawnTree& tree, double M) {
  NDF_CHECK(M > 0.0);
  Decomposition d;
  d.M = M;
  d.owner.assign(tree.num_nodes(), -1);

  // Iterative DFS from the root; cut at the first node of size <= M. Each
  // stack entry carries its parent's effective size, so a node's s(t) is
  // its own annotation or that (SpawnTree::size_of without the walk up).
  struct Entry {
    NodeId node;
    double inherited;
  };
  std::vector<Entry> stack{{tree.root(), tree.size_of(tree.root())}};
  std::vector<NodeId> sub;
  while (!stack.empty()) {
    const auto [n, inherited] = stack.back();
    stack.pop_back();
    const SpawnNode& node = tree.node(n);
    const double size = node.size >= 0.0 ? node.size : inherited;
    const std::span<const NodeId> kids = tree.children(n);
    if (size <= M || node.kind == Kind::Strand) {
      const int idx = static_cast<int>(d.maximal.size());
      d.maximal.push_back(n);
      d.maximal_size.push_back(size);
      // Mark the whole maximal subtree, strands included.
      sub.assign(1, n);
      while (!sub.empty()) {
        const NodeId s = sub.back();
        sub.pop_back();
        d.owner[s] = idx;
        const std::span<const NodeId> below = tree.children(s);
        sub.insert(sub.end(), below.begin(), below.end());
      }
    } else {
      d.glue.push_back(n);
      for (auto it = kids.rbegin(); it != kids.rend(); ++it)
        stack.push_back({*it, size});
    }
  }
  return d;
}

}  // namespace ndf
