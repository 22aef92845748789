#include "nd/dot.hpp"

#include <sstream>

namespace ndf {

namespace {

std::string node_label(const SpawnTree& t, NodeId n) {
  const SpawnNode& node = t.node(n);
  switch (node.kind) {
    case Kind::Strand: {
      if (!t.label(n).empty()) return std::string(t.label(n));
      std::string name = "s";
      name += std::to_string(n);
      return name;
    }
    case Kind::Seq:
      return ";";
    case Kind::Par:
      return "||";
    case Kind::Fire:
      return "~" + t.rules().name(node.fire_type) + "~>";
  }
  return "?";
}

}  // namespace

std::string to_dot(const SpawnTree& tree) {
  std::ostringstream os;
  os << "digraph spawn_tree {\n  node [shape=box, fontsize=10];\n";
  const std::vector<bool> live = tree.reachable();
  for (NodeId n = 0; n < tree.num_nodes(); ++n) {
    if (!live[n]) continue;
    os << "  n" << n << " [label=\"" << node_label(tree, n) << "\"";
    if (tree.node(n).kind == Kind::Strand) os << ", style=filled";
    os << "];\n";
    for (NodeId c : tree.children(n))
      os << "  n" << n << " -> n" << c << " [style=dotted, arrowhead=none];\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const StrandGraph& g, std::size_t max_strands) {
  const SpawnTree& tree = g.tree();
  std::ostringstream os;
  os << "digraph algorithm_dag {\n  node [shape=ellipse, fontsize=10];\n";
  std::size_t strands = 0;
  for (NodeId n = 0; n < tree.num_nodes(); ++n) {
    if (tree.node(n).kind != Kind::Strand || !g.live(n)) continue;
    NDF_CHECK_MSG(++strands <= max_strands,
                  "DAG too large for DOT export (limit " << max_strands
                                                         << " strands)");
    os << "  n" << n << " [label=\"" << node_label(tree, n) << "\"];\n";
  }
  // Task-level arrows (each may connect whole subtrees; we draw them
  // between subtree roots, matching the paper's dataflow-arrow figures).
  // Arrow endpoints that are internal nodes get box-shaped declarations.
  for (const TaskArrow& a : g.arrows())
    for (NodeId n : {a.from, a.to})
      if (tree.node(n).kind != Kind::Strand)
        os << "  n" << n << " [label=\"" << node_label(tree, n)
           << "\", shape=box];\n";
  for (const TaskArrow& a : g.arrows())
    os << "  n" << a.from << " -> n" << a.to << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace ndf
