#include "analysis/determinacy.hpp"

#include <sstream>
#include <vector>

namespace ndf {

namespace {

/// Dense bitset rows over strand indices.
class BitMatrix {
 public:
  BitMatrix(std::size_t rows, std::size_t bits)
      : words_((bits + 63) / 64), data_(rows * words_, 0) {}

  void set(std::size_t row, std::size_t bit) {
    data_[row * words_ + bit / 64] |= 1ULL << (bit % 64);
  }
  bool test(std::size_t row, std::size_t bit) const {
    return data_[row * words_ + bit / 64] >> (bit % 64) & 1;
  }
  void merge_into(std::size_t dst, std::size_t src) {
    std::uint64_t* d = &data_[dst * words_];
    const std::uint64_t* s = &data_[src * words_];
    for (std::size_t w = 0; w < words_; ++w) d[w] |= s[w];
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> data_;
};

}  // namespace

DeterminacyReport check_determinacy(const StrandGraph& g) {
  const SpawnTree& tree = g.tree();
  DeterminacyReport rep;

  // Index the strands that declared footprints.
  std::vector<NodeId> strands;
  std::vector<int> strand_ix(tree.num_nodes(), -1);
  for (NodeId n = 0; n < tree.num_nodes(); ++n) {
    const SpawnNode& node = tree.node(n);
    if (node.kind == Kind::Strand &&
        (!node.reads.empty() || !node.writes.empty()) &&
        g.live(n)) {
      strand_ix[n] = static_cast<int>(strands.size());
      strands.push_back(n);
    }
  }
  rep.strands_with_footprint = strands.size();
  if (strands.empty()) return rep;

  // reach[v] = set of footprint strands reachable from vertex v (a strand
  // s is "at" its enter vertex). Processed in reverse topological order.
  const std::vector<VertexId> order = g.topological_order();
  BitMatrix reach(g.num_vertices(), strands.size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const VertexId v = *it;
    for (VertexId w : g.successors(v)) reach.merge_into(v, w);
    if (!g.is_exit(v)) {
      const int ix = strand_ix[g.owner(v)];
      if (ix >= 0) reach.set(v, static_cast<std::size_t>(ix));
    }
  }

  auto conflicts = [&](const SpawnNode& a, const SpawnNode& b) {
    return segments_overlap(a.writes, b.writes) ||
           segments_overlap(a.writes, b.reads) ||
           segments_overlap(a.reads, b.writes);
  };

  for (std::size_t i = 0; i < strands.size(); ++i) {
    const SpawnNode& a = tree.node(strands[i]);
    for (std::size_t j = i + 1; j < strands.size(); ++j) {
      const SpawnNode& b = tree.node(strands[j]);
      if (!conflicts(a, b)) continue;
      ++rep.conflicting_pairs;
      const bool ab = reach.test(g.exit(strands[i]), j);
      const bool ba = reach.test(g.exit(strands[j]), i);
      if (!ab && !ba) {
        rep.ok = false;
        if (rep.message.empty()) {
          std::ostringstream os;
          os << "unordered conflicting strands: node " << strands[i] << " ('"
             << a.label << "') and node " << strands[j] << " ('" << b.label
             << "')";
          rep.message = os.str();
        }
      }
    }
  }
  return rep;
}

}  // namespace ndf
