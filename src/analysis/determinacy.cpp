#include "analysis/determinacy.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace ndf {

DeterminacyReport check_determinacy(const StrandGraph& g) {
  const SpawnTree& tree = g.tree();
  DeterminacyReport rep;

  // Index the strands that declared footprints, and collect their
  // segments.
  struct Seg {
    MemSegment m;
    std::uint32_t strand;
    bool write;
  };
  std::vector<NodeId> strands;
  std::vector<int> strand_ix(tree.num_nodes(), -1);
  std::vector<Seg> segs;
  for (NodeId n = 0; n < tree.num_nodes(); ++n) {
    if (!tree.is_strand(n) || !g.live(n) ||
        (tree.reads(n).empty() && tree.writes(n).empty()))
      continue;
    const auto i = static_cast<std::uint32_t>(strands.size());
    strand_ix[n] = static_cast<int>(i);
    strands.push_back(n);
    for (const MemSegment& m : tree.reads(n)) segs.push_back({m, i, false});
    for (const MemSegment& m : tree.writes(n)) segs.push_back({m, i, true});
  }
  rep.strands_with_footprint = strands.size();
  if (strands.empty()) return rep;

  // Conflicting strand pairs (i < j, by strand index): sort the segments
  // by start, and pair each with the later-starting segments it overlaps
  // where at least one side writes.
  std::sort(segs.begin(), segs.end(),
            [](const Seg& a, const Seg& b) { return a.m.lo < b.m.lo; });
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t a = 0; a < segs.size(); ++a)
    for (std::size_t b = a + 1; b < segs.size() && segs[b].m.lo < segs[a].m.hi;
         ++b)
      if (segs[a].strand != segs[b].strand &&
          (segs[a].write || segs[b].write) && segs[a].m.overlaps(segs[b].m))
        pairs.push_back(std::minmax(segs[a].strand, segs[b].strand));
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  rep.conflicting_pairs = pairs.size();

  // Reachability bitsets over strand indices (a strand s is "at" its enter
  // vertex), one reverse topological pass per block of strand columns;
  // after each pass, every pair with a side in the block reads whether the
  // other side's exit reaches it. The block width keeps the rows near
  // 64 MB whatever the strand count.
  constexpr std::size_t kRowBudgetWords = std::size_t(8) << 20;
  const std::size_t V = g.num_vertices();
  const std::size_t words = std::clamp<std::size_t>(
      kRowBudgetWords / V, 1, (strands.size() + 63) / 64);
  std::vector<std::uint64_t> reach(V * words);
  std::vector<bool> ordered(pairs.size(), false);
  const std::vector<VertexId> order = g.topological_order();
  for (std::size_t lo = 0; lo < strands.size(); lo += 64 * words) {
    std::fill(reach.begin(), reach.end(), 0);
    const auto bit = [&](VertexId v, std::size_t ix) -> std::uint64_t* {
      if (ix < lo || ix - lo >= 64 * words) return nullptr;
      return &reach[v * words + (ix - lo) / 64];
    };
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const VertexId v = *it;
      for (VertexId w : g.successors(v))
        for (std::size_t k = 0; k < words; ++k)
          reach[v * words + k] |= reach[w * words + k];
      const int ix = strand_ix[g.owner(v)];
      if (ix >= 0 && !g.is_exit(v))
        if (std::uint64_t* b = bit(v, ix)) *b |= 1ULL << ((ix - lo) % 64);
    }
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const auto [i, j] = pairs[p];
      for (const auto& [from, to] : {std::pair{i, j}, std::pair{j, i}})
        if (const std::uint64_t* b = bit(g.exit(strands[from]), to))
          if (*b >> ((to - lo) % 64) & 1) ordered[p] = true;
    }
  }

  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (ordered[p]) continue;
    const NodeId a = strands[pairs[p].first], b = strands[pairs[p].second];
    std::ostringstream os;
    os << "unordered conflicting strands: node " << a << " ('"
       << tree.label(a) << "') and node " << b << " ('" << tree.label(b)
       << "')";
    rep.ok = false;
    rep.message = os.str();
    break;
  }
  return rep;
}

}  // namespace ndf
