#include "gen/families.hpp"

#include <string>
#include <vector>

#include "gen/synthetic_mem.hpp"
#include "support/check.hpp"

namespace ndf::gen {

namespace {

/// A par stage of `fan` strands (or the strand itself when fan == 1).
NodeId stage(SpawnTree& t, std::size_t fan, double work,
             const std::string& tag, std::vector<NodeId>* strands) {
  std::vector<NodeId> s;
  s.reserve(fan);
  for (std::size_t i = 0; i < fan; ++i)
    s.push_back(t.strand(work, work, tag));
  if (strands) *strands = s;
  return fan == 1 ? s[0] : t.par(s, double(fan) * work, tag);
}

}  // namespace

SpawnTree make_chain_tree(std::size_t n, double work) {
  NDF_CHECK_MSG(n >= 1 && n <= 100000, "gen chain needs n in [1, 100000]");
  SpawnTree t;
  SyntheticMem mem;
  std::vector<NodeId> strands;
  strands.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string label = "c";
    label += std::to_string(i);
    strands.push_back(t.strand(work, work, label));
  }
  for (std::size_t i = 0; i + 1 < n; ++i)
    mem.link(t, strands[i], strands[i + 1]);
  t.set_root(n == 1 ? strands[0] : t.seq(strands, double(n) * work, "chain"));
  return t;
}

SpawnTree make_forkjoin_tree(std::size_t depth, std::size_t fan,
                             double work) {
  NDF_CHECK_MSG(depth >= 1 && fan >= 1 && depth * fan <= 100000,
                "gen forkjoin needs depth, fan >= 1 and depth*fan <= 100000");
  SpawnTree t;
  SyntheticMem mem;
  std::vector<NodeId> levels;
  std::vector<NodeId> prev;
  for (std::size_t d = 0; d < depth; ++d) {
    std::vector<NodeId> cur;
    levels.push_back(stage(t, fan, work, "fj" + std::to_string(d), &cur));
    // The barrier between stages orders everything, so any stage-d+1
    // strand may legally read any stage-d strand's output; one reader per
    // writer keeps the conflict-pair count linear.
    for (std::size_t w = 0; w < prev.size(); ++w) {
      const MemSegment s = mem.fresh();
      t.add_writes(prev[w], {&s, 1});
      t.add_reads(cur[w % cur.size()], {&s, 1});
    }
    prev = std::move(cur);
  }
  t.set_root(depth == 1 ? levels[0]
                        : t.seq(levels, double(depth * fan) * work, "fj"));
  return t;
}

SpawnTree make_diamond_tree(std::size_t depth, std::size_t fan, double work) {
  NDF_CHECK_MSG(depth >= 1 && fan >= 1 && depth * (fan + 2) <= 100000,
                "gen diamond needs depth, fan >= 1 and depth*(fan+2) <= "
                "100000");
  SpawnTree t;
  SyntheticMem mem;
  std::vector<NodeId> diamonds;
  NodeId prev_sink = kNoNode;
  for (std::size_t d = 0; d < depth; ++d) {
    std::string tag = "d";
    tag += std::to_string(d);
    const NodeId src = t.strand(work, work, tag + ".src");
    std::vector<NodeId> mids;
    const NodeId mid = stage(t, fan, work, tag + ".mid", &mids);
    const NodeId sink = t.strand(work, work, tag + ".sink");
    // src feeds every middle, every middle feeds the sink (ordered by the
    // seq barriers below); sinks chain across stacked diamonds.
    for (NodeId m : mids) {
      const MemSegment s = mem.fresh();
      t.add_writes(src, {&s, 1});
      t.add_reads(m, {&s, 1});
      const MemSegment s2 = mem.fresh();
      t.add_writes(m, {&s2, 1});
      t.add_reads(sink, {&s2, 1});
    }
    if (prev_sink != kNoNode) mem.link(t, prev_sink, src);
    diamonds.push_back(
        t.seq({src, mid, sink}, double(fan + 2) * work, tag));
    prev_sink = sink;
  }
  t.set_root(depth == 1
                 ? diamonds[0]
                 : t.seq(diamonds, double(depth * (fan + 2)) * work, "dia"));
  return t;
}

SpawnTree make_wavefront_tree(std::size_t n, double work) {
  // The n*n strands bound the determinacy-check cost: n = 256 checks in
  // under a second with about 100 MB of reachability rows.
  NDF_CHECK_MSG(n >= 1 && n <= 256, "gen wavefront needs n in [1, 256]");
  SpawnTree t;
  SyntheticMem mem;
  if (n == 1) {
    t.set_root(t.strand(work, work, "wf0,0"));
    return t;
  }

  std::vector<std::vector<NodeId>> cell(n, std::vector<NodeId>(n));
  std::vector<NodeId> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<NodeId> row(n);
    for (std::size_t j = 0; j < n; ++j) {
      cell[i][j] = t.strand(
          work, work, "wf" + std::to_string(i) + "," + std::to_string(j));
      row[j] = cell[i][j];
    }
    // Left-to-right within a row: exactly the horizontal wavefront edge.
    rows[i] = t.seq(row, double(n) * work, "row" + std::to_string(i));
  }

  // Vertical edges (i,j) → (i+1,j) via generated per-column fire rules.
  // Rows fold right-to-left: the innermost fire pairs two bare rows
  // (sink pedigree (j)); every outer fire's sink is a fire node whose
  // child 1 is the next row down (sink pedigree (1)(j)).
  FireRules& R = t.rules();
  const FireType v_row = R.add_type("V");
  const FireType v_acc = R.add_type("Vx");
  for (std::size_t j = 1; j <= n; ++j) {
    const auto ix = static_cast<std::uint16_t>(j);
    R.add_rule(v_row, Pedigree{ix}, FireRules::kFull, Pedigree{ix});
    R.add_rule(v_acc, Pedigree{ix}, FireRules::kFull,
               Pedigree(std::vector<std::uint16_t>{1, ix}));
  }
  NodeId acc = rows[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    const FireType type = (acc == rows[n - 1]) ? v_row : v_acc;
    acc = t.fire(type, rows[i], acc,
                 double((n - i) * n) * work, "wf");
  }
  t.set_root(acc);

  // Footprints mirror the grid: (i,j) writes its cell and reads up/left.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const MemSegment s = mem.fresh();
      t.add_writes(cell[i][j], {&s, 1});
      if (i + 1 < n) t.add_reads(cell[i + 1][j], {&s, 1});
      if (j + 1 < n) t.add_reads(cell[i][j + 1], {&s, 1});
    }
  return t;
}

}  // namespace ndf::gen
