#include "gen/random_sp.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "gen/synthetic_mem.hpp"
#include "support/rng.hpp"

namespace ndf::gen {

namespace {

/// A built subtree with its footprint size (sum of strand sizes — the
/// generator gives every strand size == work, so subtree footprints add).
struct Sub {
  NodeId id;
  double size;
};

class SpBuilder {
 public:
  SpBuilder(SpawnTree& t, const GenSpec& spec)
      : t_(t), spec_(spec), rng_(spec.seed) {}

  NodeId build_root() {
    const Sub root = build(spec_.depth, /*may_leaf=*/false);
    return root.id;
  }

 private:
  Sub leaf() {
    // Uniform integer work in [1, 2*work-1], mean ≈ work; footprint == work
    // so condensation sees varied unit sizes.
    const double w = double(1 + rng_.below(2 * spec_.work - 1));
    return {t_.strand(w, w, "s"), w};
  }

  Sub build(std::size_t depth, bool may_leaf) {
    // Early leaves (15%) make shapes ragged: deep skinny spines next to
    // wide flat bushes out of the same spec.
    if (depth == 0 || (may_leaf && rng_.below(100) < 15)) return leaf();

    const std::size_t k = 2 + rng_.below(spec_.fan - 1);
    std::vector<Sub> ch;
    ch.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
      ch.push_back(build(depth - 1, /*may_leaf=*/true));

    double size = 0.0;
    std::vector<NodeId> ids;
    ids.reserve(k);
    for (const Sub& c : ch) {
      size += c.size;
      ids.push_back(c.id);
    }

    if (rng_.below(100) < 40) {  // series composition
      for (std::size_t i = 0; i + 1 < k; ++i)
        mem_.link(t_, ids[i], ids[i + 1]);
      return {t_.seq(std::move(ids), size, ""), size};
    }
    if (rng_.below(100) < spec_.cross)  // parallel with cross-edges
      return fire_group(ch, size);
    return {t_.par(std::move(ids), size, ""), size};  // plain parallel
  }

  /// Realizes sampled left-to-right sibling dependences: the children are
  /// split into a left and a right group and joined by a fresh fire type
  /// whose rules map random (legal, tree-walked) pedigrees of the left
  /// group onto pedigrees of the right group with a FULL inner type. Left
  /// group before right group keeps every sampled edge acyclic by
  /// construction.
  Sub fire_group(const std::vector<Sub>& ch, double size) {
    const std::size_t k = ch.size();
    const std::size_t split = 1 + rng_.below(k - 1);
    const Sub left = wrap(ch, 0, split);
    const Sub right = wrap(ch, split, k);

    std::string name = "X";
    name += std::to_string(next_type_++);
    const FireType type = t_.rules().add_type(std::move(name));
    const std::size_t nrules = 1 + rng_.below(3);
    for (std::size_t r = 0; r < nrules; ++r) {
      auto [src_ped, src_node] = random_walk(left.id);
      auto [dst_ped, dst_node] = random_walk(right.id);
      t_.rules().add_rule(type, Pedigree(std::move(src_ped)),
                          FireRules::kFull, Pedigree(std::move(dst_ped)));
      // Footprint mirror of this rule's realized ordering (duplicate
      // sampled rules just add a second, equally ordered segment).
      mem_.link(t_, src_node, dst_node);
    }
    return {t_.fire(type, left.id, right.id, size, ""), size};
  }

  /// par() of ch[lo..hi), or the child itself when the range is one wide.
  Sub wrap(const std::vector<Sub>& ch, std::size_t lo, std::size_t hi) {
    if (hi - lo == 1) return ch[lo];
    double size = 0.0;
    std::vector<NodeId> ids;
    ids.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      size += ch[i].size;
      ids.push_back(ch[i].id);
    }
    return {t_.par(std::move(ids), size, ""), size};
  }

  /// Random downward walk from `from`, at most 4 levels, geometrically
  /// distributed depth. Indices are sampled against the real child counts,
  /// so every produced pedigree is in range for the DRS's descend().
  std::pair<std::vector<std::uint16_t>, NodeId> random_walk(NodeId from) {
    std::vector<std::uint16_t> ped;
    NodeId cur = from;
    while (!t_.is_strand(cur) && ped.size() < 4 && rng_.below(100) < 60) {
      const std::span<const NodeId> kids = t_.children(cur);
      const std::size_t ix = 1 + rng_.below(kids.size());
      ped.push_back(static_cast<std::uint16_t>(ix));
      cur = kids[ix - 1];
    }
    return {std::move(ped), cur};
  }

  SpawnTree& t_;
  const GenSpec& spec_;
  Rng rng_;
  SyntheticMem mem_;
  int next_type_ = 0;
};

}  // namespace

SpawnTree make_random_sp_tree(const GenSpec& spec) {
  NDF_CHECK_MSG(spec.family == "sp",
                "make_random_sp_tree got family '" << spec.family << "'");
  NDF_CHECK_MSG(spec.depth >= 1 && spec.depth <= 12,
                "gen sp needs depth in [1, 12], got " << spec.depth);
  NDF_CHECK_MSG(spec.fan >= 2 && spec.fan <= 32,
                "gen sp needs fan in [2, 32], got " << spec.fan);
  NDF_CHECK_MSG(spec.work >= 1, "gen sp needs work >= 1");
  NDF_CHECK_MSG(spec.cross <= 100, "gen sp needs cross in [0, 100] (%), got "
                                       << spec.cross);
  // Worst case the tree is a full fan-ary tree of the given depth.
  NDF_CHECK_MSG(std::pow(double(spec.fan), double(spec.depth)) <= 500000.0,
                "gen sp spec too large (fan^depth > 500000): depth="
                    << spec.depth << ", fan=" << spec.fan);

  SpawnTree t;
  SpBuilder b(t, spec);
  t.set_root(b.build_root());
  return t;
}

}  // namespace ndf::gen
