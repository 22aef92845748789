// Synthetic nested-dataflow workload generator.
//
// Synthesizes *legal* ND spawn trees far outside the paper's eight
// hand-transcribed kernels, so the sweep engine can probe sb/ws/greedy on
// deep skinny trees, wide flat trees, dataflow-heavy wavefronts and
// adversarial fan-outs. Two kinds of families:
//
//  * `sp` — seeded random series-parallel spawn trees (support/rng
//    SplitMix64 → xoshiro256**, so every graph is a pure function of the
//    spec) decorated with randomly sampled left-to-right sibling dataflow
//    cross-edges, realized as generated fire-rule tables whose pedigrees
//    are walked on the real tree (always in range, always acyclic);
//  * `chain`, `forkjoin`, `diamond`, `wavefront` — deterministic
//    structured shapes that hit known scheduler corner cases
//    (families.hpp).
//
// Every generated strand carries a synthetic footprint (counter-based
// fake addresses, never real pointers — bit-identical across processes)
// mirroring the generated dependences, so analysis/determinacy is a real
// oracle: it verifies the DRS elaboration realizes every sampled
// dependence as an ordering. check_generated() bundles that rejection
// check with nd/validate and acyclicity.
//
// Spec strings are first-class workloads in src/exp/workload:
//
//   gen:family=sp,depth=8,fan=4,seed=7
//   gen:family=wavefront,n=32
//
// Labels round-trip: only keys the family accepts, and only values that
// differ from the defaults, are printed, in a fixed order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nd/spawn_tree.hpp"
#include "support/spec.hpp"

namespace ndf::gen {

/// Parameters of one generated workload. Which keys apply depends on the
/// family; parse_gen_params rejects the rest loudly.
struct GenSpec {
  std::string family = "sp";
  std::size_t n = 16;        ///< chain length / wavefront side
  std::size_t depth = 6;     ///< sp recursion depth / forkjoin+diamond stages
  std::size_t fan = 3;       ///< max children (sp) / width per stage
  std::size_t work = 64;     ///< mean strand work (and footprint words)
  std::size_t cross = 30;    ///< sp: % chance a par group grows cross-edges
  std::uint64_t seed = 1;    ///< sp: generator seed

  /// Canonical spec string ("gen:family=sp,depth=8,fan=4,seed=7");
  /// parse_gen_params(label()) reproduces the spec exactly.
  std::string label() const;

  /// Field-wise; equal specs have equal labels.
  bool operator==(const GenSpec&) const = default;
};

struct FamilyInfo {
  std::string name;
  std::string description;
  std::string keys;  ///< accepted keys with their defaults, for --list
};

/// All families, sorted by name.
std::vector<FamilyInfo> registered_families();

/// True when a registered family accepts spec key `key` ("n", "depth",
/// ...); false for unknown families. The workload layer uses this to
/// surface applicable gen parameters in its own columns.
bool family_accepts(const std::string& family, const std::string& key);

/// Reads the items of a parsed "gen:" spec (np belongs to the workload
/// parser and is skipped here). Throws CheckError on unknown families
/// (listing the registered ones), keys a family does not accept (listing
/// the accepted ones), or malformed values, naming the full spec.
GenSpec parse_gen_params(const spec::Params& params);

/// Builds the spawn tree of a spec. Validates parameter ranges loudly
/// (also when a spec was constructed past the parser) and runs the
/// fire-rule rejection check (nd/validate) on the generated table.
SpawnTree generate(const GenSpec& spec);

/// Legality report of a generated (or any) spawn tree: the rule table is
/// validated, the tree elaborated, the DAG checked for acyclicity, and
/// every declared-footprint conflict checked for an ordering path.
struct GenReport {
  std::size_t rule_issues = 0;
  bool acyclic = false;
  bool determinate = false;
  std::size_t conflicting_pairs = 0;  ///< footprint pairs needing an order
  std::string message;                ///< first problem, if any

  bool ok() const { return rule_issues == 0 && acyclic && determinate; }
};

GenReport check_generated(const SpawnTree& tree, bool np_mode = false);

}  // namespace ndf::gen
