// Named machine presets and a spec parser, so sweeps and benches select
// PMHs by string the way they select policies by string:
//
//   "flat16"                          — a named preset (see pmh_presets())
//   "flat:p=16,m1=768,c1=10"          — parametric flat machine
//   "twotier:s=4,c=4,m1=192,m2=3072,c1=3,c2=30"
//                                     — parametric two-tier machine
//
// Unknown preset names and keys fail loudly, listing what exists; the
// grammar is README's "Spec grammar" (support/spec.hpp).
#pragma once

#include <string>
#include <vector>

#include "pmh/machine.hpp"

namespace ndf {

struct PmhPresetInfo {
  std::string name;
  std::string description;
};

/// All named presets, sorted by name.
std::vector<PmhPresetInfo> pmh_presets();

/// Parses a machine spec (named preset or parametric form) into a config.
/// Throws CheckError on unknown names/keys, listing the valid ones.
PmhConfig parse_pmh(const std::string& spec);

/// parse_pmh + construction.
Pmh make_pmh(const std::string& spec);

}  // namespace ndf
