#include "pmh/presets.hpp"

#include <cstdint>
#include <map>

#include "support/spec.hpp"

namespace ndf {

namespace {

struct Preset {
  std::string description;
  PmhConfig config;
};

// The machines the experiment suite compares on. Sizes follow the benches:
// 3·b² words holds three b×b blocks (the MM working set at base b).
const std::map<std::string, Preset>& presets() {
  static const std::map<std::string, Preset> t = {
      {"flat8", {"8 processors, private 768-word caches, C=10",
                 PmhConfig::flat(8, 768, 10)}},
      {"flat16", {"16 processors, private 768-word caches, C=10",
                  PmhConfig::flat(16, 768, 10)}},
      {"flat64", {"64 processors, private 768-word caches, C=10",
                  PmhConfig::flat(64, 768, 10)}},
      {"deep2x4", {"2 sockets x 4 cores, 192-word L1 (C=3), 3072-word L2 "
                   "(C=30)",
                   PmhConfig::two_tier(2, 4, 192, 3072, 3, 30)}},
      {"deep4x4", {"4 sockets x 4 cores, 192-word L1 (C=3), 3072-word L2 "
                   "(C=30)",
                   PmhConfig::two_tier(4, 4, 192, 3072, 3, 30)}},
  };
  return t;
}

std::string preset_names() { return spec::names(presets()); }

}  // namespace

std::vector<PmhPresetInfo> pmh_presets() {
  std::vector<PmhPresetInfo> out;
  for (const auto& [name, p] : presets()) out.push_back({name, p.description});
  return out;  // std::map iterates sorted by name
}

PmhConfig parse_pmh(const std::string& spec) {
  const spec::Params p(spec, "machine");
  if (!p.parametric()) {
    const auto it = presets().find(spec);
    NDF_CHECK_MSG(it != presets().end(),
                  "unknown machine preset '"
                      << spec << "' (presets: " << preset_names()
                      << "; parametric: flat:p=,m1=,c1= or "
                         "twotier:s=,c=,m1=,m2=,c1=,c2=)");
    return it->second.config;
  }
  // Counts are capped at 2^30, and the machine's processors plus caches
  // at 2^17 in total: the simulator allocates state per processor and per
  // cache, so the products must be bounded, not each count (65,536
  // processors already take seconds per run). Cache sizes must be
  // positive (σM = 0 degenerates the decomposition) and miss costs
  // non-negative.
  constexpr std::uint64_t kMaxCount = 1 << 30;
  const auto check_units = [&](std::uint64_t procs, std::uint64_t caches) {
    NDF_CHECK_MSG(procs + caches <= (1 << 17),
                  "machine '" << spec << "' has " << procs
                              << " processors and " << caches
                              << " caches, more than 2^17 in total");
  };
  if (p.head() == "flat") {
    p.allow({"p", "m1", "c1"});
    const std::size_t procs = p.integer("p", 8, 1, kMaxCount);
    check_units(procs, procs);
    const double m1 = p.real("m1", 768, true);
    return PmhConfig::flat(procs, m1, p.real("c1", 10));
  }
  if (p.head() == "twotier") {
    p.allow({"s", "c", "m1", "m2", "c1", "c2"});
    const std::size_t sockets = p.integer("s", 2, 1, kMaxCount);
    const std::size_t cores = p.integer("c", 4, 1, kMaxCount);
    check_units(sockets * cores, sockets * cores + sockets);
    const double m1 = p.real("m1", 192, true);
    const double m2 = p.real("m2", 3072, true);
    const double c1 = p.real("c1", 3);
    return PmhConfig::two_tier(sockets, cores, m1, m2, c1, p.real("c2", 30));
  }
  NDF_CHECK_MSG(false, "unknown machine family '"
                           << p.head() << "' in '" << spec
                           << "' (families: flat, twotier; presets: "
                           << preset_names() << ")");
  return {};  // unreachable
}

Pmh make_pmh(const std::string& spec) { return Pmh(parse_pmh(spec)); }

}  // namespace ndf
