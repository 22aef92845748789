// Named grids for `ndf_sweep --preset=<name>`, in one table that --list
// and the unknown-name error read too:
//   smoke, stress   a Scenario that ndf_sweep's axis flags override,
//                   printed as the consolidated sweep table;
//   sb_bounds (E7), sb_scaling (E8), sb_vs_ws (E9), ablation (EA)
//                   a paper claim: its heading, Scenario blocks each printed
//                   through a table view over its runs, and the expected
//                   shape. They read only the policies, --misses and --jobs.
#pragma once

#include <functional>
#include <iosfwd>

#include "exp/scenario.hpp"
#include "support/table.hpp"

namespace ndf::exp {

/// One scenario of a paper preset and the table its runs print as.
struct PresetBlock {
  Scenario scenario;
  std::function<Table(const std::vector<RunPoint>&)> view;
};

struct Preset {
  std::string name;
  std::string description;  ///< one line for --list; a paper's heading
  Scenario (*grid)() = nullptr;  ///< grid presets only
  // Paper presets: the claim, the default --sched list (one_policy: it
  // must name exactly one; else the first is the ratio baseline), the
  // blocks for a policy list and --misses, and the expected shape.
  std::string claim{}, sched{};
  bool one_policy = true;
  std::vector<PresetBlock> (*blocks)(const std::vector<std::string>&,
                                     bool misses) = nullptr;
  std::string expected{};
};

/// Every preset, grid presets first.
const std::vector<Preset>& presets();

/// Throws CheckError naming every preset when `name` is none of them.
const Preset& find_preset(const std::string& name);

/// Prints a paper preset's heading, each block's table and the expected
/// shape to `os` (identical at every `jobs`), and returns every block's
/// runs in block order. Throws CheckError if `policies` does not fit it.
std::vector<RunPoint> run_preset(const Preset& p,
                                 const std::vector<std::string>& policies,
                                 bool misses, std::size_t jobs,
                                 std::ostream& os);

}  // namespace ndf::exp
