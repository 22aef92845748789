// Consolidated sweep emitters: one stdout table, one JSON document (the
// trajectory artifact CI validates and uploads, `ndf_sweep --preset=smoke
// --json=...`) and one CSV (for spreadsheets/pandas), however many axes
// the scenario swept. All three render one record per run point
// (exp/report.cpp, the column list docs/metrics.md maps) through
// support/report.hpp.
#pragma once

#include <iosfwd>

#include "exp/scenario.hpp"
#include "support/table.hpp"

namespace ndf::exp {

/// One row per run point, miss columns padded to the deepest machine.
/// Sweeps that simulated occupancy (Scenario::measure_misses) also get
/// `comm_cost` and measured `Q_L<i>` columns.
Table results_table(const std::string& title,
                    const std::vector<RunPoint>& runs);

/// {"sweep": <name>, "runs": [{workload, machine, policy, sigma, ...,
/// stats: {...}}, ...]} with round-trippable doubles. Only measured runs
/// carry "comm_cost" and "measured_misses" in their stats.
void write_sweep_json(std::ostream& os, const std::string& name,
                      const std::vector<RunPoint>& runs);

/// A header row plus one row per run point, columns as in the table.
void write_sweep_csv(std::ostream& os, const std::vector<RunPoint>& runs);

}  // namespace ndf::exp
