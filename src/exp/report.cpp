#include "exp/report.hpp"

#include <iomanip>
#include <limits>
#include <ostream>

#include "support/report.hpp"

namespace ndf::exp {

namespace {

using report::Field;
using report::Record;

/// Every column and key of a run point, in table, CSV and JSON order.
Record run_record(const RunPoint& r) {
  const SchedStats& s = r.stats;
  // Measured occupancy columns and keys exist only for runs that simulated
  // it: a sweep without --misses emits exactly the legacy outputs.
  const bool measured = !s.measured_misses.empty();
  const std::span<const double> misses(s.misses);
  return {
      {"workload", "workload", "workload", r.workload.label()},
      {"", "algo", "algo", r.workload.algo},
      {"", "n", "n", std::uint64_t(r.workload.n)},
      {"", "base", "base", std::uint64_t(r.workload.base)},
      {"", "np", "np", r.workload.np},
      {"machine", "machine", "machine", r.machine},
      {"", "", "machine_desc", r.machine_desc},
      {"policy", "policy", "policy", r.policy},
      // Shown under a non-default model only, so all-default outputs keep
      // the pre-registry shape; once shown, every row names its model.
      {"cache", "cache", "cache", r.cache.label(), "", !r.cache.is_default()},
      {"sigma", "sigma", "sigma", r.sigma},
      {"alpha'", "alpha_prime", "alpha_prime", r.alpha_prime},
      {"rep", "repeat", "repeat", std::uint64_t(r.repeat)},
      {"", "seed", "seed", r.seed},
      {"makespan", "makespan", "makespan", s.makespan, "stats"},
      {"", "total_work", "total_work", s.total_work, "stats"},
      {"miss_cost", "miss_cost", "miss_cost", s.miss_cost, "stats"},
      {"util", "utilization", "utilization", s.utilization, "stats"},
      {"", "atomic_units", "atomic_units", std::uint64_t(s.atomic_units),
       "stats"},
      // The table lists the model's misses before anchors and steals.
      {"misses_L", "", "", misses},
      {"anchors", "anchors", "anchors", std::uint64_t(s.anchors), "stats"},
      {"steals", "steals", "steals", std::uint64_t(s.steals), "stats"},
      {"", "misses_l", "misses", misses, "stats"},
      {"comm_cost", "comm_cost", "comm_cost",
       report::value_if(measured, s.comm_cost), "stats", measured},
      {"Q_L", "q_l", "measured_misses",
       std::span<const double>(s.measured_misses), "stats", measured},
      // Write-back and contention only when the model billed them.
      {"WB_L", "wb_l", "measured_writebacks",
       std::span<const double>(s.measured_writebacks),
       "stats", measured && !s.measured_writebacks.empty()},
      {"", "", "contention_cost", s.contention_cost, "stats",
       measured && r.cache.bw > 0.0},
  };
}

/// Shapes the columns of an empty result set: a legacy sweep's header.
const RunPoint blank_run;

}  // namespace

Table results_table(const std::string& title,
                    const std::vector<RunPoint>& runs) {
  std::vector<Record> rows;
  for (const RunPoint& r : runs) rows.push_back(run_record(r));
  return report::Columns(&Field::table, run_record(blank_run))
      .table(title, rows);
}

void write_sweep_json(std::ostream& os, const std::string& name,
                      const std::vector<RunPoint>& runs) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"sweep\": \"" << report::json_escape(name)
     << "\",\n  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    os << (i ? ",\n" : "\n") << "    {";
    report::write_json_fields(os, run_record(runs[i]));
    os << "}";
  }
  os << "\n  ]\n}\n";
}

void write_sweep_csv(std::ostream& os, const std::vector<RunPoint>& runs) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  report::Columns cols(&Field::csv, run_record(blank_run));
  for (const RunPoint& r : runs) cols.fit(run_record(r));
  cols.write_csv_header(os);
  for (const RunPoint& r : runs) cols.write_csv_row(os, run_record(r));
}

}  // namespace ndf::exp
