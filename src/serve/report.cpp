#include "serve/report.hpp"

#include <iomanip>
#include <limits>
#include <ostream>

#include "support/report.hpp"

namespace ndf::serve {

namespace {

using report::Field;
using report::Record;

Record operator+(Record a, const Record& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// The (machine, policy, cache, σ) a cell ran at.
Record coords(const ServeCell& c) {
  return {
      {"machine", "machine", "machine", c.machine},
      {"", "", "machine_desc", c.machine_desc},
      {"policy", "policy", "policy", c.policy},
      // Shown under a non-default model only (ServeCell's label is empty
      // for the default); once shown, every row names its model.
      {"cache", "cache", "cache", c.cache.empty() ? "lru" : c.cache, "",
       !c.cache.empty()},
      {"sigma", "sigma", "sigma", c.sigma},
  };
}

/// Measured occupancy of a summary or a job, shown only when measured.
Record measured(double comm_cost, const std::vector<double>& misses) {
  const bool on = !misses.empty();
  return {
      {"comm_cost", "comm_cost", "comm_cost", report::value_if(on, comm_cost),
       "", on},
      {"Q_L", "q_l", "measured_misses", std::span<const double>(misses), "",
       on},
  };
}

Record summary(const ServeSummary& s) {
  // The table orders fairness and tenants before the latencies, the JSON
  // after them: one table-only and one JSON-only entry each.
  return Record{
             {"jobs", "", "completed", std::uint64_t(s.completed)},
             {"horizon", "", "horizon", s.horizon},
             {"thruput", "", "throughput", s.throughput},
             {"util", "", "utilization", s.utilization},
             {"fairness", "", "", s.fairness},
             {"tenants", "", "", std::uint64_t(s.tenants)},
             {"lat_mean", "", "mean", s.latency_mean, "latency"},
             {"lat_p50", "", "p50", s.latency_p50, "latency"},
             {"lat_p99", "", "p99", s.latency_p99, "latency"},
             {"lat_p999", "", "p999", s.latency_p999, "latency"},
             {"lat_max", "", "max", s.latency_max, "latency"},
             {"", "", "tenants", std::uint64_t(s.tenants)},
             {"", "", "fairness", s.fairness},  // inf (zero share): null
             {"ddl", "", "with_deadline", std::uint64_t(s.with_deadline)},
             {"ddl_miss", "", "deadline_misses",
              std::uint64_t(s.deadline_misses)},
         } +
         measured(s.comm_cost, s.measured_misses);
}

Record job(const JobRecord& r) {
  return Record{
             {"", "job", "index", std::uint64_t(r.job.index)},
             {"", "tenant", "tenant", r.job.tenant},
             {"", "workload", "workload", r.job.workload.label()},
             {"", "arrival", "arrival", r.job.arrival},
             // No deadline: an empty CSV cell and a JSON null.
             {"", "deadline", "deadline",
              report::value_if(r.job.has_deadline(), r.job.deadline)},
             {"", "start", "start", r.start},
             {"", "completion", "completion", r.completion},
             {"", "latency", "latency", r.latency},
             {"", "service", "service", r.service},
             {"", "utilization", "utilization", r.utilization},
             {"", "deadline_met", "deadline_met", r.deadline_met},
         } +
         measured(r.comm_cost, r.measured_misses);
}

const ServeCell blank_cell;
const JobRecord blank_job;

}  // namespace

Table summary_table(const std::string& title,
                    const std::vector<ServeCell>& cells) {
  report::Columns cols(&Field::table,
                       coords(blank_cell) + summary(blank_cell.summary));
  std::vector<Record> rows;
  for (const ServeCell& c : cells) {
    rows.push_back(coords(c) + summary(c.summary));
    // Q columns reach as deep as the deepest summary or job.
    for (const JobRecord& r : c.jobs)
      cols.fit(measured(r.comm_cost, r.measured_misses));
  }
  return cols.table(title, rows);
}

void write_serve_json(std::ostream& os, const std::string& name,
                      const std::vector<ServeCell>& cells) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"serve\": \"" << report::json_escape(name)
     << "\",\n  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ServeCell& c = cells[i];
    os << (i ? ",\n" : "\n") << "    {";
    report::write_json_fields(os, coords(c));
    os << ",\n     \"summary\": {";
    report::write_json_fields(os, summary(c.summary));
    // Streaming histograms (obs/metrics.hpp): latency and queue_wait per
    // cell, alongside — not replacing — the exact percentiles above.
    os << ", \"metrics\": ";
    c.summary.metrics.write_json(os);
    os << "},\n     \"jobs\": [";
    for (std::size_t j = 0; j < c.jobs.size(); ++j) {
      os << (j ? ",\n       " : "\n       ") << "{";
      report::write_json_fields(os, job(c.jobs[j]));
      os << "}";
    }
    os << (c.jobs.empty() ? "]}" : "\n     ]}");
  }
  os << "\n  ]\n}\n";
}

void write_serve_csv(std::ostream& os, const std::vector<ServeCell>& cells) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  report::Columns cols(&Field::csv, coords(blank_cell) + job(blank_job));
  for (const ServeCell& c : cells) {
    // A cell's model and summary add columns even when it ran no job.
    cols.fit(coords(c) + summary(c.summary));
    for (const JobRecord& r : c.jobs)
      cols.fit(measured(r.comm_cost, r.measured_misses));
  }
  cols.write_csv_header(os);
  for (const ServeCell& c : cells) {
    const Record at = coords(c);
    for (const JobRecord& r : c.jobs) cols.write_csv_row(os, at + job(r));
  }
}

}  // namespace ndf::serve
