// Shared helpers for the experiment harness binaries. Every bench prints
// the series the paper's corresponding claim describes (README.md's "Bench
// driver flag reference" lists every driver and its flags) plus a fitted
// growth exponent where the claim is asymptotic. The scheduling claims
// E7-E9 and the σ/α' ablations are ndf_sweep presets (src/exp/presets.hpp).
//
// Passing `--json=<path>` to any bench that routes its tables through
// bench::Output mirrors every table into a machine-readable JSON file
// (e.g. `bench_trace --json=BENCH_trace.json`) for the perf trajectory; a
// mirror that cannot be written exits 2 like any other bad input.
//
// Every driver's main() goes through bench::run_main, so a bad flag or a
// bad spec exits 2 with one `<driver>: <message>` line on stderr.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/workload.hpp"
#include "nd/dot.hpp"
#include "sched/registry.hpp"
#include "support/args.hpp"
#include "support/check.hpp"
#include "support/fit.hpp"
#include "support/report.hpp"
#include "support/spec.hpp"
#include "support/table.hpp"

namespace ndf::bench {

// The drivers' main() wrapper and flag check live in support/args.hpp so
// the examples share them.
using ::ndf::reject_unknown_flags;
using ::ndf::run_main;

/// `--sched=<name>` for benches that run exactly one policy; validated
/// against the registry (the error lists the registered names).
inline std::string single_policy(const Args& args, const std::string& dflt) {
  const auto list = parse_sched_list(args.get("sched", dflt));
  NDF_CHECK_MSG(list.size() == 1,
                "--sched expects exactly one policy here, got "
                    << list.size());
  return list[0];
}

/// `--jobs=<n>` for benches that execute sweeps: 0 (the default) means one
/// worker per hardware thread, 1 runs on the calling thread. Output is
/// byte-identical at every value, so this only changes wall-clock time.
inline std::size_t jobs_flag(const Args& args) {
  const long long jobs = args.get("jobs", 0LL);
  NDF_CHECK_MSG(jobs >= 0, "--jobs must be >= 0 (0 = hardware concurrency), "
                               << "got " << jobs);
  return std::size_t(jobs);
}

/// `--misses` for drivers that execute sweeps: simulate LRU cache
/// occupancy and grow the emitters' measured-Q columns. Off by default so
/// legacy stdout/JSON/CSV stay byte-identical (see docs/metrics.md).
inline bool misses_flag(const Args& args) {
  return args.get("misses", false);
}

/// Comma-separated reals for an axis flag (`--sigma=0.2,0.33`).
inline std::vector<double> parse_double_list(const std::string& csv,
                                             const std::string& flag) {
  std::vector<double> out;
  for (const std::string& item : spec::split(csv, ',')) {
    const std::optional<double> v = spec::to_real(item);
    NDF_CHECK_MSG(v, "--" << flag << " entry is not a finite number: "
                          << item);
    out.push_back(*v);
  }
  NDF_CHECK_MSG(!out.empty(), "--" << flag << " list is empty");
  return out;
}

inline void heading(const std::string& id, const std::string& claim) {
  print_heading(std::cout, id, claim);
}

/// `--dump-dot=<path>` for drivers that take workload specs: writes the
/// strand DAG of `first` (generated or named, via nd/dot) so it can be
/// eyeballed, and says where it went. No-op when the flag is absent.
inline void dump_dot_flag(const Args& args, const exp::WorkloadSpec& first) {
  const std::string path = args.get("dump-dot", std::string());
  if (path.empty()) return;
  const exp::Workload w(first);
  std::ofstream os(path);
  NDF_CHECK_MSG(bool(os), "cannot write --dump-dot=" << path);
  os << to_dot(w.graph());
  std::cout << "wrote strand DAG of " << w.spec().label() << " to " << path
            << "\n";
}

/// `--<flag>=<path>` output: writes the file with `emit(stream)` when the
/// flag was given. A path that cannot be opened or fully written throws,
/// so the driver exits 2 rather than leave a silently truncated file.
template <class Emit>
void write_flag_file(const Args& args, const std::string& flag, Emit emit) {
  const std::string path = args.get(flag, std::string());
  if (path.empty()) return;
  std::ofstream os(path);
  NDF_CHECK_MSG(bool(os), "cannot write --" << flag << "=" << path);
  emit(os);
  os.close();
  NDF_CHECK_MSG(!os.fail(), "failed writing --" << flag << "=" << path);
}

inline void print_fit(const std::string& label, std::vector<double> xs,
                      std::vector<double> ys) {
  const auto f = ndf::fit_loglog(xs, ys);
  std::cout << label << ": fitted exponent " << f.slope << " (r2 " << f.r2
            << ")\n";
}

namespace detail {

inline void write_cell(std::ostream& os, const Cell& cell) {
  if (const auto* s = std::get_if<std::string>(&cell))
    os << '"' << report::json_escape(*s) << '"';
  else if (const auto* i = std::get_if<long long>(&cell))
    os << *i;
  else
    report::write_number(os, std::get<double>(cell));
}

}  // namespace detail

/// Routes bench tables to stdout and, when `--json=<path>` was given,
/// mirrors them into a JSON file when the driver calls write_json():
///   {"bench": "<id>", "tables": [{"title", "header", "rows"}, ...]}
/// The write goes through write_flag_file, so a path that cannot be opened
/// or fully written makes the driver exit 2 (run_main).
class Output {
 public:
  Output(std::string bench_id, const Args& args)
      : id_(std::move(bench_id)), args_(args) {}

  Output(const Output&) = delete;
  Output& operator=(const Output&) = delete;

  /// Prints the table and records it for the JSON mirror.
  void emit(const Table& t) {
    t.print(std::cout);
    if (args_.has("json")) tables_.push_back(t);
  }

  /// Writes the JSON mirror of every emitted table (no-op without
  /// `--json`). Call it once, after the last emit().
  void write_json() const {
    write_flag_file(args_, "json", [&](std::ostream& os) {
      // Round-trippable doubles — the whole point of the JSON mirror.
      os << std::setprecision(std::numeric_limits<double>::max_digits10);
      os << "{\n  \"bench\": \"" << report::json_escape(id_)
         << "\",\n  \"tables\": [";
      for (std::size_t t = 0; t < tables_.size(); ++t) {
        const Table& tab = tables_[t];
        os << (t ? ",\n" : "\n") << "    {\"title\": \""
           << report::json_escape(tab.title()) << "\", \"header\": [";
        for (std::size_t c = 0; c < tab.header().size(); ++c)
          os << (c ? ", " : "") << '"'
             << report::json_escape(tab.header()[c]) << '"';
        os << "], \"rows\": [";
        for (std::size_t r = 0; r < tab.rows().size(); ++r) {
          os << (r ? ", " : "") << '[';
          const auto& row = tab.rows()[r];
          for (std::size_t c = 0; c < row.size(); ++c) {
            if (c) os << ", ";
            detail::write_cell(os, row[c]);
          }
          os << ']';
        }
        os << "]}";
      }
      os << "\n  ]\n}\n";
    });
  }

 private:
  std::string id_;
  const Args& args_;
  std::vector<Table> tables_;
};

}  // namespace ndf::bench
