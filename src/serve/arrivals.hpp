// Job streams for the open-arrivals service mode (src/serve/): the input
// side of "a stream of DAG jobs from many tenants competing for one PMH
// machine". A stream is either
//
//   - a *trace*: one job per line,
//
//       <arrival> <tenant> <workload-spec> [deadline=<t>]
//
//     where <workload-spec> is any registry or gen: spec the sweep
//     subsystem accepts (exp/workload.hpp), <arrival> is the absolute
//     simulated submit time, and deadline=<t> is an optional absolute
//     completion deadline. Blank lines and `#` comments are skipped.
//     Malformed lines fail loudly naming the file, line number and the
//     offending text verbatim.
//
//   - a seeded *distribution*, parsed from an `--arrivals=` spec:
//
//       poisson:rate=<r>,jobs=<k>[,tenants=<n>][,deadline=<d>][,seed=<s>]
//       closed:clients=<n>,jobs=<k>[,think=<t>][,deadline=<d>]
//
//     `poisson` draws k exponential interarrivals at mean rate r and deals
//     workloads/tenants round-robin over the mix — an open system. `closed`
//     is a closed loop: n clients (one tenant each) submit their next job
//     `think` time units after their previous one completes, k jobs per
//     client; its arrivals depend on service times, so the serve engine
//     generates them during simulation. `deadline` is relative to submit
//     time (0 = none). `jobs`, and clients × jobs, are at most 2^20.
//     README's "Spec grammar" (support/spec.hpp) gives the number rules.
//
// Everything here is deterministic: a trace is explicit, a poisson stream
// is a pure function of (spec, mix), and tie-breaks downstream use the
// submission index carried by every JobSpec.
//
// Memory layout: a stream of 2^20 jobs is copied into one JobRecord per
// job and cell, so a JobSpec carries its workload as an exp::WorkloadRef
// (8 bytes, exp/workload.hpp) rather than a full 144-byte WorkloadSpec:
// a JobSpec is 64 bytes on LP64 and a JobRecord (serve/engine.hpp) 144.
// The parsers intern each distinct spec once. Interned specs live for the
// whole process, so records stay valid after the sweep that made them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "exp/workload.hpp"

namespace ndf::serve {

/// One DAG job in a service stream.
struct JobSpec {
  std::size_t index = 0;  ///< submission index; the deterministic tie-break
  std::string tenant;     ///< tenant id ("t0"... or the trace's name)
  exp::WorkloadRef workload;  ///< interned spec (see the file comment)
  double arrival = 0.0;   ///< absolute simulated submit time
  /// Absolute completion deadline; +inf = none.
  double deadline = std::numeric_limits<double>::infinity();

  bool has_deadline() const {
    return deadline < std::numeric_limits<double>::infinity();
  }
};

/// A parsed `--arrivals=` spec (grammar above).
struct ArrivalSpec {
  std::string kind;         ///< "poisson" or "closed"
  double rate = 0.0;        ///< poisson: mean arrivals per unit time
  std::size_t jobs = 0;     ///< poisson: total jobs; closed: jobs per client
  std::size_t tenants = 1;  ///< poisson: tenant count (round-robin)
  std::size_t clients = 1;  ///< closed: concurrent clients (= tenants)
  double think = 0.0;       ///< closed: delay between completion and resubmit
  double deadline = 0.0;    ///< relative completion deadline; 0 = none
  std::uint64_t seed = 42;  ///< poisson: interarrival seed

  /// Canonical spec string (defaults omitted); round-trips through
  /// parse_arrivals.
  std::string label() const;

  bool operator==(const ArrivalSpec&) const = default;
};

/// Parses an `--arrivals=` spec; throws CheckError on unknown kinds or
/// keys, duplicates, and out-of-range values, always naming the full spec.
ArrivalSpec parse_arrivals(const std::string& spec);

/// Parses a trace (grammar above); `origin` names the source in errors.
/// Jobs come back sorted by (arrival, input order) with `index` = input
/// order, ready for the serve engine.
std::vector<JobSpec> parse_trace(std::istream& in, const std::string& origin);

/// Opens and parses a trace file; throws CheckError if unreadable.
std::vector<JobSpec> load_trace(const std::string& path);

/// Expands a `poisson:` spec over a workload mix into a concrete job list
/// (sorted by arrival; workloads and tenants dealt round-robin). Throws
/// CheckError for a closed spec — closed-loop arrivals depend on service
/// times and are generated by the engine during simulation.
std::vector<JobSpec> expand_open_arrivals(
    const ArrivalSpec& spec, const std::vector<exp::WorkloadSpec>& mix);

}  // namespace ndf::serve
