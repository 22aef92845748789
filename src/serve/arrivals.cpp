#include "serve/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "support/rng.hpp"
#include "support/spec.hpp"

namespace ndf::serve {

std::string ArrivalSpec::label() const {
  std::ostringstream os;
  if (kind == "poisson") {
    spec::write_real(os << "poisson:rate=", rate);
    os << ",jobs=" << jobs;
    if (tenants != 1) os << ",tenants=" << tenants;
    if (deadline != 0.0) spec::write_real(os << ",deadline=", deadline);
    if (seed != 42) os << ",seed=" << seed;
  } else {
    os << "closed:clients=" << clients << ",jobs=" << jobs;
    if (think != 0.0) spec::write_real(os << ",think=", think);
    if (deadline != 0.0) spec::write_real(os << ",deadline=", deadline);
  }
  return os.str();
}

ArrivalSpec parse_arrivals(const std::string& spec) {
  const spec::Params p(spec, "arrival");
  ArrivalSpec a;
  a.kind = p.head();
  NDF_CHECK_MSG(a.kind == "poisson" || a.kind == "closed",
                "unknown arrival kind '" << a.kind << "' in '" << spec
                                         << "' (valid: poisson, closed)");
  const bool poisson = a.kind == "poisson";
  if (poisson)
    p.allow({"rate", "jobs", "tenants", "deadline", "seed"});
  else
    p.allow({"clients", "jobs", "think", "deadline"});
  NDF_CHECK_MSG(p.has("jobs"),
                "arrival spec '" << spec << "' needs jobs=<count>");
  // A stream's job list is allocated up front (expand_open_arrivals) or
  // grows to clients × jobs records: cap it where memory is certain.
  constexpr std::uint64_t kMaxJobs = 1 << 20;
  a.jobs = p.integer("jobs", 0, 1, kMaxJobs);
  a.deadline = p.real("deadline", 0.0);
  if (poisson) {
    NDF_CHECK_MSG(p.has("rate"), "arrival spec '"
                                     << spec
                                     << "' needs rate=<arrivals/time>");
    a.rate = p.real("rate", 0.0, true);
    a.tenants = p.integer("tenants", 1, 1);
    a.seed = p.integer("seed", a.seed);
  } else {
    NDF_CHECK_MSG(p.has("clients"),
                  "arrival spec '" << spec << "' needs clients=<count>");
    a.clients = p.integer("clients", 1, 1, kMaxJobs);
    NDF_CHECK_MSG(a.clients * a.jobs <= kMaxJobs,
                  "arrival spec '" << spec << "' asks for clients x jobs = "
                                   << a.clients * a.jobs
                                   << " jobs, more than 2^20");
    a.think = p.real("think", 0.0);
  }
  return a;
}

std::vector<JobSpec> parse_trace(std::istream& in,
                                 const std::string& origin) {
  std::vector<JobSpec> jobs;
  // A trace repeats a few specs: each distinct spec text is parsed and
  // interned once.
  std::unordered_map<std::string, exp::WorkloadRef> by_text;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string arrival_tok;
    if (!(ls >> arrival_tok) || arrival_tok[0] == '#') continue;

    JobSpec j;
    j.index = jobs.size();
    const std::optional<double> arrival = spec::to_real(arrival_tok);
    NDF_CHECK_MSG(arrival && *arrival >= 0.0,
                  "trace " << origin << ":" << lineno
                           << ": arrival time is not a finite number >= 0: '"
                           << arrival_tok << "' in line '" << line << "'");
    j.arrival = *arrival;

    std::string spec_tok;
    NDF_CHECK_MSG(bool(ls >> j.tenant) && bool(ls >> spec_tok),
                  "trace " << origin << ":" << lineno
                           << ": want '<arrival> <tenant> <workload-spec> "
                              "[deadline=<t>]', got '"
                           << line << "'");
    try {
      auto it = by_text.find(spec_tok);
      if (it == by_text.end())
        it = by_text
                 .emplace(spec_tok, exp::intern(exp::parse_workload(spec_tok)))
                 .first;
      j.workload = it->second;
    } catch (const CheckError& e) {
      // Re-throw with the trace location; the workload parser's message
      // already names the offending spec verbatim.
      NDF_CHECK_MSG(false,
                    "trace " << origin << ":" << lineno << ": " << e.what());
    }

    std::string extra;
    while (ls >> extra) {
      NDF_CHECK_MSG(extra.rfind("deadline=", 0) == 0,
                    "trace " << origin << ":" << lineno
                             << ": unexpected token '" << extra
                             << "' in line '" << line
                             << "' (only deadline=<t> may follow the spec)");
      const std::optional<double> deadline = spec::to_real(extra.substr(9));
      NDF_CHECK_MSG(deadline && *deadline >= j.arrival,
                    "trace " << origin << ":" << lineno
                             << ": deadline must be a finite number >= the "
                                "arrival time, got '"
                             << extra << "' in line '" << line << "'");
      j.deadline = *deadline;
    }
    jobs.push_back(std::move(j));
  }
  // The engine consumes arrivals in time order; the submission index keeps
  // equal-arrival jobs in input order (the documented tie-break).
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const JobSpec& x, const JobSpec& y) {
                     return x.arrival < y.arrival;
                   });
  return jobs;
}

std::vector<JobSpec> load_trace(const std::string& path) {
  std::ifstream in(path);
  NDF_CHECK_MSG(bool(in), "cannot read trace file '" << path << "'");
  return parse_trace(in, path);
}

std::vector<JobSpec> expand_open_arrivals(
    const ArrivalSpec& spec, const std::vector<exp::WorkloadSpec>& mix) {
  NDF_CHECK_MSG(spec.kind == "poisson",
                "arrival spec '"
                    << spec.label()
                    << "' is closed-loop: its arrivals depend on service "
                       "times and are generated by the serve engine");
  NDF_CHECK_MSG(!mix.empty(), "arrival spec '"
                                  << spec.label()
                                  << "' needs a non-empty workload mix "
                                     "(--workloads=...)");
  // Workloads and tenants are dealt round-robin: each is interned or
  // named once.
  std::vector<exp::WorkloadRef> refs;
  refs.reserve(mix.size());
  for (const exp::WorkloadSpec& w : mix) refs.push_back(exp::intern(w));
  std::vector<std::string> tenants(std::min(spec.tenants, spec.jobs), "t");
  for (std::size_t t = 0; t < tenants.size(); ++t)
    tenants[t] += std::to_string(t);
  std::vector<JobSpec> jobs;
  jobs.reserve(spec.jobs);
  Rng rng(spec.seed);
  double t = 0.0;
  for (std::size_t i = 0; i < spec.jobs; ++i) {
    // Exponential interarrival at mean rate `rate`; uniform() < 1 keeps
    // the log argument positive.
    t += -std::log(1.0 - rng.uniform()) / spec.rate;
    JobSpec j;
    j.index = i;
    j.tenant = tenants[i % spec.tenants];
    j.workload = refs[i % refs.size()];
    j.arrival = t;
    if (spec.deadline > 0.0) j.deadline = t + spec.deadline;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

}  // namespace ndf::serve
