#include "serve/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "support/rng.hpp"

namespace ndf::serve {

namespace {

double parse_double(const std::string& spec, const std::string& key,
                    const std::string& val) {
  char* end = nullptr;
  const double v = std::strtod(val.c_str(), &end);
  NDF_CHECK_MSG(end && *end == '\0' && !val.empty() && std::isfinite(v),
                "arrival parameter '" << key << "' in '" << spec
                                      << "' is not a finite number: " << val);
  return v;
}

std::size_t parse_count(const std::string& spec, const std::string& key,
                        const std::string& val) {
  char* end = nullptr;
  const long long v = std::strtoll(val.c_str(), &end, 10);
  NDF_CHECK_MSG(end && *end == '\0' && !val.empty() && v > 0,
                "arrival parameter '" << key << "' in '" << spec
                                      << "' is not a positive integer: "
                                      << val);
  return std::size_t(v);
}

}  // namespace

std::string ArrivalSpec::label() const {
  std::ostringstream os;
  if (kind == "poisson") {
    os << "poisson:rate=" << rate << ",jobs=" << jobs;
    if (tenants != 1) os << ",tenants=" << tenants;
    if (deadline != 0.0) os << ",deadline=" << deadline;
    if (seed != 42) os << ",seed=" << seed;
  } else {
    os << "closed:clients=" << clients << ",jobs=" << jobs;
    if (think != 0.0) os << ",think=" << think;
    if (deadline != 0.0) os << ",deadline=" << deadline;
  }
  return os.str();
}

ArrivalSpec parse_arrivals(const std::string& spec) {
  ArrivalSpec a;
  const auto colon = spec.find(':');
  a.kind = spec.substr(0, colon);
  NDF_CHECK_MSG(a.kind == "poisson" || a.kind == "closed",
                "unknown arrival kind '" << a.kind << "' in '" << spec
                                         << "' (valid: poisson, closed)");

  // Same parameter discipline as workload/gen specs: duplicates and
  // unknown keys are loud, and the full offending spec is always named.
  std::set<std::string> seen;
  bool have_rate = false, have_jobs = false, have_clients = false;
  if (colon != std::string::npos) {
    std::stringstream ss(spec.substr(colon + 1));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      const auto eq = item.find('=');
      NDF_CHECK_MSG(eq != std::string::npos && eq > 0,
                    "bad arrival parameter '" << item << "' in '" << spec
                                              << "' (want key=value)");
      const std::string key = item.substr(0, eq);
      const std::string val = item.substr(eq + 1);
      NDF_CHECK_MSG(seen.insert(key).second,
                    "duplicate arrival parameter '" << key << "' in '" << spec
                                                    << "'");
      if (key == "jobs") {
        a.jobs = parse_count(spec, key, val);
        have_jobs = true;
      } else if (key == "deadline") {
        a.deadline = parse_double(spec, key, val);
        NDF_CHECK_MSG(a.deadline >= 0.0, "arrival parameter 'deadline' in '"
                                             << spec << "' must be >= 0");
      } else if (a.kind == "poisson" && key == "rate") {
        a.rate = parse_double(spec, key, val);
        NDF_CHECK_MSG(a.rate > 0.0, "arrival parameter 'rate' in '"
                                        << spec << "' must be > 0");
        have_rate = true;
      } else if (a.kind == "poisson" && key == "tenants") {
        a.tenants = parse_count(spec, key, val);
      } else if (a.kind == "poisson" && key == "seed") {
        a.seed = std::uint64_t(parse_count(spec, key, val));
      } else if (a.kind == "closed" && key == "clients") {
        a.clients = parse_count(spec, key, val);
        have_clients = true;
      } else if (a.kind == "closed" && key == "think") {
        a.think = parse_double(spec, key, val);
        NDF_CHECK_MSG(a.think >= 0.0, "arrival parameter 'think' in '"
                                          << spec << "' must be >= 0");
      } else {
        NDF_CHECK_MSG(false,
                      "unknown arrival parameter '"
                          << key << "' in '" << spec << "' (valid for "
                          << a.kind << ": "
                          << (a.kind == "poisson"
                                  ? "rate, jobs, tenants, deadline, seed"
                                  : "clients, jobs, think, deadline")
                          << ")");
      }
    }
  }
  NDF_CHECK_MSG(have_jobs,
                "arrival spec '" << spec << "' needs jobs=<count>");
  if (a.kind == "poisson")
    NDF_CHECK_MSG(have_rate,
                  "arrival spec '" << spec << "' needs rate=<arrivals/time>");
  else
    NDF_CHECK_MSG(have_clients,
                  "arrival spec '" << spec << "' needs clients=<count>");
  return a;
}

std::vector<JobSpec> parse_trace(std::istream& in,
                                 const std::string& origin) {
  std::vector<JobSpec> jobs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string arrival_tok;
    if (!(ls >> arrival_tok) || arrival_tok[0] == '#') continue;

    JobSpec j;
    j.index = jobs.size();
    char* end = nullptr;
    j.arrival = std::strtod(arrival_tok.c_str(), &end);
    NDF_CHECK_MSG(end && *end == '\0' && std::isfinite(j.arrival) &&
                      j.arrival >= 0.0,
                  "trace " << origin << ":" << lineno
                           << ": arrival time is not a finite number >= 0: '"
                           << arrival_tok << "' in line '" << line << "'");

    std::string spec_tok;
    NDF_CHECK_MSG(bool(ls >> j.tenant) && bool(ls >> spec_tok),
                  "trace " << origin << ":" << lineno
                           << ": want '<arrival> <tenant> <workload-spec> "
                              "[deadline=<t>]', got '"
                           << line << "'");
    try {
      j.workload = exp::parse_workload(spec_tok);
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
      const std::string val = extra.substr(9);
      j.deadline = std::strtod(val.c_str(), &end);
      NDF_CHECK_MSG(end && *end == '\0' && !val.empty() &&
                        std::isfinite(j.deadline) && j.deadline >= j.arrival,
                    "trace " << origin << ":" << lineno
                             << ": deadline must be a finite number >= the "
                                "arrival time, got '"
                             << extra << "' in line '" << line << "'");
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
    j.tenant = "t";
    j.tenant += std::to_string(i % spec.tenants);
    j.workload = mix[i % mix.size()];
    j.arrival = t;
    if (spec.deadline > 0.0) j.deadline = t + spec.deadline;
    jobs.push_back(std::move(j));
  }
  return jobs;
}

}  // namespace ndf::serve
