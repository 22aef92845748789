#include "exp/workload.hpp"

#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "algos/cholesky.hpp"
#include "algos/fw1d.hpp"
#include "algos/fw2d.hpp"
#include "algos/gotoh.hpp"
#include "algos/lcs.hpp"
#include "algos/lu.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "support/spec.hpp"

namespace ndf::exp {

namespace {

struct Builder {
  std::string description;
  std::size_t default_n;
  std::function<SpawnTree(std::size_t, std::size_t)> make;
};

const std::map<std::string, Builder>& builders() {
  static const std::map<std::string, Builder> t = {
      {"mm", {"blocked matrix multiply", 64, make_mm_tree}},
      {"trs", {"triangular solve", 64, make_trs_tree}},
      {"cholesky", {"Cholesky factorization", 64, make_cholesky_tree}},
      {"lu", {"LU factorization", 64, make_lu_tree}},
      {"lcs", {"longest common subsequence", 256, make_lcs_tree}},
      {"gotoh", {"Gotoh affine-gap alignment", 128, make_gotoh_tree}},
      {"fw1d", {"Floyd-Warshall, 1-D decomposition", 64, make_fw1d_tree}},
      {"fw2d", {"Floyd-Warshall, 2-D decomposition", 64, make_fw2d_tree}},
  };
  return t;
}

std::string known_workloads() { return spec::names(builders()); }

/// The process-wide intern table. Entries live in a deque, which never
/// moves an element on push_back, and are never erased. The index maps a
/// label to the entries carrying it: specs with equal fields print equal
/// labels, but a spec built past the parser can share a label with a
/// different one, so a label match is confirmed field by field.
struct InternTable {
  std::mutex mu;
  std::deque<WorkloadRef::Entry> entries;
  std::unordered_multimap<std::string, const WorkloadRef::Entry*> by_label;
  /// WorkloadSpec{}'s entry: set once, then read without the lock.
  const WorkloadRef::Entry* empty;

  InternTable() {
    const WorkloadSpec d;
    empty = &entries.emplace_back(WorkloadRef::Entry{d, d.label()});
    by_label.emplace(empty->label, empty);
  }
};

InternTable& intern_table() {
  // Leaked on purpose: handles in static-storage records must stay valid
  // through every static destructor.
  static InternTable* t = new InternTable;
  return *t;
}

}  // namespace

WorkloadRef::WorkloadRef() : entry_(intern_table().empty) {}

WorkloadRef intern(const WorkloadSpec& spec) {
  std::string label = spec.label();
  InternTable& t = intern_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  const auto [b, e] = t.by_label.equal_range(label);
  for (auto it = b; it != e; ++it)
    if (it->second->spec == spec) return WorkloadRef(it->second);
  const WorkloadRef::Entry* fresh =
      &t.entries.emplace_back(WorkloadRef::Entry{spec, std::move(label)});
  t.by_label.emplace(fresh->label, fresh);
  return WorkloadRef(fresh);
}

std::size_t interned_count() {
  InternTable& t = intern_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  return t.entries.size();
}

std::string WorkloadSpec::label() const {
  if (algo == "gen") {
    NDF_CHECK_MSG(gen, "gen workload spec has no generator parameters");
    std::string s = gen->label();
    if (np) s += ",np";
    return s;
  }
  std::ostringstream os;
  os << algo << ":n=" << n;
  if (base != 4) os << ",base=" << base;
  if (np) os << ",np";
  return os.str();
}

std::vector<WorkloadInfo> registered_workloads() {
  std::vector<WorkloadInfo> out;
  for (const auto& [name, b] : builders())
    out.push_back({name, b.description, b.default_n});
  return out;  // std::map iterates sorted by name
}

WorkloadSpec parse_workload(const std::string& spec) {
  WorkloadSpec w;
  w.algo = spec.substr(0, spec.find(':'));

  // Validate the algo name first, so a typo'd name is reported as such
  // even when its parameters are malformed too.
  const auto algo_it = builders().find(w.algo);
  NDF_CHECK_MSG(w.algo == "gen" || algo_it != builders().end(),
                "unknown workload '" << w.algo << "' in '" << spec
                                     << "' (registered: " << known_workloads()
                                     << ", or gen:family=...)");

  // `np` applies to every workload kind; the other keys are the algo's.
  const spec::Params p(spec, "workload", "np");
  w.np = p.integer("np", 0, 0, 1) == 1;
  if (w.algo == "gen") {
    w.gen = gen::parse_gen_params(p);
    // Surface the size parameter in the n column of tables/JSON/CSV for
    // families that have one (chain, wavefront); 0 means not applicable.
    if (gen::family_accepts(w.gen->family, "n")) w.n = w.gen->n;
    return w;
  }
  p.allow({"n", "base", "np"});
  w.n = p.integer("n", algo_it->second.default_n, 1);
  w.base = p.integer("base", w.base, 1);
  return w;
}

std::vector<WorkloadSpec> parse_workload_list(const std::string& specs) {
  std::vector<WorkloadSpec> out;
  for (const std::string& item : spec::split(specs, ';'))
    out.push_back(parse_workload(item));
  return out;
}

SpawnTree build_workload_tree(const WorkloadSpec& spec) {
  if (spec.algo == "gen") {
    NDF_CHECK_MSG(spec.gen, "gen workload spec has no generator parameters");
    return gen::generate(*spec.gen);
  }
  const auto it = builders().find(spec.algo);
  // Name the full spec, not just the algo key: specs injected past the
  // parser (tests, programmatic sweeps) must still be identifiable in the
  // rejection they trigger.
  NDF_CHECK_MSG(it != builders().end(),
                "unknown workload '" << spec.algo << "' in '" << spec.label()
                                     << "' (registered: " << known_workloads()
                                     << ")");
  NDF_CHECK_MSG(spec.n > 0,
                "workload spec '" << spec.label() << "' needs n > 0");
  return it->second.make(spec.n, spec.base);
}

Workload::Workload(WorkloadSpec spec)
    : spec_(std::move(spec)),
      tree_(std::make_unique<SpawnTree>(build_workload_tree(spec_))),
      graph_(std::make_unique<StrandGraph>(
          elaborate(*tree_, {.np_mode = spec_.np}))) {}

}  // namespace ndf::exp
