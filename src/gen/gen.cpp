#include "gen/gen.hpp"

#include <functional>
#include <map>
#include <sstream>

#include "analysis/determinacy.hpp"
#include "gen/families.hpp"
#include "gen/random_sp.hpp"
#include "nd/drs.hpp"
#include "nd/validate.hpp"

namespace ndf::gen {

namespace {

/// One registered family: which keys its spec accepts and how to build it.
struct Family {
  std::string description;
  std::string keys;  ///< accepted keys with defaults, shown by --list
  std::vector<std::string> accepted;
  std::function<SpawnTree(const GenSpec&)> make;
};

const std::map<std::string, Family>& families() {
  static const std::map<std::string, Family> t = {
      {"sp",
       {"seeded random series-parallel tree with sampled dataflow "
        "cross-edges",
        "depth=6, fan=3, work=64, cross=30, seed=1",
        {"depth", "fan", "work", "cross", "seed"},
        make_random_sp_tree}},
      {"chain",
       {"n strands in series (zero parallelism)",
        "n=16, work=64",
        {"n", "work"},
        [](const GenSpec& s) { return make_chain_tree(s.n, double(s.work)); }}},
      {"forkjoin",
       {"depth barrier stages of fan parallel strands",
        "depth=6, fan=3, work=64",
        {"depth", "fan", "work"},
        [](const GenSpec& s) {
          return make_forkjoin_tree(s.depth, s.fan, double(s.work));
        }}},
      {"diamond",
       {"depth stacked fork/join diamonds (source, fan middles, sink)",
        "depth=6, fan=3, work=64",
        {"depth", "fan", "work"},
        [](const GenSpec& s) {
          return make_diamond_tree(s.depth, s.fan, double(s.work));
        }}},
      {"wavefront",
       {"n x n dependence grid via per-column fire rules (2-D wavefront)",
        "n=16, work=64",
        {"n", "work"},
        [](const GenSpec& s) {
          return make_wavefront_tree(s.n, double(s.work));
        }}},
  };
  return t;
}

std::string known_families() { return spec::names(families()); }

const Family& family_of(const GenSpec& spec, const std::string& context) {
  const auto it = families().find(spec.family);
  NDF_CHECK_MSG(it != families().end(),
                "unknown gen family '" << spec.family << "' in '" << context
                                       << "' (registered: "
                                       << known_families() << ")");
  return it->second;
}

bool accepts(const Family& f, const std::string& key) {
  for (const std::string& k : f.accepted)
    if (k == key) return true;
  return false;
}

}  // namespace

std::string GenSpec::label() const {
  const GenSpec d;
  // The closest thing to a verbatim spec a programmatic GenSpec has: its
  // own canonical prefix (labels of unknown families cannot be rendered).
  const Family& f = family_of(*this, "gen:family=" + family);
  std::ostringstream os;
  os << "gen:family=" << family;
  // Fixed key order; only keys the family accepts, only non-default
  // values — so parse_gen_params(label()) round-trips exactly.
  struct Key {
    const char* name;
    std::uint64_t value, dflt;
  };
  const Key keys[] = {{"n", n, d.n},         {"depth", depth, d.depth},
                      {"fan", fan, d.fan},   {"work", work, d.work},
                      {"cross", cross, d.cross}, {"seed", seed, d.seed}};
  for (const Key& k : keys)
    if (accepts(f, k.name) && k.value != k.dflt)
      os << ',' << k.name << '=' << k.value;
  return os.str();
}

std::vector<FamilyInfo> registered_families() {
  std::vector<FamilyInfo> out;
  for (const auto& [name, f] : families())
    out.push_back({name, f.description, f.keys});
  return out;  // std::map iterates sorted by name
}

bool family_accepts(const std::string& family, const std::string& key) {
  const auto it = families().find(family);
  return it != families().end() && accepts(it->second, key);
}

GenSpec parse_gen_params(const spec::Params& params) {
  GenSpec g;
  // Family first (it may appear anywhere in the list), so the accepted-key
  // check below knows which family it is checking against.
  g.family = params.word("family", g.family);
  const Family& f = family_of(g, params.text());
  for (const auto& [key, val] : params.items())
    NDF_CHECK_MSG(key == "family" || key == "np" || accepts(f, key),
                  "gen family '" << g.family << "' does not accept "
                                 << "parameter '" << key << "' in '"
                                 << params.text() << "' (accepted: " << f.keys
                                 << ", np)");
  // Any 64-bit value parses; generate() range-checks the sizes.
  g.n = params.integer("n", g.n);
  g.depth = params.integer("depth", g.depth);
  g.fan = params.integer("fan", g.fan);
  g.work = params.integer("work", g.work);
  g.cross = params.integer("cross", g.cross);
  g.seed = params.integer("seed", g.seed);
  return g;
}

SpawnTree generate(const GenSpec& spec) {
  // Re-validate common ranges here so specs constructed past the parser
  // (or injected into a Scenario) still fail loudly inside sweep workers.
  NDF_CHECK_MSG(spec.work >= 1 && spec.work <= 1000000,
                "gen workload needs work in [1, 1000000], got " << spec.work);
  SpawnTree tree = family_of(spec, spec.label()).make(spec);
  // Rejection check: a generated rule table must pass static validation
  // before the DRS ever runs on it.
  expect_valid_rules(tree.rules());
  return tree;
}

GenReport check_generated(const SpawnTree& tree, bool np_mode) {
  GenReport rep;
  const std::vector<RuleIssue> issues = validate_rules(tree.rules());
  rep.rule_issues = issues.size();
  if (!issues.empty())
    rep.message = tree.rules().name(issues.front().type) + ": " +
                  issues.front().message;

  const StrandGraph g = elaborate(tree, {.np_mode = np_mode});
  try {
    (void)g.topological_order();
    rep.acyclic = true;
  } catch (const CheckError& e) {
    rep.acyclic = false;
    if (rep.message.empty()) rep.message = e.what();
  }

  if (rep.acyclic) {
    const DeterminacyReport d = check_determinacy(g);
    rep.determinate = d.ok;
    rep.conflicting_pairs = d.conflicting_pairs;
    if (!d.ok && rep.message.empty()) rep.message = d.message;
  }
  return rep;
}

}  // namespace ndf::gen
