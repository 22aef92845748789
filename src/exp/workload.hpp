// Named workload registry and spec parser for the sweep subsystem: every
// algorithm builder from src/algos/ is addressable by string, the way
// policies and machines are. A spec is
//
//   <algo>[:n=<size>[,base=<base>][,np]]      e.g. "mm:n=64", "trs:n=48,np"
//
// or a synthetic one from the generator subsystem (src/gen/):
//
//   gen:family=<f>[,key=value...][,np]        e.g. "gen:family=sp,depth=8,
//                                                   fan=4,seed=7"
//
// `np` selects the nested-parallel elaboration (the paper's comparison
// baseline) instead of the nested-dataflow one. The grammar and its
// rejections are README's "Spec grammar" (support/spec.hpp). Specs
// round-trip through WorkloadSpec::label(), the key of sweep outputs.
//
// Code that carries a spec per item of a long stream (serve jobs) holds a
// WorkloadRef instead: a pointer-sized handle to an interned, immutable
// copy of the spec and its label. It keeps a serve::JobSpec at 64 bytes
// and a JobRecord at 144 on LP64, where a 144-byte WorkloadSpec inline
// made them 200 and 280 (serve/arrivals.hpp). The intern table lives for
// the whole process and never moves or frees an entry, so a handle stays
// valid in any record that outlives the run that made it; copying one
// touches no refcount and takes no lock. Only exp::intern() locks.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gen/gen.hpp"
#include "nd/drs.hpp"
#include "nd/spawn_tree.hpp"

namespace ndf::exp {

struct WorkloadSpec {
  std::string algo;      ///< registry key ("mm", ..., or "gen")
  std::size_t n = 0;     ///< problem size (0 = the algo's default)
  std::size_t base = 4;  ///< base-case size
  bool np = false;       ///< nested-parallel elaboration instead of ND

  /// Generator parameters; set exactly when algo == "gen".
  std::optional<gen::GenSpec> gen;

  /// Canonical spec string, e.g. "mm:n=64", "trs:n=48,np" or
  /// "gen:family=sp,depth=8,fan=4,seed=7" (defaults are not printed;
  /// base only when it differs from 4).
  std::string label() const;

  /// Field-wise; equal specs have equal labels.
  bool operator==(const WorkloadSpec&) const = default;
};

/// A handle to an interned WorkloadSpec (see the file comment). Equal
/// specs intern to one handle, so handles compare by identity. A
/// default-constructed handle refers to the interned `WorkloadSpec{}`,
/// never to null. Handle addresses are not stable across runs: nothing
/// may order or print by them.
class WorkloadRef {
 public:
  WorkloadRef();

  const WorkloadSpec& operator*() const { return entry_->spec; }
  const WorkloadSpec* operator->() const { return &entry_->spec; }
  /// The spec's label(), formatted once when it was interned.
  const std::string& label() const { return entry_->label; }

  bool operator==(const WorkloadRef&) const = default;

  /// One interned spec with its label; immutable once published.
  struct Entry {
    WorkloadSpec spec;
    std::string label;
  };

 private:
  friend WorkloadRef intern(const WorkloadSpec& spec);
  explicit WorkloadRef(const Entry* e) : entry_(e) {}
  const Entry* entry_;
};

/// The handle of `spec`, interning a copy on first use (takes a mutex; safe
/// from any thread). Throws CheckError if the spec cannot be labelled (a
/// gen spec without generator parameters).
WorkloadRef intern(const WorkloadSpec& spec);

/// Number of distinct specs interned so far, the default one included.
std::size_t interned_count();

struct WorkloadInfo {
  std::string name;
  std::string description;
  std::size_t default_n;
};

/// All registered workloads, sorted by name.
std::vector<WorkloadInfo> registered_workloads();

/// Parses one spec; throws CheckError on unknown algos (listing the
/// registered names) or malformed parameters. Fills the algo's default n
/// when the spec omits it.
WorkloadSpec parse_workload(const std::string& spec);

/// Parses a semicolon-separated spec list ("mm:n=64;trs:n=48,np").
/// Empty input yields an empty list.
std::vector<WorkloadSpec> parse_workload_list(const std::string& specs);

/// Builds just the spawn tree of a spec (for analysis-only consumers).
SpawnTree build_workload_tree(const WorkloadSpec& spec);

/// A built workload: the spawn tree and its elaborated strand DAG, with
/// the tree ownership the graph's internal pointer requires.
class Workload {
 public:
  explicit Workload(WorkloadSpec spec);

  const WorkloadSpec& spec() const { return spec_; }
  const SpawnTree& tree() const { return *tree_; }
  const StrandGraph& graph() const { return *graph_; }

 private:
  WorkloadSpec spec_;
  std::unique_ptr<SpawnTree> tree_;
  std::unique_ptr<StrandGraph> graph_;
};

}  // namespace ndf::exp
