// String-keyed cache-model registry: the pluggable half of the simulated
// occupancy layer (pmh/occupancy.hpp). A cache *model* is a replacement
// policy — registered under a short name ("lru", "fifo", "clock", "aging"),
// mirroring the scheduler registry in sched/registry.hpp — plus orthogonal
// parameters that bend the hierarchy away from the paper's ideal:
//
//   repl=<name>   replacement policy (registry below); default lru
//   assoc=<A>     set associativity: each cache splits into capacity/(A·line)
//                 sets of A·line words, footprints map to sets by key, and
//                 eviction is per-set. 0 (default) = fully associative.
//   line=<W>      allocation granularity in words: footprints occupy (and
//                 miss) in multiples of W. 0 (default) = exact footprints.
//                 assoc > 0 without an explicit line uses line=64.
//   excl=<0|1>    exclusive level semantics: a unit whose level-l footprint
//                 hits in an inner cache is served entirely from there, so
//                 outer levels see neither traffic nor a recency update
//                 (data is not duplicated outward). Default 0 = inclusive,
//                 every level is touched independently (the paper's model).
//   wb=<x>        write-back cost: evicting a *resident* (dirty-assumed)
//                 footprint charges x extra traffic words per footprint
//                 word at that level. Default 0 = silent eviction.
//   bw=<x>        shared-bandwidth contention: each word missed while k
//                 other processors under the same cache are busy costs x·k
//                 extra traffic words. Default 0 = infinite bandwidth.
//
// The spec grammar is README's "Spec grammar" (support/spec.hpp). The
// default spec (plain "lru") makes the occupancy layer byte-identical to
// the pre-registry whole-capacity LRU, which the CI perf gate enforces.
//
// Pinning: the space-bounded policy's correctness argument needs pinned
// reservations honored (a pinned footprint is never evicted). Every builtin
// policy honors them — its victim scan skips pinned entries. A registered
// policy that cannot honor reservations must say so via honors_pinning();
// the occupancy layer then refuses pin() loudly instead of silently
// breaking Theorem 1 runs (see docs/cache-models.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace ndf {

/// A parsed cache: spec — replacement policy name plus the orthogonal
/// model parameters. The default-constructed spec is the paper's ideal
/// model (whole-capacity fully-associative inclusive LRU, free evictions,
/// infinite bandwidth).
struct CacheModelSpec {
  std::string repl = "lru";
  std::size_t assoc = 0;  ///< ways per set; 0 = fully associative
  double line = 0.0;      ///< allocation granularity (words); 0 = exact
  bool exclusive = false; ///< inner-level hits skip outer levels
  double wb = 0.0;        ///< write-back words per evicted resident word
  double bw = 0.0;        ///< contention words per miss word per busy sharer

  bool operator==(const CacheModelSpec&) const = default;

  /// True for the paper's ideal model — the spec whose measured counters
  /// are byte-identical to the pre-registry occupancy layer, and the one
  /// the emitters stay silent about.
  bool is_default() const { return *this == CacheModelSpec{}; }

  /// Canonical round-trippable form: the bare policy name when every other
  /// parameter is default ("clock"), else "cache:repl=...,k=v" listing the
  /// non-default parameters in fixed key order. parse_cache_model(label())
  /// reproduces the spec exactly.
  std::string label() const;

  /// Effective allocation granularity: `line`, except assoc > 0 defaults
  /// it to 64 (an A-way cache needs a line to size its sets).
  double effective_line() const {
    return assoc > 0 && line == 0.0 ? 64.0 : line;
  }
};

/// One entry of a simulated cache set: a maximal-task footprint plus every
/// builtin policy's bookkeeping (one struct so sets stay a flat vector).
struct CacheEntry {
  std::int64_t task = -1;
  double size = 0.0;      ///< occupied words (already line-quantized)
  bool resident = false;  ///< loaded (occupies *and* was counted)
  bool pinned = false;    ///< reserved by an anchored task: not evictable
  bool ref = false;       ///< referenced bit (clock / aging)
  std::uint64_t last_use = 0;   ///< recency clock at last touch (lru)
  std::uint64_t loaded_at = 0;  ///< recency clock at insertion (fifo)
  std::uint64_t age = 0;        ///< aging shift register
};

/// Replacement-policy strategy. Stateless across calls — per-set state
/// (the clock hand) and per-entry state (CacheEntry fields) are owned by
/// the occupancy layer, so one policy instance serves every cache.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;
  virtual const char* name() const = 0;

  /// `e` was referenced at recency clock `now`: a hit, the load that
  /// installed it, or a pin reservation.
  virtual void touched(CacheEntry& e, std::uint64_t now) = 0;

  /// Picks the eviction victim among `entries` (pinned entries are never
  /// eligible); `hand` is the set's persistent clock-hand position, which
  /// the policy may advance. Returns entries.size() when only pinned
  /// entries remain. Must be deterministic: stable scan order on ties.
  virtual std::size_t victim(std::vector<CacheEntry>& entries,
                             std::size_t& hand) = 0;

  /// False for a policy that cannot keep pinned entries resident; the
  /// occupancy layer then rejects pin() with a CheckError naming the
  /// policy instead of silently violating sb's reservation semantics.
  virtual bool honors_pinning() const { return true; }
};

using CacheReplFactory = std::function<std::unique_ptr<ReplacementPolicy>()>;

struct CacheModelInfo {
  std::string name;
  std::string description;
};

/// Registers a replacement policy. Returns false (keeping the existing
/// entry) if the name is taken.
bool register_cache_repl(const std::string& name,
                         const std::string& description,
                         CacheReplFactory factory);

bool cache_repl_registered(const std::string& name);

/// All registered replacement policies, sorted by name.
std::vector<CacheModelInfo> registered_cache_repls();

/// Instantiates a registered replacement policy. Throws CheckError on
/// unknown names (the message lists what is registered).
std::unique_ptr<ReplacementPolicy> make_cache_repl(const std::string& name);

/// Parses one cache-model spec: a bare registered policy name ("clock") or
/// the parametric form "cache:repl=clock,assoc=8,line=64,wb=1". Unknown or
/// duplicate keys, non-numeric values, out-of-range values and unknown
/// policies are all rejected with the full spec named verbatim.
CacheModelSpec parse_cache_model(const std::string& spec);

/// Semicolon-separated spec list for a `--cache=` axis; duplicates (after
/// canonicalization) are dropped. Empty input yields an empty list.
std::vector<CacheModelSpec> parse_cache_model_list(const std::string& specs);

}  // namespace ndf
