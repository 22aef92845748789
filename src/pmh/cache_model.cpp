#include "pmh/cache_model.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/spec.hpp"

namespace ndf {

namespace {

// ------------------------------------------------------------- builtins
//
// Every builtin honors pinning: victim scans skip pinned entries, so a
// pinned footprint survives any amount of pressure (the sb invariant).

/// Least-recently-used — the paper's ideal model and the default. The
/// victim scan is byte-identical to the pre-registry CacheOccupancy:
/// oldest last_use among unpinned entries, stable scan order.
class LruRepl final : public ReplacementPolicy {
 public:
  const char* name() const override { return "lru"; }
  void touched(CacheEntry& e, std::uint64_t now) override {
    e.last_use = now;
  }
  std::size_t victim(std::vector<CacheEntry>& entries,
                     std::size_t& hand) override {
    (void)hand;
    std::size_t v = entries.size();
    for (std::size_t i = 0; i < entries.size(); ++i)
      if (!entries[i].pinned &&
          (v == entries.size() || entries[i].last_use < entries[v].last_use))
        v = i;
    return v;
  }
};

/// First-in-first-out: eviction order is insertion order — re-touching a
/// resident footprint does not save it.
class FifoRepl final : public ReplacementPolicy {
 public:
  const char* name() const override { return "fifo"; }
  void touched(CacheEntry& e, std::uint64_t now) override {
    (void)e;
    (void)now;  // references never refresh a FIFO entry
  }
  std::size_t victim(std::vector<CacheEntry>& entries,
                     std::size_t& hand) override {
    (void)hand;
    std::size_t v = entries.size();
    for (std::size_t i = 0; i < entries.size(); ++i)
      if (!entries[i].pinned &&
          (v == entries.size() ||
           entries[i].loaded_at < entries[v].loaded_at))
        v = i;
    return v;
  }
};

/// Clock / second chance: a circular hand sweeps the set; an entry whose
/// referenced bit is set gets it cleared and one more pass, the first
/// unreferenced unpinned entry under the hand is evicted.
class ClockRepl final : public ReplacementPolicy {
 public:
  const char* name() const override { return "clock"; }
  void touched(CacheEntry& e, std::uint64_t now) override {
    (void)now;
    e.ref = true;
  }
  std::size_t victim(std::vector<CacheEntry>& entries,
                     std::size_t& hand) override {
    std::size_t evictable = 0;
    for (const CacheEntry& e : entries)
      if (!e.pinned) ++evictable;
    if (evictable == 0) return entries.size();
    if (hand >= entries.size()) hand = 0;
    // Two sweeps bound the scan: the first clears every referenced bit in
    // the worst case, the second must then find an unreferenced victim.
    for (;;) {
      CacheEntry& e = entries[hand];
      if (!e.pinned) {
        if (e.ref)
          e.ref = false;  // second chance
        else
          return hand;
      }
      hand = (hand + 1) % entries.size();
    }
  }
};

/// Aging (the working-set approximation): each eviction decision is one
/// aging tick — every entry's age register shifts right with its referenced
/// bit entering the MSB — and the lowest-aged unpinned entry (least
/// recently *and* least frequently referenced) is the victim.
class AgingRepl final : public ReplacementPolicy {
 public:
  const char* name() const override { return "aging"; }
  void touched(CacheEntry& e, std::uint64_t now) override {
    (void)now;
    e.ref = true;
  }
  std::size_t victim(std::vector<CacheEntry>& entries,
                     std::size_t& hand) override {
    (void)hand;
    constexpr std::uint64_t kMsb = std::uint64_t(1) << 63;
    for (CacheEntry& e : entries) {
      e.age = (e.age >> 1) | (e.ref ? kMsb : 0);
      e.ref = false;
    }
    std::size_t v = entries.size();
    for (std::size_t i = 0; i < entries.size(); ++i)
      if (!entries[i].pinned &&
          (v == entries.size() || entries[i].age < entries[v].age))
        v = i;
    return v;
  }
};

// ------------------------------------------------------------- registry

struct Entry {
  std::string description;
  CacheReplFactory factory;
};

std::map<std::string, Entry>& table() {
  static std::map<std::string, Entry> t;
  return t;
}

void ensure_builtins() {
  static const bool once = [] {
    register_cache_repl(
        "lru", "least-recently-used — the paper's ideal model (default)",
        [] { return std::make_unique<LruRepl>(); });
    register_cache_repl(
        "fifo", "first-in-first-out — references never refresh an entry",
        [] { return std::make_unique<FifoRepl>(); });
    register_cache_repl(
        "clock",
        "second chance — referenced entries survive one sweep of the hand",
        [] { return std::make_unique<ClockRepl>(); });
    register_cache_repl(
        "aging",
        "working-set approximation — aging registers rank entries by "
        "recency and frequency of reference",
        [] { return std::make_unique<AgingRepl>(); });
    return true;
  }();
  (void)once;
}

// Safe from any error path: registers the builtins itself, so an unknown
// policy message lists what is actually available (sched/registry.cpp).
std::string known_names() {
  ensure_builtins();
  const std::string s = spec::names(table());
  return s.empty() ? "<none>" : s;
}

}  // namespace

std::string CacheModelSpec::label() const {
  CacheModelSpec dflt;
  dflt.repl = repl;
  if (*this == dflt) return repl;  // only the policy differs: bare name
  std::ostringstream os;
  os << "cache:repl=" << repl;
  if (assoc != 0) os << ",assoc=" << assoc;
  if (line != 0.0) spec::write_real(os << ",line=", line);
  if (exclusive) os << ",excl=1";
  if (wb != 0.0) spec::write_real(os << ",wb=", wb);
  if (bw != 0.0) spec::write_real(os << ",bw=", bw);
  return os.str();
}

bool register_cache_repl(const std::string& name,
                         const std::string& description,
                         CacheReplFactory factory) {
  NDF_CHECK_MSG(!name.empty() && factory, "bad cache-model registration");
  return table().emplace(name, Entry{description, std::move(factory)}).second;
}

bool cache_repl_registered(const std::string& name) {
  ensure_builtins();
  return table().count(name) > 0;
}

std::vector<CacheModelInfo> registered_cache_repls() {
  ensure_builtins();
  std::vector<CacheModelInfo> out;
  for (const auto& [name, entry] : table())
    out.push_back({name, entry.description});
  return out;  // std::map iterates sorted by name
}

std::unique_ptr<ReplacementPolicy> make_cache_repl(const std::string& name) {
  ensure_builtins();
  const auto it = table().find(name);
  NDF_CHECK_MSG(it != table().end(), "unknown replacement policy '"
                                         << name << "' (registered: "
                                         << known_names() << ")");
  return it->second.factory();
}

CacheModelSpec parse_cache_model(const std::string& spec) {
  const spec::Params p(spec, "cache");
  CacheModelSpec out;
  if (!p.parametric()) {
    // Bare policy name shorthand: "clock" == "cache:repl=clock".
    NDF_CHECK_MSG(cache_repl_registered(spec),
                  "unknown cache model '"
                      << spec << "' (policies: " << known_names()
                      << "; parametric: cache:repl=,assoc=,line=,excl=,"
                         "wb=,bw=)");
    out.repl = spec;
    return out;
  }
  NDF_CHECK_MSG(p.head() == "cache",
                "unknown cache-model family '"
                    << p.head() << "' in '" << spec
                    << "' (want cache:key=value,... or a bare policy name: "
                    << known_names() << ")");
  p.allow({"assoc", "bw", "excl", "line", "repl", "wb"});
  out.repl = p.word("repl", out.repl);
  NDF_CHECK_MSG(cache_repl_registered(out.repl),
                "unknown replacement policy '"
                    << out.repl << "' in '" << spec
                    << "' (registered: " << known_names() << ")");
  out.assoc = p.integer("assoc", 0, 0, 1 << 20);
  out.line = p.real("line", 0.0);
  out.exclusive = p.integer("excl", 0, 0, 1) == 1;
  out.wb = p.real("wb", 0.0);
  out.bw = p.real("bw", 0.0);
  return out;
}

std::vector<CacheModelSpec> parse_cache_model_list(const std::string& specs) {
  std::vector<CacheModelSpec> out;
  for (const std::string& item : spec::split(specs, ';')) {
    CacheModelSpec m = parse_cache_model(item);
    if (std::find(out.begin(), out.end(), m) == out.end())
      out.push_back(std::move(m));
  }
  return out;
}

}  // namespace ndf
