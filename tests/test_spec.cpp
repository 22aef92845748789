// Tests of the one spec grammar (support/spec) and its parsers:
//   S1  the number rules: digits-only, never-saturated integers and
//       finite from_chars reals; repeated and unknown keys are rejected
//       naming the full spec; an arrival seed takes any 64-bit value
//   S2  labels print reals exactly, so distinct specs keep distinct labels
//   S3  flags: a repeated flag and an out-of-range integer flag are loud
//   S4  a seeded mutation fuzzer over workload, gen:, machine, cache-model
//       and arrival specs and trace lines: every input throws CheckError
//       (and nothing else) or parses to a value whose label parses back
//       equal; out-of-grammar values and duplicated items always throw
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "exp/workload.hpp"
#include "pmh/cache_model.hpp"
#include "pmh/presets.hpp"
#include "serve/arrivals.hpp"
#include "support/args.hpp"
#include "support/rng.hpp"
#include "support/spec.hpp"

namespace ndf {
namespace {

/// The CheckError message `fn` throws; empty when it does not throw.
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return std::string();
}

TEST(Spec, NumberRulesAndKeys) {  // S1
  EXPECT_EQ(spec::to_uint("18446744073709551615").value(),
            18446744073709551615ull);
  for (const char* bad : {"", "+5", "-1", " 5", "5 ", "0x10", "8.0", "1e3",
                          "18446744073709551616"})
    EXPECT_FALSE(spec::to_uint(bad)) << "'" << bad << "'";
  EXPECT_EQ(spec::to_real("0.1").value(), 0.1);
  EXPECT_EQ(spec::to_real("1e-3").value(), 1e-3);
  for (const char* bad : {"", "+0.5", " 1", "0x10", "1e309", "inf", "nan",
                          "1.5x"})
    EXPECT_FALSE(spec::to_real(bad)) << "'" << bad << "'";
  EXPECT_EQ(spec::split(";a;;b;", ';'), (std::vector<std::string>{"a", "b"}));

  // Counts with a sign, space, fraction or hex form, or beyond 64 bits.
  for (const char* bad : {"mm:n=+8", "mm:n= 8", "mm:n=8.0", "mm:n=0x8",
                          "mm:n=99999999999999999999"}) {
    const std::string msg = error_of([&] { exp::parse_workload(bad); });
    EXPECT_NE(msg.find(std::string("workload parameter 'n' in '") + bad +
                       "'"),
              std::string::npos)
        << msg;
  }
  for (const char* bad : {"flat:p=8.0", "flat:p=0x8", "flat:m1=inf",
                          "flat:c1=inf", "flat:p=1e1"})
    EXPECT_NE(error_of([&] { make_pmh(bad); }).find(bad), std::string::npos)
        << bad;
  for (const char* bad : {"cache:wb=inf", "cache:line=inf", "cache:excl=1.0",
                          "cache:assoc=8.0"})
    EXPECT_NE(error_of([&] { parse_cache_model(bad); }).find(bad),
              std::string::npos)
        << bad;
  EXPECT_NE(error_of([] { make_pmh("flat:p=4,p=8"); })
                .find("duplicate machine parameter 'p' in 'flat:p=4,p=8'"),
            std::string::npos);
  EXPECT_NE(error_of([] { make_pmh("twotier:s=2,q=1"); })
                .find("unknown machine parameter 'q' in 'twotier:s=2,q=1' "
                      "(valid: s, c, m1, m2, c1, c2)"),
            std::string::npos);
  // Processors plus caches are capped in total, not per count; the parser
  // rejects past the cap before anything is built.
  for (const char* big : {"flat:p=65537", "flat:p=1073741824",
                          "twotier:s=1073741824,c=1073741824",
                          "twotier:s=256,c=256", "twotier:s=65536,c=1"})
    EXPECT_NE(error_of([&] { (void)parse_pmh(big); })
                  .find(std::string("machine '") + big + "' has "),
              std::string::npos)
        << big;
  EXPECT_EQ(parse_pmh("flat:p=65536").root_fanout, 65536u);
  EXPECT_EQ(parse_pmh("twotier:s=128,c=255").root_fanout, 128u);

  // Arrival seeds take any 64-bit value, like gen:'s.
  EXPECT_EQ(serve::parse_arrivals("poisson:rate=1,jobs=2,seed=0").seed, 0u);
  EXPECT_EQ(serve::parse_arrivals(
                "poisson:rate=1,jobs=2,seed=18446744073709551615")
                .seed,
            18446744073709551615ull);
  // Job counts are capped where the stream is certain to fit in memory.
  EXPECT_EQ(serve::parse_arrivals("poisson:rate=1,jobs=1048576").jobs,
            1048576u);
  EXPECT_FALSE(
      error_of([] { serve::parse_arrivals("poisson:rate=1,jobs=1048577"); })
          .empty());
  EXPECT_FALSE(error_of([] {
                 serve::parse_arrivals("closed:clients=1024,jobs=1025");
               }).empty());
}

TEST(Spec, LabelsPrintRealsExactly) {  // S2
  const auto models = parse_cache_model_list(
      "cache:repl=lru,bw=0.1234567;cache:repl=lru,bw=0.1234568");
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].label(), "cache:repl=lru,bw=0.1234567");
  EXPECT_EQ(models[1].label(), "cache:repl=lru,bw=0.1234568");
  EXPECT_EQ(serve::parse_arrivals("poisson:rate=0.123456789,jobs=4").label(),
            "poisson:rate=0.123456789,jobs=4");
  // Six or fewer significant digits print as the default stream did.
  EXPECT_EQ(parse_cache_model("cache:repl=fifo,line=64,wb=1,bw=0.5").label(),
            "cache:repl=fifo,line=64,wb=1,bw=0.5");
}

TEST(Spec, RepeatedAndOutOfRangeFlagsAreLoud) {  // S3
  const char* twice[] = {"prog", "--sched=sb", "--sched=ws"};
  EXPECT_NE(error_of([&] { Args(3, twice); })
                .find("flag --sched is given more than once"),
            std::string::npos);
  const char* huge[] = {"prog", "--repeat=99999999999999999999"};
  const Args a(2, huge);
  EXPECT_NE(error_of([&] { a.get("repeat", 1LL); })
                .find("flag --repeat is out of range"),
            std::string::npos);
}

// ------------------------------------------------------------- fuzzer (S4)

enum class Kind { kWorkload, kMachine, kCache, kArrival, kTrace };

struct Seed {
  Kind kind;
  const char* text;
};

// Valid inputs covering every key of every grammar, with reals of more
// than six significant digits so a rounded label cannot round-trip.
const Seed kSeeds[] = {
    {Kind::kWorkload, "mm:n=64"},
    {Kind::kWorkload, "trs:n=48,base=8,np"},
    {Kind::kWorkload, "lcs:np=1,n=96"},
    {Kind::kWorkload, "gen:family=sp,depth=8,fan=4,work=32,cross=50,seed=7"},
    {Kind::kWorkload, "gen:family=wavefront,n=32,np"},
    {Kind::kWorkload, "gen:family=forkjoin,depth=3,fan=5,work=9"},
    {Kind::kMachine, "flat16"},
    {Kind::kMachine, "flat:p=4,m1=768.25,c1=10"},
    {Kind::kMachine, "twotier:s=2,c=4,m1=192,m2=3072,c1=3,c2=30"},
    {Kind::kCache, "clock"},
    {Kind::kCache, "cache:repl=fifo,assoc=8,line=64,excl=1,wb=1,bw=0.123456789"},
    {Kind::kCache, "cache:repl=aging,line=0.3333333333,wb=2.5"},
    {Kind::kArrival,
     "poisson:rate=0.0123456789,jobs=40,tenants=4,deadline=1234567.125,"
     "seed=18446744073709551615"},
    {Kind::kArrival, "closed:clients=4,jobs=6,think=100.000001,deadline=50"},
    {Kind::kTrace, "12.5 alice mm:n=32 deadline=500.0000001"},
    {Kind::kTrace, "0 bob gen:family=sp,depth=4,seed=3"},
};

// Values no key of any grammar accepts.
const char* const kNeverValid[] = {"-1",   "+5",  " 5", "0x10",
                                   "1e309", "inf", "nan"};
// Keys whose values are reals: every other key rejects 2^64.
const char* const kRealKeys[] = {"m1",   "m2",       "c1",   "c2",
                                 "line", "wb",       "bw",   "rate",
                                 "think", "deadline"};
const char kTooBig[] = "18446744073709551616";

enum class Mutation {
  kDelete, kDuplicateChar, kSwap, kInsertSeparator, kReplaceValue,
  kDuplicateItem, kDropHead
};

/// Applies `m` to `s`; returns false when it does not apply. Sets
/// `must_throw` when the mutation alone takes a valid spec out of the
/// grammar.
bool mutate(std::string& s, Mutation m, Rng& rng, bool& must_throw) {
  if (s.empty()) return false;
  const std::size_t at = rng.below(s.size());
  switch (m) {
    case Mutation::kDelete:
      s.erase(at, 1);
      return true;
    case Mutation::kDuplicateChar:
      s.insert(at, 1, s[at]);
      return true;
    case Mutation::kSwap:
      if (s.size() < 2) return false;
      std::swap(s[at], s[(at + 1) % s.size()]);
      return true;
    case Mutation::kInsertSeparator:
      s.insert(at, 1, ":,;="[rng.below(4)]);
      return true;
    case Mutation::kReplaceValue: {
      std::vector<std::size_t> eqs;
      for (std::size_t i = 0; i < s.size(); ++i)
        if (s[i] == '=') eqs.push_back(i);
      if (eqs.empty()) return false;
      const std::size_t eq = eqs[rng.below(eqs.size())];
      const std::size_t key_at = s.find_last_of(":, ", eq) + 1;
      const std::string key = s.substr(key_at, eq - key_at);
      std::size_t end = s.find_first_of(", ", eq + 1);
      if (end == std::string::npos) end = s.size();
      const std::size_t pick = rng.below(std::size(kNeverValid) + 2);
      std::string value = "0";
      if (pick < std::size(kNeverValid)) {
        value = kNeverValid[pick];
        must_throw = true;
      } else if (pick == std::size(kNeverValid)) {
        value = kTooBig;
        must_throw = true;
        for (const char* k : kRealKeys) must_throw &= key != k;
      }
      s.replace(eq + 1, end - eq - 1, value);
      return true;
    }
    case Mutation::kDuplicateItem: {
      // An item of the spec's own list (not of a trace line).
      const std::size_t colon = s.find(':');
      if (colon == std::string::npos || s.find(' ') != std::string::npos)
        return false;
      const std::vector<std::string> items =
          spec::split(s.substr(colon + 1), ',');
      if (items.empty()) return false;
      s += "," + items[rng.below(items.size())];
      must_throw = true;
      return true;
    }
    case Mutation::kDropHead: {
      const std::size_t colon = s.find(':');
      if (colon == std::string::npos) return false;
      s.erase(0, colon + 1);
      return true;
    }
  }
  return false;
}

/// Parses `text` as `kind` and checks the round trip; returns a failure
/// description, or empty when the input passed.
std::string check_one(Kind kind, const std::string& text) {
  std::ostringstream why;
  switch (kind) {
    case Kind::kWorkload: {
      const exp::WorkloadSpec w = exp::parse_workload(text);
      if (!(exp::parse_workload(w.label()) == w))
        why << "label '" << w.label() << "' parses to a different spec";
      break;
    }
    case Kind::kMachine:
      (void)make_pmh(text);
      break;
    case Kind::kCache: {
      const CacheModelSpec c = parse_cache_model(text);
      if (!(parse_cache_model(c.label()) == c))
        why << "label '" << c.label() << "' parses to a different spec";
      break;
    }
    case Kind::kArrival: {
      const serve::ArrivalSpec a = serve::parse_arrivals(text);
      if (!(serve::parse_arrivals(a.label()) == a))
        why << "label '" << a.label() << "' parses to a different spec";
      break;
    }
    case Kind::kTrace: {
      std::istringstream in(text);
      for (const serve::JobSpec& j : serve::parse_trace(in, "fuzz")) {
        if (!std::isfinite(j.arrival) || j.arrival < 0.0 ||
            !(j.deadline >= j.arrival))
          why << "job arrival " << j.arrival << " deadline " << j.deadline;
        if (!(exp::parse_workload(j.workload.label()) == *j.workload))
          why << "label '" << j.workload.label()
              << "' parses to a different spec";
      }
      break;
    }
  }
  return why.str();
}

TEST(Spec, MutationFuzzerKeepsTheGrammar) {  // S4
  Rng rng(20261020);
  constexpr int kCases = 40000;
  std::size_t failures = 0, parsed = 0;
  for (int i = 0; i < kCases; ++i) {
    const Seed& seed = kSeeds[rng.below(std::size(kSeeds))];
    std::string text = seed.text;
    // One mutation half of the time (its directed check applies), up to
    // three stacked otherwise.
    const std::size_t rounds = rng.below(2) ? 1 : 1 + rng.below(3);
    bool last_must_throw = false;
    std::size_t done = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      bool m = false;
      if (mutate(text, Mutation(rng.below(7)), rng, m)) {
        last_must_throw = m;
        ++done;
      }
    }
    const bool must_throw = done == 1 && last_must_throw;
    std::string failure;
    try {
      failure = check_one(seed.kind, text);
      if (failure.empty() && must_throw)
        failure = "parsed, but its mutation leaves the grammar";
      ++parsed;
    } catch (const CheckError&) {
    } catch (const std::exception& e) {
      failure = std::string("threw a non-CheckError: ") + e.what();
    }
    if (!failure.empty() && ++failures <= 10)
      ADD_FAILURE() << "input '" << text << "' (from '" << seed.text
                    << "'): " << failure;
  }
  EXPECT_EQ(failures, 0u) << "of " << kCases;
  // The fuzzer must reach the round trip, not only the rejections.
  EXPECT_GT(parsed, std::size_t(kCases) / 10);
}

}  // namespace
}  // namespace ndf
