// Minimal command-line flag parsing for the bench and example binaries:
// `--name=value` or `--flag` booleans; everything else is rejected so a
// typo'd sweep parameter fails loudly instead of silently benchmarking the
// default. Every binary's main() goes through run_main, so a bad flag or a
// bad value exits 2 with one `<binary>: <message>` line on stderr.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace ndf {

class Args {
 public:
  /// Parses argv; throws CheckError on malformed arguments.
  Args(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& dflt) const;
  long long get(const std::string& name, long long dflt) const;
  double get(const std::string& name, double dflt) const;
  bool get(const std::string& name, bool dflt) const;

  /// Names that were parsed but never queried — callers can warn on these.
  std::size_t size() const { return kv_.size(); }

  /// All parsed flag names, sorted — lets a binary reject flags it does
  /// not know instead of silently running defaults.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> kv_;
};

/// Rejects unknown `--flags` loudly: a typo'd axis must not silently run
/// the default grid and emit a plausible-looking but wrong artifact.
/// `allowed` is the binary's full flag set; `hint` says where the flags
/// are documented.
void reject_unknown_flags(const Args& args,
                          std::initializer_list<const char*> allowed,
                          const std::string& hint);

/// A binary's main(): runs `body` (returning the exit code) and turns a
/// CheckError — a bad flag, a bad spec, any failed precondition — into
/// one stderr line `<binary>: <message>` and exit code 2, instead of the
/// abort an uncaught exception ends in. `argv0` names the binary.
template <typename Body>
int run_main(const char* argv0, Body&& body) {
  try {
    return body();
  } catch (const CheckError& e) {
    std::string driver = argv0 ? argv0 : "bench";
    driver = driver.substr(driver.find_last_of('/') + 1);
    std::string msg = e.what();
    std::replace(msg.begin(), msg.end(), '\n', ' ');
    std::cerr << driver << ": " << msg << "\n";
    return 2;
  }
}

}  // namespace ndf
