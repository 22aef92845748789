#include "support/args.hpp"

#include <cerrno>
#include <cstdlib>

#include "support/check.hpp"

namespace ndf {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    NDF_CHECK_MSG(a.rfind("--", 0) == 0,
                  "unexpected positional argument '" << a << "'");
    const auto eq = a.find('=');
    const std::string name = a.substr(2, eq - 2);  // npos: the rest
    const std::string value =
        eq == std::string::npos ? "true" : a.substr(eq + 1);
    // Keeping the last of a repeated flag would silently drop the others.
    NDF_CHECK_MSG(kv_.emplace(name, value).second,
                  "flag --" << name << " is given more than once");
  }
}

bool Args::has(const std::string& name) const { return kv_.count(name) > 0; }

std::vector<std::string> Args::names() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : kv_) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::string Args::get(const std::string& name, const std::string& dflt) const {
  const auto it = kv_.find(name);
  return it == kv_.end() ? dflt : it->second;
}

long long Args::get(const std::string& name, long long dflt) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return dflt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  NDF_CHECK_MSG(end && *end == '\0',
                "flag --" << name << " is not an integer: " << it->second);
  NDF_CHECK_MSG(errno != ERANGE,
                "flag --" << name << " is out of range: " << it->second);
  return v;
}

double Args::get(const std::string& name, double dflt) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return dflt;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  NDF_CHECK_MSG(end && *end == '\0',
                "flag --" << name << " is not a number: " << it->second);
  return v;
}

bool Args::get(const std::string& name, bool dflt) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return dflt;
  NDF_CHECK_MSG(it->second == "true" || it->second == "false",
                "flag --" << name << " is not a boolean: " << it->second);
  return it->second == "true";
}

void reject_unknown_flags(const Args& args,
                          std::initializer_list<const char*> allowed,
                          const std::string& hint) {
  for (const std::string& name : args.names()) {
    bool known = false;
    for (const char* a : allowed) known = known || name == a;
    NDF_CHECK_MSG(known, "unknown flag --" << name << " (" << hint << ")");
  }
}

}  // namespace ndf
