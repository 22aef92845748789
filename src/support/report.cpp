#include "support/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "support/check.hpp"

namespace ndf::report {

namespace {

using Levels = std::span<const double>;

Cell table_cell(const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* u = std::get_if<std::uint64_t>(&v)) return (long long)*u;
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* b = std::get_if<bool>(&v)) return (long long)*b;
  return std::string("-");
}

/// A CSV cell or a JSON value (lists are JSON-only: CSV spreads them).
void write_value(std::ostream& os, const Value& v, bool json) {
  if (const auto* s = std::get_if<std::string>(&v)) {
    os << (json ? '"' + json_escape(*s) + '"' : csv_field(*s));
  } else if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    os << *u;
  } else if (const auto* d = std::get_if<double>(&v)) {
    json ? write_number(os, *d) : void(os << *d);
  } else if (const auto* b = std::get_if<bool>(&v)) {
    os << (json ? (*b ? "true" : "false") : (*b ? "1" : "0"));
  } else if (const auto* l = std::get_if<Levels>(&v)) {
    os << '[';
    for (std::size_t k = 0; k < l->size(); ++k) {
      os << (k ? ", " : "");
      write_number(os, (*l)[k]);
    }
    os << ']';
  } else if (json) {
    os << "null";
  }
}

}  // namespace

Value value_if(bool has, double v) { return has ? Value(v) : Value(); }

Columns::Columns(std::string_view Field::*format, const Record& blank)
    : format_(format) {
  for (const Field& f : blank)
    cols_.push_back({f.*format_, std::holds_alternative<Levels>(f.value)});
  fit(blank);
}

void Columns::fit(const Record& rec) {
  for (const Field& f : rec) {
    const std::string_view name = f.*format_;
    if (!f.shown || name.empty()) continue;
    const auto it = std::find_if(cols_.begin(), cols_.end(), [&](auto& c) {
      return c.name == name;
    });
    NDF_CHECK_MSG(it != cols_.end(), "report: no column named " << name);
    it->on = true;
    if (const auto* l = std::get_if<Levels>(&f.value))
      it->levels = std::max(it->levels, l->size());
  }
}

std::vector<std::string> Columns::header() const {
  std::vector<std::string> out;
  for (const Column& c : cols_) {
    if (c.on && !c.list) out.emplace_back(c.name);
    for (std::size_t l = 1; c.on && c.list && l <= c.levels; ++l)
      out.push_back(std::string(c.name) + std::to_string(l));
  }
  return out;
}

/// Calls `cell(value)` per column: lists once per level, absent past the
/// record's own list.
template <class F>
void Columns::for_each_cell(const Record& rec, F&& cell) const {
  NDF_CHECK(rec.size() == cols_.size());
  for (std::size_t i = 0; i < rec.size(); ++i) {
    if (cols_[i].on && !cols_[i].list) cell(rec[i].value);
    const auto* l = std::get_if<Levels>(&rec[i].value);
    const std::size_t n = l != nullptr ? l->size() : 0;
    for (std::size_t k = 0; cols_[i].on && k < cols_[i].levels; ++k)
      cell(value_if(k < n, k < n ? (*l)[k] : 0.0));
  }
}

Table Columns::table(const std::string& title,
                     const std::vector<Record>& rows) {
  for (const Record& rec : rows) fit(rec);
  Table t(title);
  t.set_header(header());
  for (const Record& rec : rows) {
    std::vector<Cell> row;
    for_each_cell(rec, [&](const Value& v) { row.push_back(table_cell(v)); });
    t.add_row(std::move(row));
  }
  return t;
}

void Columns::write_csv_header(std::ostream& os) const {
  const std::vector<std::string> head = header();
  for (std::size_t i = 0; i < head.size(); ++i)
    os << (i ? "," : "") << head[i];
  os << '\n';
}

void Columns::write_csv_row(std::ostream& os, const Record& rec) const {
  bool first = true;
  for_each_cell(rec, [&](const Value& v) {
    os << (first ? "" : ",");
    first = false;
    write_value(os, v, false);
  });
  os << '\n';
}

void write_json_fields(std::ostream& os, const Record& rec) {
  std::string_view group;
  bool first = true;
  for (const Field& f : rec) {
    if (f.json.empty() || !f.shown) continue;
    if (f.group != group) {
      if (!group.empty()) os << '}';
      if (!f.group.empty())
        os << (first ? "\"" : ", \"") << f.group << "\": {";
      first = !f.group.empty();
      group = f.group;
    }
    os << (first ? "\"" : ", \"") << f.json << "\": ";
    write_value(os, f.value, true);
    first = false;
  }
  if (!group.empty()) os << '}';
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          out += c;
          break;
        }
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
    }
  }
  return out;
}

void write_number(std::ostream& os, double d) {
  std::isfinite(d) ? void(os << d) : void(os << "null");
}

std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) out += c == '"' ? "\"\"" : std::string(1, c);
  return out + '"';
}

}  // namespace ndf::report
