// One renderer for every result kind (exp/report.cpp and serve/report.cpp
// describe each kind once). A result is an ordered Record of fields, named
// per format ("" = not in that format). A table/CSV column exists when
// some record shows its field, and then every record fills it (absent
// values print `-` / an empty cell). A JSON key appears only where its
// record shows the field (absent values and inf/nan print `null`). A
// per-level list becomes `<name><level>` columns, padded to the longest
// shown list, and a JSON array.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/table.hpp"

namespace ndf::report {

/// Absent, text, count, real, flag or per-level list. A list borrows its
/// storage: render a record while its source lives.
using Value = std::variant<std::monostate, std::string, std::uint64_t, double,
                           bool, std::span<const double>>;

struct Field {
  /// Per-format names: literals, as Columns keeps views of them.
  std::string_view table, csv, json;
  Value value;
  std::string_view group = {};  ///< JSON: nests in `"group": {...}`
  bool shown = true;  ///< false: no JSON key, and no column of its own
};

using Record = std::vector<Field>;

Value value_if(bool has, double v);  ///< `v`, or absent unless `has`

/// The columns one format (&Field::table or &Field::csv) gives a kind.
class Columns {
 public:
  /// `blank` is a record of the kind that shows only what every record
  /// has: the header of empty input.
  Columns(std::string_view Field::*format, const Record& blank);

  /// Widens the columns to show what `rec` shows. Fields match columns by
  /// name, so `rec` may be partial or of another kind.
  void fit(const Record& rec);

  /// Fits `rows` (records of the blank's kind), then tabulates them.
  Table table(const std::string& title, const std::vector<Record>& rows);

  /// CSV: the header after the last fit(), then one row per record of the
  /// blank's kind (doubles at the stream's precision).
  void write_csv_header(std::ostream& os) const;
  void write_csv_row(std::ostream& os, const Record& rec) const;

 private:
  struct Column {
    std::string_view name;
    bool list = false, on = false;
    std::size_t levels = 0;
  };
  std::vector<std::string> header() const;
  template <class F>
  void for_each_cell(const Record& rec, F&& cell) const;

  std::string_view Field::*format_;
  std::vector<Column> cols_;
};

/// `rec`'s shown JSON fields as `"key": value, ...` (no outer braces).
void write_json_fields(std::ostream& os, const Record& rec);

/// Escapes `"` and `\`; `\n`, `\t`, `\r` by name, other control
/// characters as `\u00XX`.
std::string json_escape(std::string_view s);

/// A double at the stream's precision; inf/nan print `null`.
void write_number(std::ostream& os, double d);

/// RFC-4180 quoting — specs contain commas ("flat:p=8,m1=192").
std::string csv_field(const std::string& s);

}  // namespace ndf::report
