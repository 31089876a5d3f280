// Console table rendering for bench harnesses.
//
// Each bench binary regenerates one table or figure from the paper and prints
// it to stdout.  Table gives aligned, pipe-delimited output that is readable
// in a terminal and trivially machine-parseable; SeriesWriter emits CSV
// series for the "figure" benches (x,y per algorithm).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace cmfl::util {

/// A simple fixed-column text table.  Usage:
///   Table t({"scheme", "rounds", "saving"});
///   t.add_row({"CMFL", "145", "3.45"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have exactly as many cells as the header.
  /// Throws std::invalid_argument otherwise.
  void add_row(std::vector<std::string> cells);

  std::size_t rows() const noexcept { return rows_.size(); }

  /// Renders with aligned columns:  `| a   | bb |`.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed decimals (bench output helper).
std::string fmt(double value, int decimals = 2);

/// Formats `value` as an integer with thousands separators: 40200 -> "40,200".
std::string fmt_count(long long value);

}  // namespace cmfl::util
