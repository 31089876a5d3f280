#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace cmfl::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("Table: header must have at least one column");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("Table: row has " + std::to_string(cells.size()) +
                                " cells, expected " +
                                std::to_string(header_.size()));
  }
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << row[c] << std::string(width[c] - row[c].size(), ' ') << " |";
    }
    os << '\n';
  };
  print_row(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string fmt_count(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (negative) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace cmfl::util
