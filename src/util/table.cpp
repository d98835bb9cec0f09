#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace ww::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::add_row(std::vector<std::string> row) {
  row.resize(headers_.size());
  rows_.push_back(std::move(row));
  return *this;
}

std::string Table::fixed(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::pct(double v, int precision) {
  return fixed(v, precision) + "%";
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      out << ' ' << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << '\n';
  };
  auto print_sep = [&] {
    out << "+";
    for (const std::size_t w : widths) out << std::string(w + 2, '-') << '+';
    out << '\n';
  };

  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

}  // namespace ww::util
