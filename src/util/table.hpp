// Aligned console tables: the benchmark harness prints paper-style rows with
// this helper so every bench produces consistent, diffable output.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ww::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> row);

  void print(std::ostream& out) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Formats a double with fixed precision (helper shared with benches).
  static std::string fixed(double v, int precision = 2);
  /// Formats a percentage like "12.34%".
  static std::string pct(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ww::util
