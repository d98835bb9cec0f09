// Minimal CSV reader/writer for trace and result files.
//
// Deliberately small: quoted fields with embedded commas/quotes/newlines are
// supported on read and produced on write when needed; no locale dependence.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ww::util {

class CsvWriter {
 public:
  /// Writes rows to `out`; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const std::vector<std::string>& fields);

  static std::string escape(const std::string& field);

 private:
  std::ostream& out_;
};

class CsvReader {
 public:
  /// Parses the entire stream eagerly; rows() is then random-access.
  explicit CsvReader(std::istream& in);

  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

  /// Parses a single CSV line (no embedded newlines).
  static std::vector<std::string> parse_line(const std::string& line);

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with enough digits to round-trip.
[[nodiscard]] std::string format_double(double value);

}  // namespace ww::util
