#include "util/csv.hpp"

#include <charconv>
#include <istream>
#include <ostream>

namespace ww::util {

std::string CsvWriter::escape(const std::string& field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

std::string format_double(double value) {
  char buf[64];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  (void)ec;
  return std::string(buf, ptr);
}

CsvReader::CsvReader(std::istream& in) {
  std::string field;
  std::vector<std::string> row;
  bool in_quotes = false;
  bool field_started = false;
  char c;
  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows_.push_back(std::move(row));
    row.clear();
  };
  while (in.get(c)) {
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get(c);
          field += '"';
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // next field exists even if empty
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (field_started || !field.empty() || !row.empty()) end_row();
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  if (field_started || !field.empty() || !row.empty()) end_row();
}

std::vector<std::string> CsvReader::parse_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

}  // namespace ww::util
