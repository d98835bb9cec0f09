#include "util/flags.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace ww::util {

std::optional<bool> parse_switch(std::string_view value) {
  std::string s(value);
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (s == "on" || s == "1" || s == "true") return true;
  if (s == "off" || s == "0" || s == "false") return false;
  return std::nullopt;
}

namespace {

/// Parses the whole of `v` with `parse` (a strtol/strtod shape) into
/// [lo, hi], or throws std::invalid_argument naming `name` and `v`.
template <typename T, typename Parse>
T parse_env_number(const char* name, const char* v, T lo, T hi,
                   const char* what, Parse parse) {
  char* end = nullptr;
  errno = 0;
  const T parsed = parse(v, &end);
  // strtol/strtod skip leading blanks; a set value must be the number alone.
  const bool whole = end != v && *end == '\0' &&
                     std::isspace(static_cast<unsigned char>(*v)) == 0;
  if (!whole || errno == ERANGE || !(parsed >= lo && parsed <= hi))
    throw std::invalid_argument(std::string(name) + "='" + v +
                                "': expected " + what + " in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  return parsed;
}

}  // namespace

std::optional<long> env_long(const char* name, long lo, long hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return parse_env_number<long>(
      name, v, lo, hi, "an integer",
      [](const char* s, char** end) { return std::strtol(s, end, 10); });
}

std::optional<double> env_double(const char* name, double lo, double hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return parse_env_number<double>(
      name, v, lo, hi, "a number",
      [](const char* s, char** end) { return std::strtod(s, end); });
}

Flags& Flags::define(const std::string& name, const std::string& help,
                     const std::string& default_value) {
  specs_[name] = Spec{help, default_value, false};
  return *this;
}

Flags& Flags::define_bool(const std::string& name, const std::string& help) {
  specs_[name] = Spec{help, "false", true};
  return *this;
}

void Flags::parse(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end())
      throw std::invalid_argument("unknown flag --" + arg + "\n" + help());
    if (it->second.boolean) {
      values_[arg] = has_value ? value : "true";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc)
        throw std::invalid_argument("flag --" + arg + " needs a value");
      value = argv[++i];
    }
    values_[arg] = value;
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it != values_.end()) return it->second;
  const auto spec = specs_.find(name);
  if (spec != specs_.end()) return spec->second.default_value;
  throw std::out_of_range("flag --" + name + " was never defined");
}

std::string Flags::get_or(const std::string& name,
                          const std::string& fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : fallback;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const std::string v = get_or(name, "");
  if (v.empty()) {
    const auto spec = specs_.find(name);
    if (spec != specs_.end() && !spec->second.default_value.empty())
      return std::stod(spec->second.default_value);
    return fallback;
  }
  return std::stod(v);
}

long Flags::get_long(const std::string& name, long fallback) const {
  const std::string v = get_or(name, "");
  if (v.empty()) {
    const auto spec = specs_.find(name);
    if (spec != specs_.end() && !spec->second.default_value.empty())
      return std::stol(spec->second.default_value);
    return fallback;
  }
  return std::stol(v);
}

bool Flags::get_bool(const std::string& name) const {
  const std::string v = get_or(name, "false");
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string Flags::help() const {
  std::ostringstream os;
  os << "Flags:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.boolean) os << " <value>";
    if (!spec.default_value.empty() && spec.default_value != "false")
      os << " (default: " << spec.default_value << ")";
    os << "\n      " << spec.help << "\n";
  }
  return os.str();
}

}  // namespace ww::util
