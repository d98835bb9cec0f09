// Minimal command-line flag parser for the tools/ binaries, plus the
// strict parsers the WW_* environment switches share.
//
// Supports `--name value`, `--name=value`, boolean `--name` switches, typed
// accessors with defaults, required-flag validation, and auto-generated
// help text.  No external dependencies; order-independent.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ww::util {

/// Parses an on/off switch value: on/1/true or off/0/false, in any case.
/// std::nullopt for anything else.
[[nodiscard]] std::optional<bool> parse_switch(std::string_view value);

/// Reads the boolean environment switch `name`: `unset` when the variable
/// is unset or empty, else its parse_switch() value.  Any other value
/// throws std::invalid_argument naming the variable and the value, so a
/// misspelt ablation switch cannot silently run the default path.
[[nodiscard]] bool env_switch(const char* name, bool unset);

/// Reads the integer environment variable `name`: std::nullopt when the
/// variable is unset or empty, else its value, which must be a whole
/// decimal integer in [lo, hi].  Any other value throws
/// std::invalid_argument naming the variable and the value, as env_switch
/// does.
[[nodiscard]] std::optional<long> env_long(const char* name, long lo, long hi);

/// As env_long, for a real number in [lo, hi] (NaN never qualifies).
[[nodiscard]] std::optional<double> env_double(const char* name, double lo,
                                               double hi);

class Flags {
 public:
  /// Registers a flag before parsing (for help text and validation).
  Flags& define(const std::string& name, const std::string& help,
                const std::string& default_value = "");
  Flags& define_bool(const std::string& name, const std::string& help);

  /// Parses argv; throws std::invalid_argument on unknown flags or a flag
  /// missing its value.  Non-flag arguments collect into positional().
  void parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] long get_long(const std::string& name, long fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

  /// Formatted help text from the define() calls.
  [[nodiscard]] std::string help() const;

 private:
  struct Spec {
    std::string help;
    std::string default_value;
    bool boolean = false;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string program_;
};

}  // namespace ww::util
