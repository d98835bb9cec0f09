#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace ww::util {
namespace {

Flags make_flags() {
  Flags f;
  f.define("name", "a string flag", "default")
      .define("count", "a numeric flag", "3")
      .define("rate", "a double flag", "0.5")
      .define_bool("verbose", "a switch");
  return f;
}

void parse(Flags& f, std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  f.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, DefaultsApply) {
  Flags f = make_flags();
  parse(f, {});
  EXPECT_EQ(f.get("name"), "default");
  EXPECT_EQ(f.get_long("count", -1), 3);
  EXPECT_DOUBLE_EQ(f.get_double("rate", -1.0), 0.5);
  EXPECT_FALSE(f.get_bool("verbose"));
}

TEST(Flags, SpaceSeparatedValues) {
  Flags f = make_flags();
  parse(f, {"--name", "waterwise", "--count", "42"});
  EXPECT_EQ(f.get("name"), "waterwise");
  EXPECT_EQ(f.get_long("count", -1), 42);
  EXPECT_TRUE(f.has("name"));
  EXPECT_FALSE(f.has("rate"));
}

TEST(Flags, EqualsSyntax) {
  Flags f = make_flags();
  parse(f, {"--rate=0.75", "--verbose"});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 0.75);
  EXPECT_TRUE(f.get_bool("verbose"));
}

TEST(Flags, BoolWithExplicitValue) {
  Flags f = make_flags();
  parse(f, {"--verbose=false"});
  EXPECT_FALSE(f.get_bool("verbose"));
  Flags g = make_flags();
  parse(g, {"--verbose=yes"});
  EXPECT_TRUE(g.get_bool("verbose"));
}

TEST(Flags, PositionalArguments) {
  Flags f = make_flags();
  parse(f, {"input.csv", "--name", "x", "output.csv"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "output.csv");
  EXPECT_EQ(f.program(), "prog");
}

TEST(Flags, UnknownFlagThrows) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--bogus", "1"}), std::invalid_argument);
}

TEST(Flags, MissingValueThrows) {
  Flags f = make_flags();
  EXPECT_THROW(parse(f, {"--name"}), std::invalid_argument);
}

TEST(Flags, UndefinedGetThrows) {
  Flags f = make_flags();
  parse(f, {});
  EXPECT_THROW((void)f.get("nonexistent"), std::out_of_range);
  EXPECT_EQ(f.get_or("nonexistent", "fb"), "fb");
}

TEST(Flags, HelpListsAllFlags) {
  const Flags f = make_flags();
  const std::string h = f.help();
  EXPECT_NE(h.find("--name"), std::string::npos);
  EXPECT_NE(h.find("--verbose"), std::string::npos);
  EXPECT_NE(h.find("a numeric flag"), std::string::npos);
}

TEST(Switch, ParsesOnOffSpellingsInAnyCase) {
  for (const char* on : {"on", "ON", "On", "1", "true", "TRUE", "True"})
    EXPECT_EQ(parse_switch(on), true) << on;
  for (const char* off : {"off", "OFF", "Off", "0", "false", "FALSE", "fAlSe"})
    EXPECT_EQ(parse_switch(off), false) << off;
  for (const char* other : {"", "yes", "no", "2", "of", " on", "trace.json"})
    EXPECT_EQ(parse_switch(other), std::nullopt) << other;
}

TEST(Switch, EnvSwitchRejectsOtherValuesByName) {
  const char* name = "WW_FLAGS_TEST_SWITCH";
  unsetenv(name);
  EXPECT_TRUE(env_switch(name, true));
  EXPECT_FALSE(env_switch(name, false));
  setenv(name, "", 1);  // empty counts as unset
  EXPECT_TRUE(env_switch(name, true));
  setenv(name, "Off", 1);
  EXPECT_FALSE(env_switch(name, true));
  setenv(name, "yes", 1);
  try {
    (void)env_switch(name, false);
    ADD_FAILURE() << "env_switch accepted 'yes'";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(name), std::string::npos) << what;
    EXPECT_NE(what.find("'yes'"), std::string::npos) << what;
  }
  unsetenv(name);
}

/// Expects `read()` to throw std::invalid_argument naming `name` and `value`.
template <typename Read>
void expect_rejects(const char* name, const char* value, Read read) {
  setenv(name, value, 1);
  try {
    (void)read();
    ADD_FAILURE() << name << " accepted '" << value << "'";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(name), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("'") + value + "'"), std::string::npos)
        << what;
  }
}

TEST(Switch, EnvLongAcceptsIntegersInRange) {
  const char* name = "WW_FLAGS_TEST_LONG";
  unsetenv(name);
  EXPECT_EQ(env_long(name, 0, 1024), std::nullopt);
  setenv(name, "", 1);  // empty counts as unset
  EXPECT_EQ(env_long(name, 0, 1024), std::nullopt);
  for (const auto& [text, value] :
       {std::pair{"0", 0L}, std::pair{"2", 2L}, std::pair{"4", 4L},
        std::pair{"+8", 8L}, std::pair{"1024", 1024L}}) {
    setenv(name, text, 1);
    EXPECT_EQ(env_long(name, 0, 1024), value) << text;
  }
  unsetenv(name);
}

TEST(Switch, EnvLongRejectsMalformedAndOutOfRangeValues) {
  const char* name = "WW_FLAGS_TEST_LONG";
  for (const char* bad : {"two", "2.5", "1.0", "2 ", " 2", "0x2", "-1", "1025",
                          "99999999999999999999999"})
    expect_rejects(name, bad, [name] { return env_long(name, 0, 1024); });
  unsetenv(name);
}

TEST(Switch, EnvDoubleAcceptsNumbersInRange) {
  const char* name = "WW_FLAGS_TEST_DOUBLE";
  unsetenv(name);
  EXPECT_EQ(env_double(name, 0.0, 1.0), std::nullopt);
  for (const auto& [text, value] :
       {std::pair{"0", 0.0}, std::pair{"0.25", 0.25}, std::pair{"1", 1.0},
        std::pair{"1e-3", 1e-3}, std::pair{".5", 0.5}}) {
    setenv(name, text, 1);
    EXPECT_EQ(env_double(name, 0.0, 1.0), value) << text;
  }
  unsetenv(name);
}

TEST(Switch, EnvDoubleRejectsMalformedAndOutOfRangeValues) {
  const char* name = "WW_FLAGS_TEST_DOUBLE";
  for (const char* bad : {"1.5", "-0.1", "nan", "inf", "quarter", "0.25x",
                          " 0.25", "1e999"})
    expect_rejects(name, bad, [name] { return env_double(name, 0.0, 1.0); });
  unsetenv(name);
}

}  // namespace
}  // namespace ww::util
