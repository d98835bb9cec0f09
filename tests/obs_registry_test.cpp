#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace ww::obs {
namespace {

TEST(Registry, RegisterOrLookupReturnsStableHandles) {
  Registry r;
  const Counter a = r.counter("a");
  const Counter b = r.counter("b");
  EXPECT_NE(a.id, b.id);
  EXPECT_EQ(r.counter("a").id, a.id);  // same name, same handle
  const Hist h = r.histogram("h", 0.0, 1.0, 4);
  EXPECT_EQ(r.histogram("h", 0.0, 1.0, 4).id, h.id);
}

TEST(Registry, HistogramRelayoutThrows) {
  Registry r;
  (void)r.histogram("h", 0.0, 1.0, 4);
  EXPECT_THROW((void)r.histogram("h", 0.0, 1.0, 8), std::invalid_argument);
  EXPECT_THROW((void)r.histogram("h", 0.0, 2.0, 4), std::invalid_argument);
}

TEST(Registry, HistogramRejectsInfiniteBounds) {
  // The Histogram constructor rejects the layout, so no name is left
  // registered and a valid layout may take it afterwards.
  Registry r;
  constexpr double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)r.histogram("h", 0.0, inf, 10), std::invalid_argument);
  EXPECT_THROW((void)r.histogram("h", -inf, 1.0, 10), std::invalid_argument);
  EXPECT_EQ(r.find_hist("h"), nullptr);
  (void)r.histogram("h", 0.0, 1.0, 10);
  ASSERT_NE(r.find_hist("h"), nullptr);
  EXPECT_EQ(r.find_hist("h")->hi(), 1.0);
}

TEST(Registry, InvalidHandlesAreIgnored) {
  // Default-constructed handles let optional instrumentation stay unwired:
  // mutators must be silent no-ops, never UB.
  Registry r;
  const Counter c = r.counter("c");
  r.add(Counter{});
  r.add(Gauge{}, 1.0);
  r.set(Gauge{}, 1.0);
  r.observe(Hist{}, 1.0);
  EXPECT_EQ(r.counter_value(c), 0u);
}

TEST(Registry, JsonIsNameOrderedAndParseable) {
  Registry r;
  r.add(r.counter("z.last"), 2);
  r.add(r.counter("a.first"), 1);
  r.set(r.gauge("g"), 1.5);
  r.observe(r.histogram("h", 0.0, 10.0, 10), 3.5);
  const std::string json = r.to_json();
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
  // Same values => same bytes: the export is deterministic.
  EXPECT_EQ(json, r.to_json());
}

TEST(Registry, FindByNameAndReset) {
  Registry r;
  const Counter c = r.counter("c");
  const Hist h = r.histogram("h", 0.0, 1.0, 2);
  r.add(c, 7);
  r.observe(h, 0.25);
  ASSERT_NE(r.find_counter("c"), nullptr);
  EXPECT_EQ(*r.find_counter("c"), 7u);
  ASSERT_NE(r.find_hist("h"), nullptr);
  EXPECT_EQ(r.find_hist("h")->total(), 1u);
  EXPECT_EQ(r.find_counter("missing"), nullptr);
  EXPECT_EQ(r.find_hist("missing"), nullptr);
  r.reset_values();
  EXPECT_EQ(r.counter_value(c), 0u);  // handles survive the reset
  EXPECT_EQ(r.hist(h).total(), 0u);
}

}  // namespace
}  // namespace ww::obs
