#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <latch>
#include <string>

#include "util/work_steal.hpp"

namespace ww::obs {
namespace {

/// The Trace singleton is process-global; every test restores the
/// disabled/empty state so ordering cannot leak between tests.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::instance().set_enabled(false);
    Trace::instance().clear();
  }
  void TearDown() override {
    Trace::instance().set_enabled(false);
    Trace::instance().clear();
    unsetenv("WW_TRACE");
  }
};

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST_F(TraceTest, DisabledSpanBuffersNothing) {
  const std::size_t before = Trace::instance().event_count();
  {
    Span span("test.disabled");
    span.arg("k", 1);
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(Trace::instance().event_count(), before);
}

TEST_F(TraceTest, SpansEmitMatchedPairsInNestingOrder) {
  Trace::instance().set_enabled(true);
  {
    Span outer("test.outer");
    outer.arg("jobs", 3);
    {
      Span inner("test.inner");
      inner.arg("x", 1.5);
    }
  }
  Trace::instance().set_enabled(false);
  EXPECT_EQ(Trace::instance().event_count(), 4u);
  const std::string json = Trace::instance().to_chrome_json();
  EXPECT_EQ(count_of(json, "\"ph\": \"B\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\": \"E\""), 2u);
  // B at construction, E at destruction: outer-B, inner-B, inner-E,
  // outer-E — the order Chrome's viewer needs for duration nesting.
  const std::size_t outer_b = json.find("test.outer");
  const std::size_t inner_b = json.find("test.inner");
  const std::size_t inner_e = json.find("test.inner", inner_b + 1);
  const std::size_t outer_e = json.find("test.outer", outer_b + 1);
  EXPECT_LT(outer_b, inner_b);
  EXPECT_LT(inner_b, inner_e);
  EXPECT_LT(inner_e, outer_e);
  // Annotations ride the end events.
  EXPECT_NE(json.find("\"jobs\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"x\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST_F(TraceTest, EnablementIsCheckedAtConstruction) {
  // A span that began while tracing was on must still emit its end event
  // after tracing turns off, or the B/E pairing would break mid-stream.
  Trace::instance().set_enabled(true);
  {
    Span span("test.straddle");
    Trace::instance().set_enabled(false);
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(Trace::instance().event_count(), 2u);
  // And one that began while off stays silent even if tracing turns on.
  {
    Span span("test.late");
    Trace::instance().set_enabled(true);
    EXPECT_FALSE(span.active());
  }
  Trace::instance().set_enabled(false);
  EXPECT_EQ(Trace::instance().event_count(), 2u);
}

TEST_F(TraceTest, ClearKeepsBuffersRegistered) {
  Trace::instance().set_enabled(true);
  { Span span("test.seed"); }
  const std::size_t threads = Trace::instance().thread_count();
  EXPECT_GE(threads, 1u);
  Trace::instance().clear();
  EXPECT_EQ(Trace::instance().event_count(), 0u);
  // tids are stable: the cleared buffer is reused, not re-registered.
  EXPECT_EQ(Trace::instance().thread_count(), threads);
  { Span span("test.reuse"); }
  Trace::instance().set_enabled(false);
  EXPECT_EQ(Trace::instance().event_count(), 2u);
  EXPECT_EQ(Trace::instance().thread_count(), threads);
}

TEST_F(TraceTest, WorkerThreadsGetOwnBuffers) {
  Trace::instance().set_enabled(true);
  util::WorkStealingPool pool(2);
  // On a single-core host one worker can drain every task before the
  // other wakes; the latch forces both workers to hold a task at once so
  // each must register its own per-thread buffer.
  std::latch both_started(2);
  pool.parallel_for(2, [&both_started](std::size_t i) {
    both_started.arrive_and_wait();
    Span span("test.worker");
    span.arg("i", i);
  });
  Trace::instance().set_enabled(false);
  EXPECT_EQ(Trace::instance().event_count(), 4u);
  EXPECT_GE(Trace::instance().thread_count(), 2u);
  const std::string json = Trace::instance().to_chrome_json();
  EXPECT_EQ(count_of(json, "test.worker"), 4u);
}

TEST_F(TraceTest, ConfigureFromEnvSemantics) {
  Trace& trace = Trace::instance();
  for (const char* off : {"", "0", "off", "OFF", "Off", "false", "FALSE"}) {
    setenv("WW_TRACE", off, 1);
    trace.configure_from_env();
    EXPECT_FALSE(Trace::enabled()) << "WW_TRACE='" << off << "'";
  }
  unsetenv("WW_TRACE");
  trace.configure_from_env();
  EXPECT_FALSE(Trace::enabled());

  for (const char* on : {"1", "on", "On", "TRUE"}) {
    trace.set_enabled(false);
    setenv("WW_TRACE", on, 1);
    trace.configure_from_env();
    EXPECT_TRUE(Trace::enabled()) << "WW_TRACE='" << on << "'";
    EXPECT_EQ(trace.output_path(), "ww_trace.json") << on;
  }
  EXPECT_EQ(trace.metrics_path(), "ww_trace.metrics.json");

  setenv("WW_TRACE", "/tmp/run7.json", 1);
  trace.configure_from_env();
  EXPECT_TRUE(Trace::enabled());
  EXPECT_EQ(trace.output_path(), "/tmp/run7.json");
  EXPECT_EQ(trace.metrics_path(), "/tmp/run7.metrics.json");

  trace.set_output_path("bare_name");  // no .json suffix to strip
  EXPECT_EQ(trace.metrics_path(), "bare_name.metrics.json");
}

}  // namespace
}  // namespace ww::obs
