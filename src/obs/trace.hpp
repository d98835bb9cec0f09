// Span tracing with Chrome trace-event JSON export.
//
// `obs::Span` is a scoped RAII marker: construction appends a 'B' (begin)
// event to the calling thread's buffer, destruction appends the matching
// 'E' (end) event carrying any `arg()` annotations.  Buffers are
// per-thread (registered once, stable tids in registration order, each
// guarded by its own uncontended mutex), so appends never serialize
// against other threads and per-thread timestamp order is monotone by
// construction.
//
// Determinism contract: tracing is *observational*.  Timestamps come from
// util::monotonic_micros() and are write-only — no scheduling decision may
// read them — so decision streams are byte-identical with tracing on or
// off (tests/core_scheduler_parallel_test.cpp enforces this).  When
// tracing is disabled (the default) a Span costs one relaxed load of an
// inline flag: the constructor, destructor and arg() are inline tests of
// that flag (or of the span's own active bit), and only the event-building
// slow paths live out of line in trace.cpp.
//
// Export is the Chrome trace-event JSON array format: load the file in
// chrome://tracing or https://ui.perfetto.dev.  Gating: WW_TRACE env
// (Trace::configure_from_env) or `--trace-out` on tools/waterwise_sim.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ww::obs {

/// One key/value annotation on a span.  Keys and span names must be
/// string literals (or otherwise outlive the Trace singleton): events
/// store the pointer, not a copy, to keep the hot path allocation-light.
struct TraceArg {
  const char* key = nullptr;
  bool is_int = true;
  std::int64_t int_value = 0;
  double double_value = 0.0;
};

struct TraceEvent {
  const char* name = nullptr;
  char phase = 'B';  ///< 'B' or 'E' (Chrome trace duration events).
  std::int64_t ts_us = 0;
  std::vector<TraceArg> args;
};

class Trace {
 public:
  static Trace& instance();

  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept;

  /// WW_TRACE unset, empty or an off value (util::parse_switch: off/0/false
  /// in any case) leaves tracing disabled; an on value (on/1/true) enables
  /// with the default output path ("ww_trace.json"); any other value
  /// enables and is taken as the output path.  Reads the environment on
  /// every call (benches invoke it once at startup).
  void configure_from_env();

  void set_output_path(std::string path);
  [[nodiscard]] std::string output_path() const;
  /// Companion metrics dump path: output path with the trailing ".json"
  /// (if any) replaced by ".metrics.json".
  [[nodiscard]] std::string metrics_path() const;

  /// Appends to the calling thread's buffer; drops (and counts) once the
  /// per-thread cap is hit so a runaway trace cannot exhaust memory.
  void append(TraceEvent ev);

  /// Drops all buffered events and drop counts.  Buffers stay registered
  /// (thread_local pointers into them must remain valid), tids are stable.
  void clear();

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::size_t dropped_events() const;
  [[nodiscard]] std::size_t thread_count() const;

  /// Chrome trace-event JSON: {"traceEvents": [...]} with ts normalized to
  /// the earliest buffered event.  Buffers emit in tid order, events in
  /// append order (monotone per tid).
  void write_chrome_json(std::ostream& out) const;
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  struct Buffer {
    mutable std::mutex mu;
    int tid = 0;
    std::vector<TraceEvent> events;
    std::size_t dropped = 0;
  };

  Trace() = default;
  Buffer& local_buffer();

  /// A plain static, not a function-local one, so enabled() is one relaxed
  /// load with no initialization guard.
  inline static std::atomic<bool> enabled_{false};

  mutable std::mutex mu_;  ///< Guards buffers_ growth and path config.
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::string path_ = "ww_trace.json";
};

class Span {
 public:
  /// `name` must be a string literal (stored by pointer).
  explicit Span(const char* name) : name_(name) {
    if (Trace::enabled()) begin();
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  /// Annotations surface in the trace viewer on the span's end event.
  /// No-ops when tracing was disabled at construction.
  void arg(const char* key, std::int64_t value) {
    if (active_) push_arg(key, value);
  }
  void arg(const char* key, double value) {
    if (active_) push_arg(key, value);
  }
  void arg(const char* key, int value) {
    arg(key, static_cast<std::int64_t>(value));
  }
  void arg(const char* key, std::size_t value) {
    arg(key, static_cast<std::int64_t>(value));
  }

  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  // Out-of-line slow paths, taken only while tracing.
  void begin();
  void end();
  void push_arg(const char* key, std::int64_t value);
  void push_arg(const char* key, double value);

  const char* name_;
  bool active_ = false;
  std::vector<TraceArg> args_;
};

}  // namespace ww::obs
