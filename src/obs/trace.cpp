#include "obs/trace.hpp"

#include <cstdlib>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>

#include "util/flags.hpp"
#include "util/timer.hpp"

namespace ww::obs {

namespace {

/// Per-thread event cap: a fig13-scale campaign with full span coverage
/// stays well under this; anything beyond is a runaway and gets counted
/// into `dropped_events()` instead of eating memory.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

void write_double(std::ostream& out, double v) {
  std::ostringstream buf;
  buf.precision(std::numeric_limits<double>::max_digits10);
  buf << v;
  out << buf.str();
}

}  // namespace

Trace& Trace::instance() {
  static Trace trace;
  return trace;
}

void Trace::set_enabled(bool on) noexcept {
  enabled_.store(on, std::memory_order_relaxed);
}

void Trace::configure_from_env() {
  const char* v = std::getenv("WW_TRACE");
  if (v == nullptr || *v == '\0') return;
  const std::optional<bool> on = util::parse_switch(v);
  if (on.has_value() && !*on) return;
  if (!on.has_value()) set_output_path(v);
  set_enabled(true);
}

void Trace::set_output_path(std::string path) {
  const std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(path);
}

std::string Trace::output_path() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

std::string Trace::metrics_path() const {
  std::string p = output_path();
  const std::string suffix = ".json";
  if (p.size() >= suffix.size() &&
      p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0)
    p.erase(p.size() - suffix.size());
  return p + ".metrics.json";
}

Trace::Buffer& Trace::local_buffer() {
  // One buffer per thread, registered on first use and never deallocated
  // (clear() empties contents but keeps the object), so this cached
  // pointer stays valid for the thread's lifetime.  Tids are assigned in
  // registration order: stable across identical runs of a serial program,
  // and stable enough under the pool (threads register in task order).
  static thread_local Buffer* cached = nullptr;
  if (cached != nullptr) return *cached;
  const std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->tid = static_cast<int>(buffers_.size() - 1);
  cached = buffers_.back().get();
  return *cached;
}

void Trace::append(TraceEvent ev) {
  Buffer& buf = local_buffer();
  const std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.events.size() >= kMaxEventsPerThread) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back(std::move(ev));
}

void Trace::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    const std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
    buf->dropped = 0;
  }
}

std::size_t Trace::event_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    const std::lock_guard<std::mutex> buf_lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

std::size_t Trace::dropped_events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& buf : buffers_) {
    const std::lock_guard<std::mutex> buf_lock(buf->mu);
    n += buf->dropped;
  }
  return n;
}

std::size_t Trace::thread_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return buffers_.size();
}

void Trace::write_chrome_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Normalize timestamps to the earliest buffered event so traces start
  // near t=0 regardless of process uptime.
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const auto& buf : buffers_) {
    const std::lock_guard<std::mutex> buf_lock(buf->mu);
    if (!buf->events.empty() && buf->events.front().ts_us < t0)
      t0 = buf->events.front().ts_us;
  }
  if (t0 == std::numeric_limits<std::int64_t>::max()) t0 = 0;

  out << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& buf : buffers_) {
    const std::lock_guard<std::mutex> buf_lock(buf->mu);
    for (const TraceEvent& ev : buf->events) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\": \"" << ev.name << "\", \"ph\": \"" << ev.phase
          << "\", \"ts\": " << (ev.ts_us - t0)
          << ", \"pid\": 1, \"tid\": " << buf->tid;
      if (!ev.args.empty()) {
        out << ", \"args\": {";
        for (std::size_t i = 0; i < ev.args.size(); ++i) {
          const TraceArg& a = ev.args[i];
          if (i != 0) out << ", ";
          out << '"' << a.key << "\": ";
          if (a.is_int) {
            out << a.int_value;
          } else {
            write_double(out, a.double_value);
          }
        }
        out << '}';
      }
      out << '}';
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

std::string Trace::to_chrome_json() const {
  std::ostringstream out;
  write_chrome_json(out);
  return out.str();
}

void Span::begin() {
  active_ = true;
  TraceEvent ev;
  ev.name = name_;
  ev.phase = 'B';
  ev.ts_us = util::monotonic_micros();
  Trace::instance().append(std::move(ev));
}

void Span::end() {
  TraceEvent ev;
  ev.name = name_;
  ev.phase = 'E';
  ev.ts_us = util::monotonic_micros();
  ev.args = std::move(args_);
  Trace::instance().append(std::move(ev));
}

void Span::push_arg(const char* key, std::int64_t value) {
  TraceArg a;
  a.key = key;
  a.is_int = true;
  a.int_value = value;
  args_.push_back(a);
}

void Span::push_arg(const char* key, double value) {
  TraceArg a;
  a.key = key;
  a.is_int = false;
  a.double_value = value;
  args_.push_back(a);
}

}  // namespace ww::obs
