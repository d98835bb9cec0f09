// Generate-on-first-read bookkeeping for the hourly environment series.
//
// The energy-mix and weather models draw their hourly rows from one RNG
// stream in hour order, so row h depends on every row before it.  A
// campaign reads a few days of a horizon of hundreds, so instead of
// generating the whole horizon at construction a model generates whole
// days, in order, the first time a query reaches past the rows it already
// has.  The rows drawn are the same in either case, so every value is
// bit-identical to a full-horizon build whatever order queries come in.
//
// The generated prefix only grows and a row is never rewritten, so a
// reader needs only the watermark: an acquire load that sees hour h ready
// also sees row h.  Growth takes a mutex, so const queries from several
// threads are safe.
//
// The rows live in HourlyRows arrays sized to the full horizon: anonymous
// pages of their own, zero-filled by the system on first touch.  A heap
// array of the same size can be handed memory that earlier allocations
// already made resident, and leaves a hole when freed, so the days a run
// never generates would still cost memory.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <type_traits>

namespace ww::env {

/// Maps `bytes` of zero-filled anonymous pages; throws std::bad_alloc when
/// the system refuses.
[[nodiscard]] void* map_pages(std::size_t bytes);
/// Returns pages from map_pages(bytes) to the system.
void unmap_pages(void* pages, std::size_t bytes) noexcept;

/// `n` rows of T in pages mapped for this array alone; a row's page becomes
/// resident when the row is first written.
template <class T>
class HourlyRows {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  explicit HourlyRows(std::size_t n)
      : bytes_(n * sizeof(T)), rows_(static_cast<T*>(map_pages(bytes_))) {
    // Default-initialising a trivial T writes nothing, so no page is
    // touched here.
    std::uninitialized_default_construct_n(rows_, n);
  }
  ~HourlyRows() { unmap_pages(rows_, bytes_); }
  HourlyRows(const HourlyRows&) = delete;
  HourlyRows& operator=(const HourlyRows&) = delete;

  [[nodiscard]] T& operator[](std::size_t h) const noexcept {
    return rows_[h];
  }
  [[nodiscard]] const T* data() const noexcept { return rows_; }

 private:
  std::size_t bytes_;
  T* rows_;
};

/// Interpolation point of time t (seconds) on a series of `hours` hourly
/// rows: the hours on either side, clamped to [0, hours), and the weight
/// of the later one.  Computing it reads no row, so the series of one
/// Environment, which share its horizon, share one point per instant.
struct HourPoint {
  std::size_t lo;
  std::size_t hi;
  double frac;
};
[[nodiscard]] inline HourPoint hour_point(double t_seconds,
                                          std::size_t hours) noexcept {
  const double h = std::max(0.0, t_seconds / 3600.0);
  const auto lo =
      static_cast<std::size_t>(std::min(h, static_cast<double>(hours - 1)));
  const std::size_t hi = std::min(lo + 1, hours - 1);
  return {lo, hi, std::clamp(h - static_cast<double>(lo), 0.0, 1.0)};
}

class DayBlocks {
 public:
  virtual ~DayBlocks() = default;

  DayBlocks(const DayBlocks&) = delete;
  DayBlocks& operator=(const DayBlocks&) = delete;

  [[nodiscard]] int horizon_hours() const noexcept {
    return static_cast<int>(hours_);
  }

 protected:
  /// Throws std::invalid_argument, prefixed by `who`, unless
  /// horizon_hours > 0.  Generates nothing.
  DayBlocks(int horizon_hours, const char* who);

  /// The interpolation point of time t on this model's horizon.
  [[nodiscard]] HourPoint point(double t_seconds) const noexcept {
    return hour_point(t_seconds, hours_);
  }

  /// Makes rows [0, hour] readable; throws std::out_of_range unless `hour`
  /// is below horizon_hours().  The fast path is one acquire load, inlined
  /// into every query.
  void ensure(std::size_t hour) const {
    if (hour >= ready_.load(std::memory_order_acquire)) grow(hour);
  }

  /// Linear interpolation of an hourly series at point `p` of this
  /// model's horizon, making its rows ready first.
  [[nodiscard]] double interpolate(const double* series,
                                   const HourPoint& p) const {
    ensure(p.hi);
    return series[p.lo] * (1.0 - p.frac) + series[p.hi] * p.frac;
  }

 private:
  /// Writes rows [begin, end), in order, continuing the model's generator
  /// state from row begin - 1.  Called under the growth mutex only.
  virtual void generate(std::size_t begin, std::size_t end) const = 0;

  /// Generates the days up to and including the one holding `hour`.
  void grow(std::size_t hour) const;

  std::size_t hours_;
  mutable std::atomic<std::size_t> ready_{0};  ///< Rows [0, ready_) exist.
  mutable std::mutex grow_mutex_;
};

}  // namespace ww::env
