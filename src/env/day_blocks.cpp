#include "env/day_blocks.hpp"

#include <sys/mman.h>

#include <new>
#include <stdexcept>
#include <string>

namespace ww::env {

namespace {
constexpr std::size_t kHoursPerBlock = 24;
}  // namespace

DayBlocks::DayBlocks(int horizon_hours, const char* who)
    : hours_(horizon_hours > 0 ? static_cast<std::size_t>(horizon_hours) : 0) {
  if (horizon_hours <= 0)
    throw std::invalid_argument(std::string(who) +
                                ": horizon must be positive");
}

void* map_pages(std::size_t bytes) {
  void* pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return pages;
}

void unmap_pages(void* pages, std::size_t bytes) noexcept {
  ::munmap(pages, bytes);
}

void DayBlocks::grow(std::size_t hour) const {
  // Rows past the horizon never become ready, so every such hour lands
  // here: a point computed on another horizon.
  if (hour >= hours_)
    throw std::out_of_range("DayBlocks: hour " + std::to_string(hour) +
                            " is past the horizon of " +
                            std::to_string(hours_) + " hours");
  const std::lock_guard<std::mutex> lock(grow_mutex_);
  // Another reader may have generated this day while we waited.
  const std::size_t begin = ready_.load(std::memory_order_relaxed);
  if (hour < begin) return;
  const std::size_t end =
      std::min(hours_, (hour / kHoursPerBlock + 1) * kHoursPerBlock);
  generate(begin, end);
  ready_.store(end, std::memory_order_release);
}

}  // namespace ww::env
