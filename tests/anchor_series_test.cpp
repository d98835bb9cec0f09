// Absolute anchors for the campaign inputs: 64-bit FNV-1a hashes of
// generated traces and of the builtin environment's hourly series.  The
// byte-identity checks elsewhere compare one mode against another, so a
// change that moves every mode the same way passes them; these pins do not.
// A change that moves a trace or a series on purpose re-pins here, in the
// same commit, and says why.
//
// The environment half also checks that the series are the same whatever
// order they are read in, from one thread or several: the models generate
// their hourly rows on first read, and the result must not depend on which
// query came first.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <vector>

#include "env/environment.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"
#include "util/work_steal.hpp"

namespace ww {
namespace {

class Fnv1a {
 public:
  Fnv1a& add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv1a& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  Fnv1a& add(int v) { return add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_jobs(const std::vector<trace::Job>& jobs) {
  Fnv1a h;
  for (const trace::Job& j : jobs) {
    h.add(j.id).add(j.submit_time).add(j.home_region).add(j.benchmark);
    h.add(j.exec_seconds).add(j.avg_power_watts).add(j.package_bytes);
  }
  return h.value();
}

struct TracePin {
  const char* name;
  trace::TraceConfig config;
  double floor_s;  ///< Submit times floored to this grid (0 = none).
  std::size_t jobs;
  std::uint64_t hash;
};

TEST(TraceAnchor, PinnedOutputs) {
  const TracePin pins[] = {
      {"borg seed 1", trace::borg_config(1, 0.5), 0.0, 7411,
       0x3216b76e50635f3fULL},
      {"borg seed 2", trace::borg_config(2, 0.5), 0.0, 8574,
       0xf1e1c83dc9ba3d45ULL},
      {"alibaba seed 1", trace::alibaba_config(1, 0.1), 0.0, 14231,
       0x40cc3cfcdc4b9084ULL},
      {"alibaba seed 2", trace::alibaba_config(2, 0.1), 0.0, 16600,
       0x331c019440b1d3b0ULL},
      {"borg 300 s floor seed 1", trace::borg_config(1, 1.0), 300.0, 18526,
       0x24e89c5e510666d1ULL},
      {"borg 300 s floor seed 2", trace::borg_config(2, 1.0), 300.0, 22262,
       0x24d53542354672b2ULL},
      {"borg 10 d seed 3", trace::borg_config(3, 10.0), 0.0, 251908,
       0xc10b01143b778f1eULL},
      {"alibaba 2 d seed 3", trace::alibaba_config(3, 2.0), 0.0, 415679,
       0x742ac626350cceb1ULL},
  };
  for (const TracePin& pin : pins) {
    std::vector<trace::Job> jobs = trace::generate_trace(pin.config);
    if (pin.floor_s > 0.0)
      for (trace::Job& j : jobs)
        j.submit_time = std::floor(j.submit_time / pin.floor_s) * pin.floor_s;
    EXPECT_EQ(jobs.size(), pin.jobs) << pin.name;
    EXPECT_EQ(hash_jobs(jobs), pin.hash)
        << pin.name << ": 0x" << std::hex << hash_jobs(jobs);
  }
}

// --- Environment series ----------------------------------------------------

/// One hash per series kind over every region, on a grid of every hour of
/// the horizon (offset within the hour so interpolation is exercised) plus
/// one day past it (clamped to the last hour).
struct SeriesHashes {
  std::uint64_t carbon = 0;
  std::uint64_t ewif = 0;
  std::uint64_t wue = 0;
  std::uint64_t mix = 0;
};

double grid_time(int h) { return h * 3600.0 + 900.0 * (h % 4); }

SeriesHashes hash_series(const env::Environment& e) {
  const int hours = (e.config().horizon_days + 1) * 24;
  Fnv1a carbon, ewif, wue, mix;
  for (int r = 0; r < e.num_regions(); ++r) {
    for (int h = 0; h < hours; ++h) {
      const double t = grid_time(h);
      carbon.add(e.carbon_intensity(r, t));
      ewif.add(e.ewif(r, t));
      wue.add(e.wue(r, t));
      for (const env::EnergySource s : env::all_sources())
        mix.add(e.mix_share(r, s, t));
    }
  }
  return {carbon.value(), ewif.value(), wue.value(), mix.value()};
}

TEST(EnvironmentAnchor, BuiltinSeriesPinned) {
  const SeriesHashes em = hash_series(env::Environment::builtin());
  EXPECT_EQ(em.carbon, 0x643fe0ec927c1051ULL) << std::hex << em.carbon;
  EXPECT_EQ(em.ewif, 0x7da18ab540fd2852ULL) << std::hex << em.ewif;
  EXPECT_EQ(em.wue, 0xf13313d67a45b89bULL) << std::hex << em.wue;
  EXPECT_EQ(em.mix, 0x42463e35ae3fbabcULL) << std::hex << em.mix;

  env::EnvironmentConfig wri;
  wri.dataset = env::WaterDataset::WorldResourcesInstitute;
  const SeriesHashes w = hash_series(env::Environment::builtin(wri));
  EXPECT_EQ(w.ewif, 0x8337d416f053dd9bULL) << std::hex << w.ewif;
  // The dataset switch selects a column; it does not reseed anything.
  EXPECT_EQ(w.carbon, em.carbon);
  EXPECT_EQ(w.wue, em.wue);
  EXPECT_EQ(w.mix, em.mix);
}

/// Every value an Environment serves at one grid time, in a fixed layout.
constexpr int kValuesPerPoint = 3 + env::kNumEnergySources;

void read_point(const env::Environment& e, int r, int h, double* out) {
  const double t = grid_time(h);
  out[0] = e.carbon_intensity(r, t);
  out[1] = e.ewif(r, t);
  out[2] = e.wue(r, t);
  int k = 3;
  for (const env::EnergySource s : env::all_sources())
    out[k++] = e.mix_share(r, s, t);
}

TEST(EnvironmentSeries, ReadOrderIndependent) {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 20;
  const int hours = (cfg.horizon_days + 1) * 24;
  const int regions = 5;
  const auto points = static_cast<std::size_t>(hours * regions);
  const auto slot = [hours](int r, int h) {
    return static_cast<std::size_t>((r * hours + h) * kValuesPerPoint);
  };

  std::vector<double> forward(points * kValuesPerPoint);
  {
    const env::Environment e = env::Environment::builtin(cfg);
    for (int r = 0; r < regions; ++r)
      for (int h = 0; h < hours; ++h)
        read_point(e, r, h, &forward[slot(r, h)]);
  }
  const auto expect_same = [&](const std::vector<double>& got,
                               const char* order) {
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
      if (std::bit_cast<std::uint64_t>(got[i]) !=
          std::bit_cast<std::uint64_t>(forward[i]))
        ++mismatches;
    EXPECT_EQ(mismatches, 0u) << order;
  };

  {
    std::vector<double> got(forward.size());
    const env::Environment e = env::Environment::builtin(cfg);
    for (int r = regions - 1; r >= 0; --r)
      for (int h = hours - 1; h >= 0; --h)
        read_point(e, r, h, &got[slot(r, h)]);
    expect_same(got, "backward");
  }
  {
    std::vector<int> order(points);
    for (std::size_t i = 0; i < points; ++i) order[i] = static_cast<int>(i);
    util::Rng rng(42);
    rng.shuffle(order);
    std::vector<double> got(forward.size());
    const env::Environment e = env::Environment::builtin(cfg);
    for (const int p : order)
      read_point(e, p / hours, p % hours, &got[slot(p / hours, p % hours)]);
    expect_same(got, "shuffled");
  }
  {
    // Four readers start together on one fresh Environment, each walking
    // the grid from a different place, so first reads of a day race.
    constexpr int kReaders = 4;
    std::vector<std::vector<double>> got(
        kReaders, std::vector<double>(forward.size()));
    const env::Environment e = env::Environment::builtin(cfg);
    util::WorkStealingPool pool(kReaders);
    std::latch start(kReaders);
    pool.parallel_for(kReaders, [&](std::size_t i) {
      start.arrive_and_wait();
      const auto offset = static_cast<int>(i) * hours / kReaders;
      for (int r = 0; r < regions; ++r)
        for (int k = 0; k < hours; ++k) {
          const int h = (offset + k) % hours;
          read_point(e, r, h, &got[i][slot(r, h)]);
        }
    });
    for (const std::vector<double>& g : got) expect_same(g, "four threads");
  }
}

}  // namespace
}  // namespace ww
