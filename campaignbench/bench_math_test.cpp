// Tests of the benchmark's own metric math (bench_math.hpp).  run.py runs
// this after every build and refuses to benchmark when it fails.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_math.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  std::cerr << "FAIL: " << what << "\n";
  ++failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the quantile must sort
}

void test_tail_rule() {
  using campaignbench::quantile;
  using campaignbench::samples_beyond;
  check(samples_beyond(1000, 0.99) == 10, "p99 of 1000 leaves 10 beyond");
  check(samples_beyond(999, 0.99) == 9, "p99 of 999 leaves 9 beyond");
  check(samples_beyond(20, 0.50) == 10, "p50 of 20 leaves 10 beyond");
  check(samples_beyond(1, 0.0) == 0, "rank clamps to the first sample");
  check(near(quantile(ramp(1000), 0.99), 990.0), "p99 of 1..1000 is 990");
  check(near(quantile(ramp(1001), 0.99), 991.0), "p99 of 1..1001 is 991");
  check(near(quantile(ramp(20), 0.50), 10.0), "p50 of 1..20 is 10");
  check(throws([] { (void)quantile(ramp(999), 0.99); }),
        "p99 of 999 samples is refused");
  check(throws([] { (void)quantile(ramp(19), 0.50); }),
        "p50 of 19 samples is refused");
  check(throws([] { (void)quantile({}, 0.5); }), "no samples is refused");
  check(near(campaignbench::median({3.0, 1.0, 2.0, 4.0}), 2.0),
        "median of an even count is the lower middle");
}

void test_self_time_folding() {
  using campaignbench::fold_self_seconds;
  using campaignbench::parse_chrome_trace;
  // tid 0: A[0,100] holds B[10,50] (holding C[20,30]) and B[60,80];
  // tid 1 interleaves D[5,45] holding C[15,25].
  const std::string json =
      "{\"traceEvents\": [\n"
      "{\"name\": \"A\", \"ph\": \"B\", \"ts\": 0, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"D\", \"ph\": \"B\", \"ts\": 5, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"B\", \"ph\": \"B\", \"ts\": 10, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"C\", \"ph\": \"B\", \"ts\": 15, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"C\", \"ph\": \"B\", \"ts\": 20, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"C\", \"ph\": \"E\", \"ts\": 25, \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"n\": 3, \"x\": 0.5}},\n"
      "{\"name\": \"C\", \"ph\": \"E\", \"ts\": 30, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"D\", \"ph\": \"E\", \"ts\": 45, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"B\", \"ph\": \"E\", \"ts\": 50, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"B\", \"ph\": \"B\", \"ts\": 60, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"B\", \"ph\": \"E\", \"ts\": 80, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"A\", \"ph\": \"E\", \"ts\": 100, \"pid\": 1, \"tid\": 0}\n"
      "], \"displayTimeUnit\": \"ms\"}\n";
  const auto events = parse_chrome_trace(json);
  check(events.size() == 12, "parses every event line");
  const auto self = fold_self_seconds(events);
  check(near(self.at("A"), 40e-6), "A self = 100 - 40 - 20");
  check(near(self.at("B"), 50e-6), "B self = (40 - 10) + 20");
  check(near(self.at("C"), 20e-6), "C self sums both threads");
  check(near(self.at("D"), 30e-6), "D self = 40 - 10");
  double total = 0.0;
  for (const auto& [name, s] : self) total += s;
  check(near(total, 140e-6), "self times partition the root spans");

  using campaignbench::SpanEvent;
  check(throws([] {
          (void)fold_self_seconds(
              {SpanEvent{"A", 'B', 0, 0}, SpanEvent{"B", 'E', 1, 0}});
        }),
        "mis-nested end is refused");
  check(throws([] { (void)fold_self_seconds({SpanEvent{"A", 'B', 0, 0}}); }),
        "unclosed span is refused");
}

void test_host_scale() {
  using campaignbench::host_scale;
  using campaignbench::kReferenceKernelSeconds;
  check(near(host_scale(kReferenceKernelSeconds), 1.0),
        "a reference-speed host scales by 1");
  // A neighbour that slows the kernel by k and the campaign by
  // k ^ kHostExponent cancels out.
  const double raw_s = 0.8, kernel_s = 1.1e-3, k = 1.4;
  check(near(std::pow(k, campaignbench::kHostExponent) * raw_s *
                 host_scale(k * kernel_s),
             raw_s * host_scale(kernel_s)),
        "a host slowdown cancels");
  check(throws([] { (void)host_scale(0.0); }), "a zero kernel time is refused");
  check(campaignbench::reference_kernel() == campaignbench::reference_kernel(),
        "the kernel does the same work every pass");
  const double t = campaignbench::time_reference_kernel();
  check(t > 0.0 && t < 1.0, "the kernel takes well under a second");
}

void test_fingerprint() {
  using campaignbench::Fingerprint;
  const auto a = Fingerprint().add(1.0).add(2L).value();
  check(a == Fingerprint().add(1.0).add(2L).value(), "fingerprint repeats");
  check(a != Fingerprint().add(2L).add(1.0).value(), "fingerprint is ordered");
  check(a != Fingerprint().add(std::nextafter(1.0, 2.0)).add(2L).value(),
        "fingerprint sees the last bit");
}

}  // namespace

int main() {
  test_tail_rule();
  test_self_time_folding();
  test_host_scale();
  test_fingerprint();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "bench_math_test: all checks passed\n";
  return 0;
}
