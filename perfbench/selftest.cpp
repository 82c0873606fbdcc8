// Unit tests of the harness arithmetic.  Exit code 0 when every check
// passes; each failure is printed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/harness.hpp"

using namespace vapro::perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::fmax(1.0, std::fabs(b)); }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  // raw × R0 / R_run: a host twice as slow as R0 halves every timing, and a
  // host at exactly R0 leaves it unchanged.
  check(near(normalize(3.0, 2 * kR0Seconds), 1.5), "normalize: slow host");
  check(near(normalize(3.0, kR0Seconds), 3.0), "normalize: reference host");
  check(near(normalize(3.0, 0.5 * kR0Seconds), 6.0), "normalize: fast host");
  // Normalization is linear, so ratios of timings survive it.
  check(near(normalize(4.0, 1.7e-3) / normalize(2.0, 1.7e-3), 2.0),
        "normalize: ratios preserved");

  check(near(median({3, 1, 2}), 2.0), "median: odd");
  check(near(median({4, 1, 3, 2}), 2.5), "median: even");

  // Nearest rank: p95 of 1..200 is the 190th sample.
  check(near(percentile(iota(200), 95), 190.0), "percentile: p95 of 200");
  check(near(percentile(iota(10), 50), 5.0), "percentile: p50 of 10");
  check(near(percentile(iota(1), 95), 1.0), "percentile: single sample");

  // Honest percentiles: at least 10 samples beyond the reported one.
  check(samples_beyond(200, 95) == 10, "beyond: 200 @ p95");
  check(samples_beyond(199, 95) == 9, "beyond: 199 @ p95");
  check(supported_percentile(200, 95) == 95, "supported: 200 -> p95");
  check(supported_percentile(1000, 95) == 95, "supported: 1000 -> p95");
  check(supported_percentile(199, 95) == 94, "supported: 199 -> p94");
  check(supported_percentile(100, 95) == 90, "supported: 100 -> p90");
  check(supported_percentile(20, 50) == 50, "supported: 20 -> p50");
  check(supported_percentile(19, 50) == 47, "supported: 19 -> p47");
  check(supported_percentile(10, 50) == -1, "supported: 10 -> none");
  for (std::size_t n = 11; n < 400; ++n) {
    const int p = supported_percentile(n, 95);
    check(p >= 1 && samples_beyond(n, p) >= kTailSamples &&
              (p == 95 || samples_beyond(n, p + 1) < kTailSamples),
          "supported: highest percentile with 10 beyond");
  }

  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  check(near(iqr(iota(10)), 8.25 - 2.75), "iqr: 1..10");
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  check(near(iqr({16, 1, 8, 2, 4}), 12.0 - 1.5), "iqr: unsorted");

  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
