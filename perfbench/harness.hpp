// Measurement harness of the online-path benchmark: a cheap tick clock, the
// host reference kernel every timing is normalized by, the honest-percentile
// rule, an in-memory span recorder, and the metric table the benchmark prints.
//
// Everything here is owned by the benchmark and must stay fixed across the
// commits it compares: changing the reference kernel or R0 changes the unit
// every normalized timing is expressed in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace vapro::perfbench {

// --- tick clock -------------------------------------------------------------

// Raw timestamp.  On x86 this is the TSC: a read costs ~22 ns on a 4-vCPU
// Xeon VM against ~47 ns for steady_clock::now(), and interception hooks
// are timed on every call.  Ticks become seconds through a rate
// calibrated against steady_clock over the whole run (TickRate).
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

class TickRate {
 public:
  TickRate() : t0_(ticks()), s0_(std::chrono::steady_clock::now()) {}
  // Re-derives ticks per second from everything elapsed since construction;
  // call once after the measured work, before converting.
  void calibrate() {
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - s0_)
                            .count();
    const double dt = static_cast<double>(ticks() - t0_);
    if (secs > 0 && dt > 0) per_second_ = dt / secs;
  }
  double seconds(std::uint64_t dt) const {
    return static_cast<double>(dt) / per_second_;
  }

 private:
  std::uint64_t t0_;
  std::chrono::steady_clock::time_point s0_;
  double per_second_ = 1e9;
};

// --- reference kernel ---------------------------------------------------------

// Host-speed reference: a fixed sort + hash-map workload (~2 ms on a
// 4-vCPU Xeon VM) run once per analysis window at a fixed point outside
// every timed span.  Its time R tracks what co-tenant contention does to
// the process; every timing is reported as raw × R0 / R.
// Returns a checksum so the work cannot be elided; a run fails if it ever
// changes.
std::uint64_t reference_kernel();
inline constexpr double kR0Seconds = 2.0e-3;

// raw × R0 / R: expresses `raw` in seconds of a host whose reference kernel
// takes exactly R0.  A rate (per second) is normalized by the same rule
// applied to the time it divides by.
inline double normalize(double raw, double r_seconds) {
  return raw * kR0Seconds / r_seconds;
}

// --- order statistics ---------------------------------------------------------

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it.
inline double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return v[rank - 1];
}

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, int p) {
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
  return n - std::min(rank, n);
}

// Honest percentiles: the highest percentile <= `wanted` with at least
// `kTailSamples` samples beyond it (so p95 needs >= 200 samples), or -1
// when not even the minimum is supported.
inline constexpr std::size_t kTailSamples = 10;
inline int supported_percentile(std::size_t n, int wanted) {
  for (int p = wanted; p >= 1; --p)
    if (samples_beyond(n, p) >= kTailSamples) return p;
  return -1;
}

// Interquartile range (Python statistics.quantiles, n=4, "exclusive").
inline double iqr(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  auto q = [&](double m) {
    const double pos = m * static_cast<double>(v.size() + 1) - 1.0;
    const double lo = std::floor(pos);
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(lo, 0.0, static_cast<double>(v.size() - 1)));
    const std::size_t j = std::min(i + 1, v.size() - 1);
    const double frac = std::clamp(pos - lo, 0.0, 1.0);
    return v[i] + (v[j] - v[i]) * frac;
  };
  return q(0.75) - q(0.25);
}

// --- spans ---------------------------------------------------------------------

// Spans around the benchmark's own calls into each layer, kept in memory
// and written as Chrome trace-event JSON when the run ends.  Only recorded
// in --trace 1 runs; hooks are aggregated per window rather than spanned
// (one span per intercepted call would dwarf the calls themselves).
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::uint64_t start;
    std::uint64_t end;
    int parent;          // index of the enclosing span, -1 at the root
    long window;         // window ordinal within the episode, -1 if none
    long episode;
  };

  void enable(bool on) { enabled_ = on; }
  // Opens a span (returns its index, or -1 when disabled); close with end().
  int begin(const char* name, long window, long episode) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, ticks(), 0, parent, window, episode});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void end(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = ticks();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }
  // Chrome trace JSON (microseconds since `origin`).
  bool write(const std::string& path, const TickRate& rate,
             std::uint64_t origin) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- metric table -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  // printed beside the value (e.g. percentile actually used)
};

class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples, std::string note = {}) {
    metrics_[name] = {value, unit, samples, std::move(note)};
  }
  // A host-normalized timing and its raw counterpart "raw.<name>".
  void timing(const std::string& name, double normalized, double raw,
              const std::string& unit, std::size_t samples,
              std::string note = {}) {
    set(name, normalized, unit, samples, note);
    set("raw." + name, raw, unit, samples, std::move(note));
  }
  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

}  // namespace vapro::perfbench
