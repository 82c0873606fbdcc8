#include "perfbench/harness.hpp"

#include <cstdio>
#include <unordered_map>

namespace vapro::perfbench {

std::uint64_t reference_kernel() {
  // Fixed inputs: the same xorshift stream on every call and every commit.
  constexpr std::size_t kSortN = 1 << 14;
  constexpr std::size_t kMapN = 1 << 12;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint32_t> keys(kSortN);
  for (auto& k : keys) k = static_cast<std::uint32_t>(next());
  std::sort(keys.begin(), keys.end());

  std::unordered_map<std::uint32_t, std::uint32_t> map;
  for (std::size_t i = 0; i < kMapN; ++i)
    map[keys[(i * 2654435761u) % kSortN]] = static_cast<std::uint32_t>(i);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kSortN; i += 3) {
    const auto it = map.find(keys[i]);
    if (it != map.end()) sum += it->second;
  }
  return sum ^ keys[kSortN / 2];
}

bool SpanRecorder::write(const std::string& path, const TickRate& rate,
                         std::uint64_t origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = rate.seconds(s.start - origin) * 1e6;
    const double dur = rate.seconds(s.end - s.start) * 1e6;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"window\":%ld,\"episode\":%ld}}\n",
                 i ? "," : "", s.name, ts, dur, i, s.parent, s.window,
                 s.episode);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace vapro::perfbench
