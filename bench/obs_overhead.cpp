// Self-telemetry cost: the same run with the obs subsystem detached vs
// attached (metrics + PipelineStats + Chrome trace + segmented event
// journal + live HTTP exposition + overhead accounting).
//
// Guards the BENCH trajectory: the acceptance bar for the observability PR
// is < 3% relative end-to-end overhead, i.e. watching the tool must stay
// far cheaper than the tool itself (which targets the paper's < 1.38% of
// the *application*, Table 1).  Prints per-mode wall times, the relative
// telemetry overhead, and the accountant's own tool-time split.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/apps/npb.hpp"
#include "src/core/vapro.hpp"
#include "src/obs/context.hpp"
#include "src/util/table.hpp"

namespace {

using namespace vapro;

struct ModeResult {
  double best_seconds = 0.0;
  double tool_seconds = 0.0;       // accountant view (obs mode only)
  std::size_t windows = 0;
  std::size_t trace_events = 0;
  std::size_t journal_events = 0;
};

double run_once(bool with_obs, ModeResult* out) {
  sim::SimConfig cfg;
  cfg.ranks = 64;
  cfg.cores_per_node = 8;
  cfg.seed = 11;  // identical run either way — the sim is deterministic
  sim::Simulator simulator(cfg);

  obs::ObsContext ctx;
  core::VaproOptions opts;
  opts.window_seconds = 0.1;
  if (with_obs) {
    // The full surface the acceptance bar covers: metrics + trace +
    // journal (to real segment files) + live HTTP exposition all enabled.
    // Segments are never overwritten, so every run starts from an empty
    // directory.
    opts.obs = &ctx;
    ctx.enable_trace();
    obs::SegmentOptions seg;
    seg.directory = "/tmp/vapro_obs_overhead_journal";
    std::filesystem::remove_all(seg.directory);
    ctx.attach_journal_segments(std::move(seg));
    ctx.start_exposition(0);
  }
  core::VaproSession session(simulator, opts);

  apps::NpbParams p;
  p.iters = 600;
  const auto t0 = std::chrono::steady_clock::now();
  simulator.run(apps::cg(p));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (with_obs) {
    session.server().journal_detection_snapshot();
    out->tool_seconds = ctx.overhead().tool_seconds();
    out->windows = ctx.windows().windows().size();
    out->trace_events = ctx.trace() ? ctx.trace()->size() : 0;
    out->journal_events = ctx.journal() ? ctx.journal()->events_emitted() : 0;
  }
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Self-telemetry overhead: obs off vs on",
                      "repo acceptance: telemetry < 3% of end-to-end");
  bench::JsonReport json("obs_overhead", argc, argv);

  constexpr int kRepeats = 9;
  ModeResult off, on;
  // Warm both paths once, then interleave the measured pairs so slow
  // machine-wide drift hits both modes equally.
  run_once(false, &off);
  run_once(true, &on);
  std::vector<double> off_walls, on_walls, pair_overheads;
  for (int r = 0; r < kRepeats; ++r) {
    off_walls.push_back(run_once(false, &off));
    on_walls.push_back(run_once(true, &on));
    pair_overheads.push_back((on_walls.back() - off_walls.back()) /
                             off_walls.back());
  }
  off.best_seconds = *std::min_element(off_walls.begin(), off_walls.end());
  on.best_seconds = *std::min_element(on_walls.begin(), on_walls.end());

  // Two views of the same cost.  The per-pair median is kept as a trend
  // series, but on small shared hosts a run carries scheduler noise of
  // the same magnitude as the telemetry itself, so the *gate* compares
  // best-of-N walls: descheduling only ever adds time, so the minimum of
  // each mode is the cleanest estimate of its true cost.
  std::sort(pair_overheads.begin(), pair_overheads.end());
  const double pair_median = pair_overheads[pair_overheads.size() / 2];
  const double off_min = *std::min_element(off_walls.begin(), off_walls.end());
  const double on_min = *std::min_element(on_walls.begin(), on_walls.end());
  const double overhead = (on_min - off_min) / off_min;
  // Same-mode spread = the host's noise floor.  When repeats of the
  // IDENTICAL configuration differ by more than the bar itself, a 3%
  // cross-mode difference is unresolvable and the bar can only be
  // informational — the same honesty rule pipeline_scaling applies to
  // its 2x bar on <4-core hosts.
  auto spread = [](std::vector<double> w) {
    std::sort(w.begin(), w.end());
    return (w[w.size() / 2] - w.front()) / w.front();
  };
  const double noise_floor = std::max(spread(off_walls), spread(on_walls));

  util::TextTable table(
      {"mode", "best wall (ms)", "windows", "trace events", "journal events"});
  table.add_row(
      {"obs off", util::fmt(off.best_seconds * 1e3, 2), "-", "-", "-"});
  table.add_row({"obs on", util::fmt(on.best_seconds * 1e3, 2),
                 std::to_string(on.windows), std::to_string(on.trace_events),
                 std::to_string(on.journal_events)});
  table.print(std::cout);

  std::cout << "\ntelemetry overhead: " << util::fmt(overhead * 100.0, 2)
            << "% of end-to-end runtime, best-of-" << kRepeats
            << " walls (bar: < 3%)\n"
            << "paired-median overhead: " << util::fmt(pair_median * 100.0, 2)
            << "% (trend series; noisy on small shared hosts)\n"
            << "accountant: " << util::fmt(on.tool_seconds * 1e3, 2)
            << " ms tool time inside the obs run\n";
  auto to_ms = [](std::vector<double> walls) {
    for (double& w : walls) w *= 1e3;
    return walls;
  };
  json.record("obs_off_wall_ms", to_ms(off_walls));
  json.record("obs_on_wall_ms", to_ms(on_walls));
  json.record("telemetry_overhead_frac", pair_overheads);
  json.record("telemetry_overhead_best_frac", {overhead});
  json.record("noise_floor_frac", {noise_floor});
  if (!json.write()) return 1;
  // Negative just means the difference drowned in noise.
  if (overhead >= 0.03) {
    if (noise_floor >= 0.03) {
      std::cout << "NOTE: same-mode noise floor "
                << util::fmt(noise_floor * 100.0, 2)
                << "% exceeds the 3% bar — measurement inconclusive on "
                   "this host, bar informational\n";
      return 0;
    }
    std::cout << "WARNING: telemetry overhead above the 3% bar\n";
    return 1;
  }
  return 0;
}
