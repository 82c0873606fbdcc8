// Online-path benchmark of Vapro: runs one seeded workload through the
// library's public entry points for a fixed time, checks the outputs, and
// prints every metric by name with its unit and sample count.  The last
// stdout line is one JSON object: end-to-end metrics (--trace 0) or
// per-layer metrics (--trace 1).
//
//   vapro_perfbench --workload cg_online|cluster_heavy|nekbone_served
//                   --seed N --seconds S --trace 0|1 --work-dir DIR
//                   [--trace-out FILE]
//
// Exit codes: 0 ok, 1 an output check failed, 2 bad usage or build.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/workloads.hpp"

using namespace vapro::perfbench;

namespace {

// The end-to-end metrics, in print order; everything else is per-layer.
const std::vector<std::string> kEndToEnd = {
    "tool_s_per_app_s",      "analysis_frags_per_s",
    "window_latency_ms.p50", "window_latency_ms.p95",
    "detect_f1",             "diag_top_factor_acc",
    "bytes_per_fragment",    "windows_ok_frac",
    "peak_rss_mb",           "setup_s"};

// Untraced windows a run needs so that p95 is honest (10 samples beyond).
constexpr std::size_t kMinLatencySamples = 200;
constexpr int kSetupRepsPerEpisode = 10;
constexpr int kMinEpisodesPerKind = 3;

// Pins the process (and every thread it starts later) to the last `n`
// CPUs it may run on; returns them as text, or "" when not pinned.
std::string pin_to_cpus(int n) {
  cpu_set_t allowed;
  if (n <= 0 || sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "";
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string text;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      text = std::to_string(cpu) + (text.empty() ? "" : "," + text);
      --n;
    }
  return sched_setaffinity(0, sizeof pinned, &pinned) == 0 ? text : "";
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") o->workload = value;
    else if (key == "--seed") o->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") o->seconds = std::atof(value.c_str());
    else if (key == "--trace") o->trace = value == "1";
    else if (key == "--work-dir") o->work_dir = value;
    else if (key == "--trace-out") o->trace_out = value;
    else return false;
  }
  return argc % 2 == 1 && !o->workload.empty() && !o->work_dir.empty() &&
         o->seconds > 0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Fn>
std::vector<double> each(const std::vector<const Episode*>& eps, Fn&& fn) {
  std::vector<double> out;
  for (const Episode* e : eps) out.push_back(fn(*e));
  return out;
}

void report(const Run& run, const Workload& workload,
            const std::vector<Episode>& episodes, double peak_rss_mb,
            MetricTable& m) {
  auto sec = [&run](std::uint64_t t) { return run.rate.seconds(t); };

  // Episode 0 warmed caches and lazy set-up: it counts for outputs and
  // checks, not for timings.  In a trace run, measured episodes alternate
  // traced/untraced; end-to-end timings come from the untraced ones.
  const Episode& first = episodes.front();
  std::vector<const Episode*> plain, traced;
  for (std::size_t i = 1; i < episodes.size(); ++i)
    (episodes[i].traced ? traced : plain).push_back(&episodes[i]);
  const std::vector<const Episode*>& layer = traced.empty() ? plain : traced;

  // Every timing is normalized by the median reference time of its own
  // episode.  Host speed drifts within a run, so a run-wide median would
  // blur it; a single kernel call is too noisy to scale one window by.
  auto episode_ref = [&sec](const Episode& e) {
    std::vector<double> r;
    for (std::uint64_t t : e.reference) r.push_back(sec(t));
    return median(r);
  };
  // Median over `eps` of a per-episode timing, normalized and raw.
  auto timing = [&](const std::string& name,
                    const std::vector<const Episode*>& eps, auto&& raw,
                    const std::string& unit = "s") {
    m.timing(name, median(each(eps, [&](const Episode& e) {
               return normalize(raw(e), episode_ref(e));
             })),
             median(each(eps, raw)), unit, eps.size());
  };
  auto tool = [&sec](const Episode& e) {
    return sec(e.hook + e.process_window + e.sync + e.send_batch + e.flush +
               e.tenant_sync);
  };
  auto tool_per_app = [&](const Episode& e) {
    return tool(e) / e.app_seconds;
  };

  // --- end to end ---
  timing("tool_s_per_app_s", plain, tool_per_app, "s/s");
  std::vector<double> latency_ms, raw_latency_ms, rate, raw_rate;
  for (const Episode* e : plain) {
    const double ref = episode_ref(*e);
    double sum = 0.0, raw_sum = 0.0;
    for (std::uint64_t l : e->latency) {
      const double raw = sec(l);
      const double norm = normalize(raw, ref);
      latency_ms.push_back(norm * 1e3);
      raw_latency_ms.push_back(raw * 1e3);
      sum += norm;
      raw_sum += raw;
    }
    rate.push_back(static_cast<double>(e->fragments) / sum);
    raw_rate.push_back(static_cast<double>(e->fragments) / raw_sum);
  }
  m.timing("analysis_frags_per_s", median(rate), median(raw_rate), "1/s",
           plain.size());
  for (int wanted : {50, 95}) {
    const int p = std::max(supported_percentile(latency_ms.size(), wanted), 1);
    m.timing("window_latency_ms.p" + std::to_string(wanted),
             percentile(latency_ms, p), percentile(raw_latency_ms, p), "ms",
             latency_ms.size(),
             p == wanted ? "" : "only p" + std::to_string(p) + " is supported");
  }
  m.set("detect_f1", first.score.f1(), "ratio", episodes.size());
  m.set("diag_top_factor_acc", first.score.top_factor_accuracy(), "ratio",
        episodes.size(),
        workload.diagnoses() ? "" : "vacuous: diagnosis off, no truth to name");
  m.set("bytes_per_fragment",
        static_cast<double>(first.payload_bytes) /
            static_cast<double>(first.fragments),
        "B", episodes.size());
  std::uint64_t attempted = 0, applied = 0;
  for (const Episode& e : episodes) {
    attempted += e.windows_attempted;
    applied += e.windows_applied;
  }
  m.set("windows_ok_frac",
        static_cast<double>(applied) / static_cast<double>(attempted), "ratio",
        attempted);
  m.set("peak_rss_mb", peak_rss_mb, "MB", 1);
  std::vector<double> setup, raw_setup;
  for (const std::vector<const Episode*>* eps : {&plain, &traced})
    for (const Episode* e : *eps)
      for (std::uint64_t t : e->setup) {
        setup.push_back(normalize(sec(t), episode_ref(*e)));
        raw_setup.push_back(sec(t));
      }
  m.timing("setup_s", median(setup), median(raw_setup), "s", setup.size());

  // --- per layer ---
  const std::size_t n = layer.size();
  m.set("client.hook_calls", static_cast<double>(first.hook_calls), "count", n);
  timing("client.hook_s", layer, [&](const Episode& e) { return sec(e.hook); });
  timing(
      "client.hook_ns_per_call", layer,
      [&](const Episode& e) {
        return e.hook_calls ? sec(e.hook) * 1e9 / e.hook_calls : 0.0;
      },
      "ns");
  timing("server.process_window_s", layer,
         [&](const Episode& e) { return sec(e.process_window); });
  timing("server.sync_s", layer, [&](const Episode& e) { return sec(e.sync); });
  const std::pair<const char*, double vapro::obs::PipelineStats::*> stages[] = {
      {"stage.drain_s", &vapro::obs::PipelineStats::drain_seconds},
      {"stage.queue_wait_s", &vapro::obs::PipelineStats::queue_wait_seconds},
      {"stage.stg_s", &vapro::obs::PipelineStats::stg_seconds},
      {"stage.cluster_s", &vapro::obs::PipelineStats::cluster_seconds},
      {"stage.normalize_s", &vapro::obs::PipelineStats::normalize_seconds},
      {"stage.deposit_s", &vapro::obs::PipelineStats::deposit_seconds},
      {"stage.diagnose_s", &vapro::obs::PipelineStats::diagnose_seconds},
      {"stage.publish_s", &vapro::obs::PipelineStats::publish_seconds}};
  for (const auto& [name, field] : stages)
    timing(name, layer, [field](const Episode& e) { return e.stages.*field; });
  m.set("server.clusters",
        static_cast<double>(layer.front()->stages.clusters_formed), "count", n);
  m.set("server.rare_clusters", static_cast<double>(first.rare_clusters),
        "count", n);
  auto lanes_busy = [](const Episode& e) {
    double sum = 0;
    for (double b : e.pool.shard_busy_seconds) sum += b;
    return sum;
  };
  timing("pool.shard_busy_s", layer, lanes_busy);
  timing("pool.shard_idle_s", layer,
         [](const Episode& e) { return e.pool.shard_idle_seconds; });
  m.set("pool.shard_imbalance", median(each(layer, [&](const Episode& e) {
          const auto& lanes = e.pool.shard_busy_seconds;
          if (lanes.empty() || lanes_busy(e) <= 0) return 0.0;
          return *std::max_element(lanes.begin(), lanes.end()) /
                 (lanes_busy(e) / static_cast<double>(lanes.size()));
        })),
        "ratio", n);
  timing("net.send_batch_s", layer,
         [&](const Episode& e) { return sec(e.send_batch); });
  timing("net.flush_s", layer, [&](const Episode& e) { return sec(e.flush); });
  timing("net.tenant_sync_s", layer,
         [&](const Episode& e) { return sec(e.tenant_sync); });
  const bool served = first.net_client.batches_sent > 0;
  m.set("net.wire_bytes", served ? static_cast<double>(first.payload_bytes) : 0,
        "B", n);
  m.set("net.retries", static_cast<double>(first.net_client.retries), "count", n);
  m.set("net.batches_shed", static_cast<double>(first.tenant.shed), "count", n);
  m.set("net.batches_rejected", static_cast<double>(first.tenant.rejected),
        "count", n);
  m.set("net.batches_deduped", static_cast<double>(first.tenant.duplicates),
        "count", n);
  m.set("journal.bytes_per_window",
        first.windows_applied ? static_cast<double>(first.journal_bytes) /
                                    static_cast<double>(first.windows_applied)
                              : 0.0,
        "B", n);
  timing("journal.read_s", layer,
         [&](const Episode& e) { return sec(e.journal_read); });
  timing("sim.app_wall_s", layer, [&](const Episode& e) {
    std::uint64_t reference = 0;
    for (std::uint64_t t : e.reference) reference += t;
    return sec(e.wall) - tool(e) - sec(reference);
  });
  std::vector<double> ref_s;
  for (const std::vector<const Episode*>* eps : {&plain, &traced})
    for (const Episode* e : *eps)
      for (std::uint64_t t : e->reference) ref_s.push_back(sec(t));
  m.set("host.ref_ms", median(ref_s) * 1e3, "ms", ref_s.size());
  m.set("host.ref_iqr_ms", iqr(ref_s) * 1e3, "ms", ref_s.size());
  auto normalized_tool = [&](const std::vector<const Episode*>& eps) {
    return median(each(eps, [&](const Episode& e) {
      return normalize(tool_per_app(e), episode_ref(e));
    }));
  };
  m.set("trace.overhead_frac",
        traced.empty() ? 0.0 : normalized_tool(traced) / normalized_tool(plain) - 1.0,
        "ratio", traced.size());
}

int run_main(const Options& opts) {
#ifndef NDEBUG
  std::cerr << "refusing to measure: built without NDEBUG (not Release)\n";
  return 2;
#endif
  if (std::string(VAPRO_BENCH_BUILD_TYPE) != "Release") {
    std::cerr << "refusing to measure: build type " << VAPRO_BENCH_BUILD_TYPE
              << " (need Release)\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(opts);
  if (!workload) {
    std::cerr << "unknown workload '" << opts.workload << "'\n";
    return 2;
  }
  std::filesystem::create_directories(opts.work_dir);
  std::cout << "host: " << cpu_model() << ", nproc "
            << std::thread::hardware_concurrency() << ", "
            << VAPRO_BENCH_COMPILER << ", " << VAPRO_BENCH_BUILD_TYPE << "\n";
  const std::string pinned = pin_to_cpus(workload->cpus());
  std::cout << "workload " << opts.workload << ", seed " << opts.seed << ", "
            << opts.seconds << " s, trace " << opts.trace << ", cpus "
            << (pinned.empty() ? "all" : pinned) << "\n";

  Run run;
  const std::uint64_t origin = ticks();
  std::vector<Episode> episodes;
  auto elapsed = [&] { return run.rate.seconds(ticks() - origin); };
  std::size_t plain_windows = 0;
  int plain_eps = 0, traced_eps = 0;
  // The tick rate is calibrated once before the loop (so the time budget
  // is meaningful) and again after it over the whole run.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  run.rate.calibrate();
  const std::uint64_t loop_start = ticks();
  for (long i = 0;; ++i) {
    const bool traced = opts.trace && i % 2 == 1;
    run.spans.enable(traced);
    episodes.push_back(workload->episode(run, traced, i));
    if (episodes.back().reference.size() != episodes.back().latency.size())
      throw std::runtime_error("a window was handed over but never reported");
    if (i > 0) {
      if (traced) {
        ++traced_eps;
      } else {
        ++plain_eps;
        plain_windows += episodes.back().latency.size();
      }
    }
    run.spans.enable(false);
    for (int r = 0; r < kSetupRepsPerEpisode; ++r)
      episodes.back().setup.push_back(workload->setup_once());
    const bool enough = plain_windows >= kMinLatencySamples &&
                        plain_eps >= kMinEpisodesPerKind &&
                        (!opts.trace || traced_eps >= kMinEpisodesPerKind);
    if (episodes.front().fingerprint != episodes.back().fingerprint)
      throw std::runtime_error(
          "episode outputs differ for one seed:\n--- episode 0\n" +
          episodes.front().fingerprint + "--- episode " + std::to_string(i) +
          "\n" + episodes.back().fingerprint);
    if (run.rate.seconds(ticks() - loop_start) >= opts.seconds && enough) break;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  workload->final_checks(episodes.front());
  if (!run.checksum_ok)
    throw std::runtime_error("reference kernel checksum changed mid-run");
  run.rate.calibrate();

  MetricTable metrics;
  report(run, *workload, episodes, peak_rss_mb, metrics);
  std::uint64_t attempted = 0, failed = 0;
  for (const Episode& e : episodes) {
    attempted += e.windows_attempted;
    failed += e.windows_attempted - e.windows_applied;
  }
  std::cout << "episodes " << episodes.size() << " (1 warm-up), windows "
            << attempted << ", wall " << fmt(elapsed()) << " s\n";

  // Text: every metric with unit, sample count and — for a normalized
  // timing — its raw value.
  const auto& all = metrics.all();
  auto is_e2e = [](const std::string& name) {
    return std::find(kEndToEnd.begin(), kEndToEnd.end(), name) !=
           kEndToEnd.end();
  };
  auto line = [&](const std::string& name, const Metric& mt) {
    std::cout << "  " << name << " = " << fmt(mt.value) << " " << mt.unit
              << " (n=" << mt.samples;
    const auto raw = all.find("raw." + name);
    if (raw != all.end()) std::cout << ", raw " << fmt(raw->second.value);
    std::cout << ")" << (mt.note.empty() ? "" : " [" + mt.note + "]") << "\n";
  };
  std::cout << "end-to-end (host-normalized, R0 = " << kR0Seconds * 1e3
            << " ms, host.ref_ms = " << fmt(all.at("host.ref_ms").value)
            << "):\n";
  for (const std::string& name : kEndToEnd) line(name, all.at(name));
  if (opts.trace) {
    std::cout << "per-layer (traced episodes):\n";
    for (const auto& [name, mt] : all)
      if (!is_e2e(name) && name.rfind("raw.", 0) != 0) line(name, mt);
    if (!opts.trace_out.empty() &&
        !run.spans.write(opts.trace_out, run.rate, origin))
      throw std::runtime_error("cannot write spans to " + opts.trace_out);
  }

  std::cout << "{\"correct\": true, \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  bool comma = false;
  for (const auto& [name, mt] : all) {
    if (is_e2e(name) == opts.trace) continue;
    std::cout << (comma ? ", " : "") << "\"" << name << "\": {\"value\": "
              << fmt(mt.value) << ", \"unit\": \"" << mt.unit << "\"}";
    comma = true;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse(argc, argv, &opts)) {
    std::cerr << "usage: vapro_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--trace-out FILE]\n";
    return 2;
  }
  try {
    return run_main(opts);
  } catch (const std::exception& e) {
    std::cerr << "CHECK FAILED: " << e.what() << "\n";
    return 1;
  }
}
