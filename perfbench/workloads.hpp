// The benchmark's three seeded workloads and what one episode of each
// measures.  An episode constructs the program's objects (timed as set-up),
// drives one whole input through Vapro's public entry points, and tears
// everything down; a run repeats identical episodes until its time is up.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.hpp"
#include "src/core/server.hpp"
#include "src/net/client.hpp"
#include "src/net/session.hpp"
#include "src/obs/pipeline.hpp"
#include "src/obs/quality.hpp"

namespace vapro::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch space for journal segments
  std::string trace_out;  // span file written at exit (trace runs)
};

// Everything one episode measured.  Timings are in ticks (TickRate converts
// them once the run is over); counts must repeat exactly for a seed.
struct Episode {
  bool traced = false;
  // --- timings (ticks) ---
  // Construct → ready: this episode's own set-up, then the set-up-only
  // repetitions that follow it.
  std::vector<std::uint64_t> setup;
  std::uint64_t wall = 0;            // first window's input → last result
  // Reference kernel, once per window just before its hand-off (aligned
  // with `latency`).
  std::vector<std::uint64_t> reference;
  std::uint64_t hook = 0;            // interceptor hooks
  std::uint64_t process_window = 0;  // AnalysisServer::process_window
  std::uint64_t sync = 0;            // AnalysisServer::sync
  std::uint64_t send_batch = 0;      // IngestClient::send_batch
  std::uint64_t flush = 0;           // IngestClient::flush
  std::uint64_t tenant_sync = 0;     // TenantSession::sync
  std::uint64_t journal_read = 0;    // segment read-back + summary
  std::vector<std::uint64_t> latency;  // per window: hand-off → analysed
  // --- counts ---
  std::uint64_t hook_calls = 0;
  std::uint64_t windows_attempted = 0;
  std::uint64_t windows_applied = 0;
  std::uint64_t fragments = 0;       // fragments handed to analysis
  std::uint64_t payload_bytes = 0;   // client-recorded or wire bytes
  std::uint64_t journal_bytes = 0;
  double app_seconds = 0.0;          // virtual span of the input
  obs::QualityScore score;
  std::size_t rare_clusters = 0;
  core::PipelineBreakdown pool;
  net::ClientStats net_client;
  net::TenantStats tenant;
  // Per-window stage sums from the server's ObsContext (traced episodes).
  obs::PipelineStats stages;
  // Rendered outputs + counts; must be identical across episodes.
  std::string fingerprint;
};

// State shared by all episodes of one run.
struct Run {
  TickRate rate;
  SpanRecorder spans;
  bool checksum_seen = false;
  std::uint64_t checksum = 0;
  bool checksum_ok = true;

  // Runs the reference kernel; returns its ticks.
  std::uint64_t run_reference(long episode);
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One full episode.  `traced` attaches the server's ObsContext and
  // records spans.  Output checks that fail throw std::runtime_error.
  virtual Episode episode(Run& run, bool traced, long index) = 0;
  // Constructs the program's objects, times construct → ready, tears them
  // down untimed; returns the ticks.
  virtual std::uint64_t setup_once() = 0;
  // Checks that need the whole run (e.g. served vs in-process tables);
  // throws std::runtime_error on failure.
  virtual void final_checks(const Episode& first) { (void)first; }
  // True when the workload runs the progressive diagnoser.
  virtual bool diagnoses() const = 0;
  // CPUs the whole process is pinned to before the first episode (0 = no
  // pinning).  The single-CPU workloads hand windows between threads that
  // mostly wait on each other; on one CPU such a hand-off is a context
  // switch, while across idle vCPUs it is a wake-up whose latency follows
  // the load of the shared host rather than the code under test.
  virtual int cpus() const = 0;
};

// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const Options& opts);

}  // namespace vapro::perfbench
