#include "perfbench/workloads.hpp"

#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "src/apps/npb.hpp"
#include "src/apps/solvers.hpp"
#include "src/core/journal_replay.hpp"
#include "src/core/report.hpp"
#include "src/core/scoreboard.hpp"
#include "src/core/vapro.hpp"
#include "src/net/server.hpp"
#include "src/net/wire.hpp"
#include "src/obs/context.hpp"
#include "src/obs/journal_segment.hpp"
#include "src/util/rng.hpp"

namespace vapro::perfbench {

std::uint64_t Run::run_reference(long episode) {
  const int span = spans.begin("host.reference", -1, episode);
  const std::uint64_t t0 = ticks();
  const std::uint64_t sum = reference_kernel();
  const std::uint64_t dt = ticks() - t0;
  spans.end(span);
  if (!checksum_seen) checksum = sum;
  checksum_seen = true;
  checksum_ok = checksum_ok && sum == checksum;
  return dt;
}

namespace {

constexpr core::FragmentKind kKinds[] = {core::FragmentKind::kComputation,
                                         core::FragmentKind::kCommunication,
                                         core::FragmentKind::kIo};

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

// Times a call and adds its ticks to `acc`, inside a span when tracing.
template <typename Fn>
void timed(Run& run, const char* span_name, long window, long episode,
           std::uint64_t& acc, Fn&& fn) {
  const int span = run.spans.begin(span_name, window, episode);
  const std::uint64_t t0 = ticks();
  fn();
  acc += ticks() - t0;
  run.spans.end(span);
}

// Forwards every interception to the Vapro client, timing each hook.
class TimedInterceptor final : public sim::Interceptor {
 public:
  explicit TimedInterceptor(const core::VaproClient& client)
      : client_(const_cast<core::VaproClient*>(&client)) {}
  bool wants_call_path() const override { return client_->wants_call_path(); }
  void on_call_begin(const sim::InvocationInfo& info, double time,
                     const pmu::CounterSample& gt) override {
    const std::uint64_t t0 = ticks();
    client_->on_call_begin(info, time, gt);
    ticks_ += ticks() - t0;
    ++calls_;
  }
  void on_call_end(const sim::InvocationInfo& info, double time,
                   const pmu::CounterSample& gt) override {
    const std::uint64_t t0 = ticks();
    client_->on_call_end(info, time, gt);
    ticks_ += ticks() - t0;
    ++calls_;
  }
  void on_program_end(sim::RankId rank, double time) override {
    const std::uint64_t t0 = ticks();
    client_->on_program_end(rank, time);
    ticks_ += ticks() - t0;
    ++calls_;
  }
  std::uint64_t ticks_spent() const { return ticks_; }
  std::uint64_t calls() const { return calls_; }

 private:
  core::VaproClient* client_;
  std::uint64_t ticks_ = 0;
  std::uint64_t calls_ = 0;
};

// The region tables of every category plus the rare-path table, exactly as
// the report prints them.
std::string render_tables(const core::AnalysisServer& server,
                          double bin_seconds) {
  std::string out;
  for (core::FragmentKind kind : kKinds)
    out += core::render_region_table(server.locate(kind), bin_seconds);
  out += core::render_rare_table(server.rare_findings());
  return out;
}

core::RunConclusions conclusions(const core::AnalysisServer& server,
                                 double bin_seconds) {
  core::RunConclusions run;
  run.bin_seconds = bin_seconds;
  run.computation = server.locate(core::FragmentKind::kComputation);
  run.communication = server.locate(core::FragmentKind::kCommunication);
  run.io = server.locate(core::FragmentKind::kIo);
  run.culprits = server.diagnosis().culprits;
  return run;
}

// Counts and outputs that must repeat exactly for a seed.
std::string fingerprint(const Episode& e, const std::string& tables) {
  std::ostringstream oss;
  oss << "hooks=" << e.hook_calls << " windows=" << e.windows_applied << "/"
      << e.windows_attempted << " fragments=" << e.fragments
      << " truths=" << e.score.truths
      << " detections=" << e.score.detections
      << " matched=" << e.score.matched_truths << "/"
      << e.score.matched_detections << " diag=" << e.score.diagnosis_hits
      << "/" << e.score.diagnosis_cases << " rare=" << e.rare_clusters
      << "\n"
      << tables;
  return oss.str();
}

void finish_scoring(Episode& e, const std::string& workload) {
  require(e.score.truths > 0 && e.score.matched_truths == e.score.truths,
          workload + ": an injected/planted truth was not located (" +
              std::to_string(e.score.matched_truths) + " of " +
              std::to_string(e.score.truths) + ", app span " +
              std::to_string(e.app_seconds) + " s)");
}

// Shared shape of the two simulated workloads: a Simulator running one app
// with a VaproSession whose windows are handed to the benchmark through
// the session's transport hook, so process_window/sync (or the ingest
// plane's send/flush/sync) are called — and timed — here.
struct SimInputs {
  sim::SimConfig config;
  sim::Simulator::RankProgram program;
  core::VaproOptions options;
};

// ----------------------------------------------------------------------------
// cg_online: CG in-process, one analysis thread, pipeline depth 1,
// diagnosis on, one CPU-contention injection.  Hooks and every serial
// analysis stage carry the load; no shard pool, net or journal.

class CgOnline final : public Workload {
 public:
  explicit CgOnline(std::uint64_t seed) {
    util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    in_.config.ranks = 256;
    in_.config.cores_per_node = 24;
    in_.config.seed = seed;
    sim::NoiseSpec cpu;
    cpu.kind = sim::NoiseKind::kCpuContention;
    cpu.node = 1 + static_cast<int>(rng.uniform(0.0, 8.0));
    cpu.t_begin = rng.uniform(0.6, 1.2);
    cpu.t_end = cpu.t_begin + rng.uniform(0.8, 1.2);
    cpu.magnitude = 1.0;
    in_.config.noises.push_back(cpu);
    apps::NpbParams p;
    p.iters = 400;
    in_.program = apps::cg(p);
    in_.options.window_seconds = 0.02;
    in_.options.bin_seconds = 0.1;
    in_.options.run_diagnosis = true;
    in_.options.seed = seed;
  }
  bool diagnoses() const override { return true; }
  int cpus() const override { return 1; }

  std::uint64_t setup_once() override {
    const std::uint64_t t0 = ticks();
    sim::Simulator simulator(in_.config);
    core::VaproOptions opts = in_.options;
    core::AnalysisServer server(
        in_.config.ranks, core::server_options_from(opts, in_.config.machine));
    opts.external_server = &server;
    opts.batch_transport = [](core::FragmentBatch&&, double) {};
    core::VaproSession session(simulator, opts);
    TimedInterceptor hooks(session.client());
    simulator.set_interceptor(&hooks);
    return ticks() - t0;
  }

  Episode episode(Run& run, bool traced, long index) override {
    Episode e;
    e.traced = traced;
    obs::ObsContext ctx;
    long window = 0;
    std::uint64_t window_start = 0;
    int window_span = -1;

    const int setup_span = run.spans.begin("setup", -1, index);
    const std::uint64_t t0 = ticks();
    sim::Simulator simulator(in_.config);
    core::VaproOptions opts = in_.options;
    // Traced: telemetry on end to end, so the drain stage is timed too.
    if (traced) opts.obs = &ctx;
    core::AnalysisServer server(
        in_.config.ranks, core::server_options_from(opts, in_.config.machine));
    opts.external_server = &server;
    opts.batch_transport = [&](core::FragmentBatch&& batch, double drain) {
      e.reference.push_back(run.run_reference(index));
      ++e.windows_attempted;
      e.fragments += batch.fragments.size();
      window_span = run.spans.begin("window", window, index);
      window_start = ticks();
      timed(run, "server.process_window", window, index, e.process_window,
            [&] { server.process_window(std::move(batch), drain); });
    };
    opts.transport_sync = [&] {
      timed(run, "server.sync", window, index, e.sync,
            [&] { server.sync(); });
      e.latency.push_back(ticks() - window_start);
      run.spans.end(window_span);
      ++window;
    };
    core::VaproSession session(simulator, opts);
    TimedInterceptor hooks(session.client());
    simulator.set_interceptor(&hooks);
    e.setup.push_back(ticks() - t0);
    run.spans.end(setup_span);

    const int run_span = run.spans.begin("episode", -1, index);
    const std::uint64_t w0 = ticks();
    const sim::RunResult result = simulator.run(in_.program);
    timed(run, "server.sync", -1, index, e.sync, [&] { server.sync(); });
    e.wall = ticks() - w0;
    run.spans.end(run_span);

    e.hook = hooks.ticks_spent();
    e.hook_calls = hooks.calls();
    e.app_seconds = result.makespan;
    e.windows_applied = server.windows_processed();
    e.payload_bytes = session.bytes_recorded();
    const std::uint64_t recorded = session.fragments_recorded();
    require(recorded > 0 && e.fragments == recorded,
            "cg_online: fragments handed to analysis != fragments recorded");
    e.rare_clusters = server.rare_clusters_reported();
    e.pool = server.pipeline_breakdown();
    if (traced) e.stages = ctx.windows().totals();
    e.score = core::score_run_quality(
        simulator.ground_truth(result.makespan),
        conclusions(server, in_.options.bin_seconds));
    finish_scoring(e, "cg_online");
    e.fingerprint =
        fingerprint(e, render_tables(server, in_.options.bin_seconds));
    return e;
  }

 private:
  SimInputs in_;
};

// ----------------------------------------------------------------------------
// cluster_heavy: the server alone, fed seeded windows of the
// pipeline_scaling shape at 3 analysis threads with diagnosis off.  The
// constant-norm workload circle makes clustering the O(n^2) sweep; a
// planted band of slow ranks gives detection something true to find.

constexpr int kHeavyRanks = 64;
constexpr int kHeavySites = 40;
constexpr int kHeavyReps = 24;
constexpr int kHeavyWindows = 16;
constexpr double kHeavyWindowSeconds = 0.25;
constexpr int kBandRanks = 8;
constexpr int kBandWindows = 4;
constexpr double kBandSlowdown = 1.6;

class ClusterHeavy final : public Workload {
 public:
  explicit ClusterHeavy(std::uint64_t seed) : seed_(seed) {
    util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 2);
    band_rank_lo_ = static_cast<int>(rng.uniform(0.0, kHeavyRanks - kBandRanks));
    band_window_lo_ = 3 + static_cast<int>(rng.uniform(0.0, 8.0));
    sopts_.analysis_threads = 3;
    sopts_.pipeline_depth = 1;
    sopts_.run_diagnosis = false;
    sopts_.bin_seconds = 0.1;
    // A tight threshold keeps the constant-norm ranks in separate clusters.
    sopts_.cluster.threshold = 0.01;
  }
  bool diagnoses() const override { return false; }
  int cpus() const override { return 0; }

  std::uint64_t setup_once() override {
    const std::uint64_t t0 = ticks();
    core::AnalysisServer server(kHeavyRanks, sopts_);
    return ticks() - t0;
  }

  Episode episode(Run& run, bool traced, long index) override {
    Episode e;
    e.traced = traced;
    obs::ObsContext ctx;
    core::ServerOptions sopts = sopts_;
    if (traced) sopts.obs = &ctx;
    util::Rng rng(seed_ * 0x9E3779B97F4A7C15ull + 3);

    const int setup_span = run.spans.begin("setup", -1, index);
    const std::uint64_t t0 = ticks();
    core::AnalysisServer server(kHeavyRanks, sopts);
    e.setup.push_back(ticks() - t0);
    run.spans.end(setup_span);

    const int run_span = run.spans.begin("episode", -1, index);
    const std::uint64_t w0 = ticks();
    std::uint64_t generate = 0;
    for (int w = 0; w < kHeavyWindows; ++w) {
      // Input generation is the benchmark's own work: outside every span.
      const std::uint64_t g0 = ticks();
      core::FragmentBatch batch = make_window(w, rng);
      e.fragments += batch.fragments.size();
      // Wire size of the window as the ingest plane would frame it.
      if (index == 0)
        e.payload_bytes += net::kFrameHeaderBytes +
                           net::encode_batch(batch, 0.0).size();
      generate += ticks() - g0;
      e.reference.push_back(run.run_reference(index));
      ++e.windows_attempted;
      const int window_span = run.spans.begin("window", w, index);
      const std::uint64_t start = ticks();
      timed(run, "server.process_window", w, index, e.process_window,
            [&] { server.process_window(std::move(batch), 0.0); });
      timed(run, "server.sync", w, index, e.sync, [&] { server.sync(); });
      e.latency.push_back(ticks() - start);
      run.spans.end(window_span);
    }
    // Generation is not part of the episode's wall time.
    e.wall = ticks() - w0 - generate;
    run.spans.end(run_span);

    e.app_seconds = kHeavyWindows * kHeavyWindowSeconds;
    e.windows_applied = server.windows_processed();
    require(server.fragments_processed() == e.fragments,
            "cluster_heavy: fragments processed != fragments fed");
    e.rare_clusters = server.rare_clusters_reported();
    e.pool = server.pipeline_breakdown();
    if (traced) e.stages = ctx.windows().totals();

    // The planted band is the only truth; it carries no diagnosable factor
    // class (diagnosis is off), so top-factor accuracy is vacuous here.
    obs::QualityTruth truth;
    truth.t_lo = band_window_lo_ * kHeavyWindowSeconds;
    truth.t_hi = (band_window_lo_ + kBandWindows) * kHeavyWindowSeconds;
    truth.rank_lo = band_rank_lo_;
    truth.rank_hi = band_rank_lo_ + kBandRanks - 1;
    truth.allowed_categories = {"computation"};
    std::vector<obs::QualityDetection> detections;
    const char* category[] = {"computation", "communication", "io"};
    for (int k = 0; k < 3; ++k)
      for (const core::VarianceRegion& r : server.locate(kKinds[k])) {
        obs::QualityDetection d;
        d.t_lo = r.time_lo(sopts_.bin_seconds);
        d.t_hi = r.time_hi(sopts_.bin_seconds);
        d.rank_lo = r.rank_lo;
        d.rank_hi = r.rank_hi;
        d.impact_seconds = r.impact_seconds;
        d.category = category[k];
        detections.push_back(d);
      }
    e.score = obs::score_quality({truth}, detections, {});
    finish_scoring(e, "cluster_heavy");
    e.fingerprint = fingerprint(e, render_tables(server, sopts_.bin_seconds));
    return e;
  }

 private:
  // One window of synthetic client data: per rank, kHeavyReps loops over
  // the site ring, a computation fragment before each invocation and a
  // fragment for the invocation.  Ranks in the planted band run their
  // computation kBandSlowdown× slower inside the planted windows.
  core::FragmentBatch make_window(int window, util::Rng& rng) const {
    core::FragmentBatch batch;
    std::vector<core::StateKey> keys(kHeavySites);
    for (int s = 0; s < kHeavySites; ++s) {
      sim::InvocationInfo info;
      info.site = static_cast<sim::CallSiteId>(100 + s);
      info.kind =
          s % 3 == 2 ? sim::OpKind::kFileWrite : sim::OpKind::kAllreduce;
      keys[static_cast<std::size_t>(s)] =
          core::make_state_key(core::StgMode::kContextFree, info);
      batch.new_states.push_back(info);
    }
    const bool band_window = window >= band_window_lo_ &&
                             window < band_window_lo_ + kBandWindows;
    // Steps are sized so the slow band just fills the window; the other
    // ranks finish early and idle, so invocation fragments keep one length.
    const int steps = kHeavySites * kHeavyReps;
    const double step_seconds =
        kHeavyWindowSeconds / ((steps + 1) * (0.7 * kBandSlowdown + 0.3));
    batch.fragments.reserve(static_cast<std::size_t>(kHeavyRanks) *
                            static_cast<std::size_t>(steps) * 2);
    for (int rank = 0; rank < kHeavyRanks; ++rank) {
      const bool slow = band_window && rank >= band_rank_lo_ &&
                        rank < band_rank_lo_ + kBandRanks;
      core::StateKey prev = core::kStartState;
      double t = window * kHeavyWindowSeconds;
      for (int step = 0; step < steps; ++step) {
        const int s = step % kHeavySites;
        const core::StateKey key = keys[static_cast<std::size_t>(s)];
        core::Fragment comp;
        comp.kind = core::FragmentKind::kComputation;
        comp.rank = rank;
        comp.from = prev;
        comp.to = key;
        comp.start_time = t;
        const double comp_share = slow ? 0.7 * kBandSlowdown : 0.7;
        comp.end_time = t + step_seconds * comp_share * rng.uniform(0.98, 1.02);
        comp.counters[pmu::Counter::kTotIns] = 1e6 * (1 + s);
        batch.fragments.push_back(comp);
        t = comp.end_time;

        core::Fragment inv;
        inv.op = s % 3 == 2 ? sim::OpKind::kFileWrite : sim::OpKind::kAllreduce;
        inv.kind = s % 3 == 2 ? core::FragmentKind::kIo
                              : core::FragmentKind::kCommunication;
        inv.rank = rank;
        inv.from = key;
        inv.to = key;
        inv.start_time = t;
        inv.end_time = t + step_seconds * 0.3 * rng.uniform(0.98, 1.02);
        // Constant-norm circle: same magnitude, distinct angle per rank, so
        // the norm-sorted sweep distance-checks the whole same-norm run.
        const double radius = 4096.0 * (1 + s);
        const double angle =
            0.08 + 1.45 * std::fmod(0.61803398875 * (rank + 1), 1.0);
        inv.args.bytes = radius * std::cos(angle);
        inv.args.peer = static_cast<int>(radius * std::sin(angle));
        inv.args.fd = s % 3 == 2 ? 3 : -1;
        batch.fragments.push_back(inv);
        t = inv.end_time;
        prev = key;
      }
    }
    return batch;
  }

  std::uint64_t seed_;
  int band_rank_lo_ = 0;
  int band_window_lo_ = 0;
  core::ServerOptions sopts_;
};

// ----------------------------------------------------------------------------
// nekbone_served: Nekbone with a slow-DRAM node (paper Fig 17); every
// window travels the loopback ingest plane (wire encode + CRC, tenant
// session gates, socket round trip) into a segmented journal, diagnosis
// on.  Windows are small, so fixed per-window costs dominate.

class NekboneServed final : public Workload {
 public:
  NekboneServed(std::uint64_t seed, std::string work_dir)
      : work_dir_(std::move(work_dir)) {
    util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 4);
    in_.config.ranks = 128;
    in_.config.cores_per_node = 24;
    in_.config.seed = seed;
    sim::NoiseSpec dimm;
    dimm.kind = sim::NoiseKind::kSlowDram;
    dimm.node = 1 + static_cast<int>(rng.uniform(0.0, 4.0));
    dimm.magnitude = 1.4;
    in_.config.noises.push_back(dimm);
    apps::NekboneParams p;
    p.iters = 120;
    in_.program = apps::nekbone(p);
    in_.options.window_seconds = 0.005;
    in_.options.bin_seconds = 0.02;
    in_.options.run_diagnosis = true;
    in_.options.seed = seed;
  }
  bool diagnoses() const override { return true; }
  int cpus() const override { return 1; }

  // The served stack, declared in construction order so it tears down in
  // reverse: session detaches, client says bye, server stops and joins its
  // connection threads, the plane joins the tenant consumer, and the
  // context flushes the journal last.
  struct Stack {
    obs::ObsContext ctx;
    std::unique_ptr<net::IngestPlane> plane;
    net::TenantSession* tenant = nullptr;
    std::unique_ptr<net::IngestServer> server;
    std::unique_ptr<net::IngestClient> client;
  };

  // Plane, tenant (server + journal directory), listen, connect + hello.
  void build(Stack& s, const std::string& dir, core::VaproOptions& opts) {
    obs::SegmentOptions seg;
    seg.directory = dir;
    seg.max_segment_bytes = 1u << 20;
    require(s.ctx.attach_journal_segments(std::move(seg)),
            "nekbone_served: cannot open journal directory " + dir);
    opts.obs = &s.ctx;
    net::PlaneOptions popts;
    popts.obs = &s.ctx;
    s.plane = std::make_unique<net::IngestPlane>(popts);
    net::TenantOptions topts;
    topts.name = "bench";
    topts.ranks = in_.config.ranks;
    topts.server = core::server_options_from(opts, in_.config.machine);
    s.tenant = s.plane->add_tenant(std::move(topts));
    s.server = std::make_unique<net::IngestServer>(s.plane.get());
    std::string error;
    require(s.server->start(0, &error), "nekbone_served: listen: " + error);
    net::ClientOptions copts;
    copts.port = s.server->port();
    copts.tenant = "bench";
    copts.ranks = static_cast<std::uint32_t>(in_.config.ranks);
    s.client = std::make_unique<net::IngestClient>(copts);
    require(s.client->connect(&error), "nekbone_served: connect: " + error);
    opts.external_server = s.tenant->server();
  }

  std::string fresh_dir(const char* tag) {
    const std::string dir = work_dir_ + "/" + tag + std::to_string(dirs_++);
    std::filesystem::remove_all(dir);
    return dir;
  }

  std::uint64_t setup_once() override {
    const std::string dir = fresh_dir("setup");
    std::uint64_t dt = 0;
    {
      const std::uint64_t t0 = ticks();
      sim::Simulator simulator(in_.config);
      Stack s;
      core::VaproOptions opts = in_.options;
      build(s, dir, opts);
      opts.batch_transport = [](core::FragmentBatch&&, double) {};
      core::VaproSession session(simulator, opts);
      TimedInterceptor hooks(session.client());
      simulator.set_interceptor(&hooks);
      dt = ticks() - t0;
    }
    std::filesystem::remove_all(dir);
    return dt;
  }

  Episode episode(Run& run, bool traced, long index) override {
    Episode e;
    e.traced = traced;
    const std::string dir = fresh_dir("journal");
    long window = 0;
    std::uint64_t window_start = 0;
    int window_span = -1;
    std::string live_tables;
    {
      const int setup_span = run.spans.begin("setup", -1, index);
      const std::uint64_t t0 = ticks();
      sim::Simulator simulator(in_.config);
      Stack s;
      core::VaproOptions opts = in_.options;
      build(s, dir, opts);
      opts.batch_transport = [&](core::FragmentBatch&& batch, double drain) {
        e.reference.push_back(run.run_reference(index));
        ++e.windows_attempted;
        e.fragments += batch.fragments.size();
        window_span = run.spans.begin("window", window, index);
        window_start = ticks();
        bool sent = false;
        timed(run, "net.send_batch", window, index, e.send_batch,
              [&] { sent = s.client->send_batch(batch, drain); });
        require(sent, "nekbone_served: send_batch failed");
        if (index == 0)
          e.payload_bytes += net::kFrameHeaderBytes +
                             net::encode_batch(batch, drain).size();
      };
      opts.transport_sync = [&] {
        timed(run, "net.flush", window, index, e.flush,
              [&] { s.client->flush(); });
        timed(run, "net.tenant_sync", window, index, e.tenant_sync,
              [&] { s.tenant->sync(); });
        e.latency.push_back(ticks() - window_start);
        run.spans.end(window_span);
        ++window;
      };
      core::VaproSession session(simulator, opts);
      TimedInterceptor hooks(session.client());
      simulator.set_interceptor(&hooks);
      e.setup.push_back(ticks() - t0);
      run.spans.end(setup_span);

      const int run_span = run.spans.begin("episode", -1, index);
      const std::uint64_t w0 = ticks();
      const sim::RunResult result = simulator.run(in_.program);
      timed(run, "net.flush", -1, index, e.flush,
            [&] { s.client->flush(); });
      timed(run, "net.tenant_sync", -1, index, e.tenant_sync,
            [&] { s.tenant->sync(); });
      e.wall = ticks() - w0;
      run.spans.end(run_span);

      e.hook = hooks.ticks_spent();
      e.hook_calls = hooks.calls();
      e.app_seconds = result.makespan;
      e.net_client = s.client->stats();
      e.tenant = s.tenant->stats();
      e.windows_applied = s.tenant->windows_processed();
      const core::AnalysisServer& server = *s.tenant->server();
      require(server.fragments_processed() == e.fragments,
              "nekbone_served: fragments applied != fragments sent");
      // Every batch is accounted for: sent = applied + shed + rejected.
      require(e.net_client.batches_sent == e.windows_attempted &&
                  e.net_client.send_failures == 0 &&
                  e.tenant.admitted - e.tenant.shed ==
                      e.windows_applied &&
                  e.net_client.batches_sent ==
                      e.windows_applied + e.tenant.shed + e.tenant.rejected,
              "nekbone_served: batch accounting does not add up");
      e.rare_clusters = server.rare_clusters_reported();
      e.pool = server.pipeline_breakdown();
      if (traced) e.stages = s.ctx.windows().totals();
      e.score = core::score_run_quality(
          simulator.ground_truth(result.makespan),
          conclusions(server, in_.options.bin_seconds));
      finish_scoring(e, "nekbone_served");
      live_tables = render_tables(server, in_.options.bin_seconds);
      s.tenant->journal_detection_snapshot();
      s.ctx.journal()->flush();
      e.journal_bytes = 0;
      for (const auto& f : std::filesystem::directory_iterator(dir))
        e.journal_bytes += f.file_size();

      // Read-back: the journal alone must reproduce the live tables.
      std::string replay_tables;
      timed(run, "journal.read", -1, index, e.journal_read, [&] {
        const obs::JournalReadResult read = obs::read_journal_dir(dir);
        require(read.ok, "nekbone_served: journal read: " + read.error);
        const core::JournalSummary summary = core::summarize_journal(read.events);
        require(summary.ok, "nekbone_served: journal summary: " + summary.error);
        for (int k = 0; k < 3; ++k)
          replay_tables += core::render_region_table(summary.regions[k],
                                                     in_.options.bin_seconds);
        replay_tables += core::render_rare_table(summary.rare_findings);
      });
      require(replay_tables == live_tables,
              "nekbone_served: journal read-back differs from the live "
              "tables:\n--- live\n" + live_tables + "--- journal\n" +
                  replay_tables);
    }
    std::filesystem::remove_all(dir);
    e.fingerprint = fingerprint(e, live_tables);
    return e;
  }

  // The served tables must be byte-equal to an in-process run of the same
  // input.
  void final_checks(const Episode& first) override {
    sim::Simulator simulator(in_.config);
    core::VaproSession session(simulator, in_.options);
    simulator.run(in_.program);
    const std::string tables =
        render_tables(session.server(), in_.options.bin_seconds);
    const std::size_t cut = first.fingerprint.find('\n');
    const std::string served = first.fingerprint.substr(cut + 1);
    require(tables == served,
            "nekbone_served: served tables differ from the in-process run:\n"
            "--- served\n" + served + "--- in-process\n" + tables);
  }

 private:
  std::string work_dir_;
  std::size_t dirs_ = 0;
  SimInputs in_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "cg_online")
    return std::make_unique<CgOnline>(opts.seed);
  if (opts.workload == "cluster_heavy")
    return std::make_unique<ClusterHeavy>(opts.seed);
  if (opts.workload == "nekbone_served")
    return std::make_unique<NekboneServed>(opts.seed, opts.work_dir);
  return nullptr;
}

}  // namespace vapro::perfbench
