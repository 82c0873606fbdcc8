#include "src/core/server.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/obs/journal.hpp"
#include "src/obs/span.hpp"
#include "src/testing/fault.hpp"
#include "src/util/check.hpp"

namespace vapro::core {

namespace {

constexpr FragmentKind kAllKinds[] = {FragmentKind::kComputation,
                                      FragmentKind::kCommunication,
                                      FragmentKind::kIo};

// The stage table's per-window ledger: every obs::kStages row's seconds
// land in the window's PipelineStats field and the row's histogram.  The
// stages run back to back from `lap_start`, so every statement of the
// window body is charged to exactly one stage and the stage times sum to
// the window's tool time.
struct WindowStages {
  util::Clock* clock;
  double lap_start;  // clock reading the running stage began at
  const std::array<obs::Histogram*, obs::kStages.size()>& hist;
  obs::TraceRecorder* trace;
  obs::Counter* spans_dropped;
  obs::PipelineStats stats{};

  void charge(std::size_t stage, double seconds) {
    stats.*obs::kStages[stage].seconds = seconds;
    if (hist[stage]) hist[stage]->record(seconds);
  }
};

// One stage of one window: spans "stage.<name>" while alive, then laps the
// window's clock once and charges the lap to the stage.
class StageScope {
 public:
  StageScope(WindowStages& window, std::size_t stage)
      : window_(window),
        stage_(stage),
        span_({window.trace, window.spans_dropped},
              std::string("stage.") + obs::kStages[stage].name, "server") {}
  ~StageScope() {
    const double now = window_.clock->now_seconds();
    window_.charge(stage_, now - window_.lap_start);
    window_.lap_start = now;
  }

  void add_arg(obs::TraceArg a) { span_.add_arg(std::move(a)); }

 private:
  WindowStages& window_;
  std::size_t stage_;
  obs::SpanScope span_;
};

DiagnosisOptions with_obs(DiagnosisOptions diag, obs::ObsContext* obs) {
  diag.obs = obs;
  return diag;
}
}  // namespace

AnalysisServer::AnalysisServer(int ranks, ServerOptions opts)
    : opts_(opts),
      ranks_(ranks),
      stg_(opts.stg_mode),
      baseline_(opts.cluster.threshold),
      comp_map_(ranks, opts.bin_seconds),
      comm_map_(ranks, opts.bin_seconds),
      io_map_(ranks, opts.bin_seconds),
      diagnoser_(opts.machine, with_obs(opts.diagnosis, opts.obs)) {
  VAPRO_CHECK(ranks > 0);
  VAPRO_CHECK(opts_.pipeline_depth >= 1);
  VAPRO_CHECK(opts_.analysis_threads >= 1);
  if (opts_.analysis_threads > 1)
    // One persistent intra-window pool for the whole server: clustering
    // and region growing fan out across its lanes instead of spawning
    // threads per window.
    workers_ = std::make_unique<util::WorkerPool>(
        static_cast<std::size_t>(opts_.analysis_threads), opts_.clock);
  if (opts_.pipeline_depth > 1)
    // depth d admits one window in flight on the worker plus d-1 queued.
    pipeline_ = std::make_unique<util::StageExecutor>(
        static_cast<std::size_t>(opts_.pipeline_depth - 1), opts_.clock);
  if (opts_.obs)
    for (std::size_t s = 0; s < obs::kStages.size(); ++s)
      // queue_wait predates the stage.* histogram family and keeps its name.
      stage_hist_[s] = opts_.obs->metrics().histogram(
          s == obs::stage_index("queue_wait")
              ? std::string("vapro.server.queue_wait_seconds")
              : std::string("vapro.server.stage.") + obs::kStages[s].name +
                    "_seconds");
  if (opts_.obs && opts_.live_detection)
    live_routes_.emplace(opts_.obs->exposition(), this);
}

AnalysisServer::~AnalysisServer() {
  // Stop the stage worker before anything it writes is torn down; queued
  // windows are still analyzed (StageExecutor drains on close).  The
  // shard pool goes second: the stage worker fans out through it.
  pipeline_.reset();
  workers_.reset();
}

void AnalysisServer::sync() const {
  if (!pipeline_) return;
  pipeline_->drain();
  publish_pipeline_gauges();
}

void AnalysisServer::refocus_diagnosis(std::optional<FocusRegion> focus) {
  // A restart must interleave with window analysis exactly as it would
  // serially: all admitted windows feed the old focus first.
  sync();
  diagnoser_.restart(std::move(focus));
}

void AnalysisServer::process_window(FragmentBatch batch, double drain_seconds) {
  obs::TraceRecorder* trace = opts_.obs ? opts_.obs->trace() : nullptr;
  util::Clock* clk = opts_.clock ? opts_.clock : util::real_clock();
  const double submit_seconds = clk->now_seconds();
  std::uint64_t flow_id = 0;
  if (trace) {
    // Producer-side drain slice ending at the hand-off, plus the flow
    // arrow the window span on the worker will consume — in Perfetto the
    // arrow's length IS the queue wait.
    const std::uint64_t now_ns = trace->now_ns();
    const auto drain_ns = static_cast<std::uint64_t>(drain_seconds * 1e9);
    trace->complete_span("stage.drain", "pipeline",
                         now_ns > drain_ns ? now_ns - drain_ns : 0, drain_ns);
    flow_id = trace->next_flow_id();
    trace->flow_start("window.handoff", "pipeline", flow_id, now_ns);
  }
  if (!pipeline_) {
    analyze_window(std::move(batch), drain_seconds, submit_seconds, flow_id);
    publish_pipeline_gauges();
    return;
  }
  // Hand the window to the analysis worker.  submit() blocks when
  // pipeline_depth windows are already admitted — that blocking IS the
  // backpressure: a fast producer is throttled to analysis pace instead of
  // queueing unbounded windows.
  const bool degrade =
      VAPRO_FAULT("pipeline.handoff") == testing::FaultAction::kFail;
  auto shared = std::make_shared<FragmentBatch>(std::move(batch));
  pipeline_->submit([this, shared, drain_seconds, submit_seconds, flow_id] {
    analyze_window(std::move(*shared), drain_seconds, submit_seconds, flow_id);
  });
  if (degrade) {
    // Injected hand-off failure: fall back to synchronous operation for
    // this window.  The job still runs on the worker (keeping FIFO order),
    // we just wait for it — lossless and output-identical, only the
    // overlap is gone.
    ++handoff_faults_;
    pipeline_->drain();
  }
  publish_pipeline_gauges();
}

void AnalysisServer::publish_pipeline_gauges() const {
  obs::ObsContext* obs = opts_.obs;
  if (!obs || (!pipeline_ && !workers_)) return;
  obs::MetricsRegistry& m = obs->metrics();
  if (pipeline_) {
    m.gauge("vapro.pipeline.queue_depth")
        ->set(static_cast<double>(pipeline_->depth()));
    // Wait-time attribution: producer-block (stall) vs consumer-idle vs
    // queued time.
    m.gauge("vapro.pipeline.stall_seconds")->set(pipeline_->stall_seconds());
    m.gauge("vapro.pipeline.consumer_idle_seconds")
        ->set(pipeline_->idle_seconds());
    m.gauge("vapro.pipeline.handoff_wait_seconds")
        ->set(pipeline_->handoff_seconds());
    // Stage occupancy: cumulative busy seconds of the analysis worker; the
    // scraper divides by wall time for utilization.
    m.gauge("vapro.pipeline.analysis_busy_seconds")
        ->set(pipeline_->busy_seconds());
  }
  if (workers_) {
    // Intra-window shard pool occupancy.  Imbalance is max/mean lane busy
    // time: ≈1 means the atomic-claim balancing kept lanes even, ≫1 means
    // one giant edge serialized the fan-out.
    const std::vector<double> busy = workers_->lane_busy_seconds();
    double total = 0.0, peak = 0.0;
    for (double b : busy) {
      total += b;
      peak = std::max(peak, b);
    }
    const double mean = busy.empty() ? 0.0 : total / busy.size();
    m.gauge("vapro.pipeline.shards")
        ->set(static_cast<double>(workers_->lanes()));
    m.gauge("vapro.pipeline.shard_busy_seconds")->set(total);
    m.gauge("vapro.pipeline.shard_busy_seconds_max")->set(peak);
    m.gauge("vapro.pipeline.shard_imbalance")
        ->set(mean > 0.0 ? peak / mean : 1.0);
    m.gauge("vapro.pipeline.shard_idle_seconds")
        ->set(workers_->idle_seconds());
    m.gauge("vapro.pipeline.shard_tasks_total")
        ->set(static_cast<double>(workers_->tasks_run()));
  }
}

PipelineBreakdown AnalysisServer::pipeline_breakdown() const {
  sync();
  PipelineBreakdown b;
  b.analysis_busy_seconds = analysis_busy_seconds_;
  if (pipeline_) {
    b.queue_stall_seconds = pipeline_->stall_seconds();
    b.queue_stalls = pipeline_->stalls();
    b.consumer_idle_seconds = pipeline_->idle_seconds();
    b.consumer_idle_waits = pipeline_->idle_waits();
    b.handoff_wait_seconds = pipeline_->handoff_seconds();
  }
  if (workers_) {
    b.shard_lanes = workers_->lanes();
    b.shard_busy_seconds = workers_->lane_busy_seconds();
    b.shard_tasks = workers_->lane_task_counts();
    b.shard_idle_seconds = workers_->idle_seconds();
    b.shard_runs = workers_->runs();
  }
  return b;
}

void AnalysisServer::analyze_window(FragmentBatch batch, double drain_seconds,
                                    double submit_seconds,
                                    std::uint64_t flow_id) {
  obs::ObsContext* obs = opts_.obs;
  obs::TraceRecorder* trace = obs ? obs->trace() : nullptr;
  obs::Journal* journal = obs ? obs->journal() : nullptr;
  obs::Counter* spans_dropped =
      trace && obs ? obs->metrics().counter("vapro.obs.spans_dropped_total")
                   : nullptr;
  obs::ToolTimeScope tool_time(obs ? &obs->overhead() : nullptr);
  // Exposition handlers read the maps/regions from the serve thread; the
  // whole window body runs under the live mutex.
  std::lock_guard<std::mutex> live_lock(live_mu_);
  // The window span consumes the producer's handoff flow arrow, so the
  // queue hop is visible in the timeline; stage spans nest inside it.
  obs::SpanScope window_span({trace, spans_dropped, flow_id}, "analysis.window",
                             "server");
  util::Clock* clk = opts_.clock ? opts_.clock : util::real_clock();
  WindowStages w{clk, clk->now_seconds(), stage_hist_, trace, spans_dropped};
  obs::PipelineStats& stats = w.stats;
  stats.window = windows_;
  stats.fragments_drained = batch.fragments.size();
  stats.new_states = batch.new_states.size();
  w.charge(obs::stage_index("queue_wait"),
           std::max(0.0, clk->now_seconds() - submit_seconds));
  w.charge(obs::stage_index("drain"), drain_seconds);

  // Carry-ins from the previous window's tail enter the STG first so
  // indices below `live_begin` are exactly the carried fragments.
  const std::size_t live_begin = overlap_carry_.size();
  {
    StageScope stage(w, obs::stage_index("stg"));
    for (const sim::InvocationInfo& info : batch.new_states)
      stg_.touch_vertex(info);
    if (live_begin != 0) stg_.adopt_fragments(std::move(overlap_carry_));
    // One contiguous scan of the end-time column finds the window end, the
    // overlap cut selects next window's carry candidates, and then the
    // whole batch is adopted into the STG — an arena swap when there is no
    // carry (the steady state), never a per-fragment copy.
    const std::size_t drained = batch.fragments.size();
    const double* ends = batch.fragments.end_data();
    double window_end = 0.0;
    for (std::size_t i = 0; i < drained; ++i)
      window_end = std::max(window_end, ends[i]);
    if (opts_.window_overlap_seconds > 0.0) {
      const double cut = window_end - opts_.window_overlap_seconds;
      for (std::size_t i = 0; i < drained; ++i)
        if (ends[i] >= cut) overlap_carry_.push_back(batch.fragments, i);
    }
    stg_.adopt_fragments(std::move(batch.fragments));
    fragments_ += drained;
    stats.carry_ins = live_begin;
    stats.virtual_time = window_end;
    last_virtual_time_ = std::max(last_virtual_time_, window_end);
  }

  util::WorkerPool* pool = workers_.get();
  ClusteringResult clusters;
  {
    // Algorithm 1 workers + the rare-path scan.
    StageScope stage(w, obs::stage_index("cluster"));
    if (pool && VAPRO_FAULT("pipeline.shard") == testing::FaultAction::kFail) {
      // Injected worker-task failure.  The decision is made HERE, once per
      // window on the analysis thread — never inside a parallel task, where
      // which-task-hits-it would depend on scheduling.  One poisoned task
      // exercises the pool's exception containment, then the whole window
      // degrades to serial fan-out: byte-identical output (sharding is
      // equivalence-preserving by design), only the intra-window overlap is
      // lost.
      ++shard_faults_;
      pool->run(1, [](std::size_t, std::size_t) {
        testing::FaultInjector::throw_if(testing::FaultAction::kThrow,
                                         "pipeline.shard");
      });
      pool = nullptr;
    }
    stats.cluster_shards = pool ? pool->lanes() : 1;
    clusters = cluster_stg(stg_, opts_.cluster, pool, trace);
    stage.add_arg(obs::TraceRecorder::arg(
        "clusters", static_cast<std::uint64_t>(clusters.clusters.size())));
    stage.add_arg(obs::TraceRecorder::arg(
        "shards", static_cast<std::uint64_t>(stats.cluster_shards)));
    rare_clusters_ += clusters.rare_count();

    // Algorithm 1 line 8: surface rare-but-expensive execution paths
    // (carry-ins were reported by the previous window already).
    const std::size_t rare_before = rare_findings_.size();
    for (const Cluster& c : clusters.clusters) {
      if (!c.rare) continue;
      RareFinding finding;
      finding.kind = c.kind;
      double first_start = 1e300;
      for (std::size_t idx : c.members) {
        if (idx < live_begin) continue;
        const double duration = stg_.fragments().duration(idx);
        ++finding.executions;
        finding.total_seconds += duration;
        finding.longest_seconds = std::max(finding.longest_seconds, duration);
        first_start = std::min(first_start, stg_.fragments().start_time(idx));
      }
      if (finding.total_seconds < opts_.rare_report_min_seconds) continue;
      finding.state =
          c.kind == FragmentKind::kComputation
              ? stg_.state_name(c.from) + " -> " + stg_.state_name(c.to)
              : stg_.state_name(c.to);
      finding.window_start = first_start;
      rare_findings_.push_back(std::move(finding));
    }
    if (journal) {
      // Journal each new finding before the report list is sorted/
      // truncated; the journal is the complete record, the list the
      // user-facing top-N.
      for (std::size_t i = rare_before; i < rare_findings_.size(); ++i) {
        const RareFinding& f = rare_findings_[i];
        journal->emit(
            "rare_finding", static_cast<std::int64_t>(stats.window),
            f.window_start,
            {obs::JournalField::str("state", f.state),
             obs::JournalField::str("kind", fragment_kind_name(f.kind)),
             obs::JournalField::num("executions",
                                    static_cast<std::uint64_t>(f.executions)),
             obs::JournalField::num("total_seconds", f.total_seconds),
             obs::JournalField::num("longest_seconds", f.longest_seconds)});
      }
    }
    if (rare_findings_.size() > opts_.rare_report_limit) {
      std::sort(rare_findings_.begin(), rare_findings_.end(),
                [](const RareFinding& a, const RareFinding& b) {
                  return a.total_seconds > b.total_seconds;
                });
      rare_findings_.resize(opts_.rare_report_limit);
    }
    stats.clusters_formed = clusters.clusters.size();
    stats.rare_clusters = clusters.rare_count();
  }

  std::vector<NormalizedFragment> normalized;
  {
    // Normalization against the cross-window baseline.
    StageScope stage(w, obs::stage_index("normalize"));
    ClusterBaseline* baseline =
        opts_.shared_baseline ? opts_.shared_baseline : &baseline_;
    normalized = normalize_fragments(stg_, clusters, baseline, live_begin);
    if (opts_.record_eval_pairs) {
      // Map each labelled computation fragment to its cluster's stable id.
      for (const Cluster& c : clusters.clusters) {
        if (c.kind != FragmentKind::kComputation) continue;
        const std::uint64_t label = baseline_.key_of(c);
        for (std::size_t idx : c.members) {
          if (idx < live_begin) continue;
          const std::int64_t truth = stg_.fragments().truth_class(idx);
          if (truth < 0) continue;
          eval_truth_.push_back(static_cast<int>(truth % 1000000007));
          eval_predicted_.push_back(static_cast<int>(label % 1000000007));
        }
      }
    }
  }

  {
    // Heat-map deposit + coverage accounting.
    StageScope stage(w, obs::stage_index("deposit"));
    deposit_fragments(normalized, comp_map_, comm_map_, io_map_);
    coverage_.add(stg_, clusters, live_begin);
  }

  {
    // Progressive diagnosis + observer hooks.
    StageScope stage(w, obs::stage_index("diagnose"));
    if (opts_.run_diagnosis) diagnoser_.feed(stg_, clusters, live_begin);
    if (opts_.window_observer) opts_.window_observer(stg_, clusters);
    stg_.clear_fragments();
    ++windows_;
    stats.diagnosis_stage = diagnoser_.stage();
  }

  {
    // Region growing, health gauges and journal events (live detection).
    StageScope stage(w, obs::stage_index("publish"));
    if (obs && opts_.live_detection) {
      if (VAPRO_FAULT("server.window") == testing::FaultAction::kFail)
        // Live publish lost for this window (journal/gauges skip a beat);
        // the final journal_detection_snapshot still recovers every region.
        ++publish_faults_;
      else
        publish_detection(stats, pool);
    }
  }
  // Everything but the producer-side drain is analysis-stage occupancy.
  analysis_busy_seconds_ += stats.total_seconds() - stats.drain_seconds;

  // Fold this window into the critical-path reducer: "window N was bound
  // by stage X for Y ms".  Tracked always; journaled (as a measurement
  // event, distinct from detection conclusions) when live detection is on.
  const obs::WindowLatencyRecord latency_record =
      obs::WindowLatencyRecord::of(stats);
  latency_.record(latency_record);
  if (journal && opts_.live_detection)
    obs::journal_window_latency(*journal, latency_record);

  if (obs) {
    obs::MetricsRegistry& m = obs->metrics();
    m.counter("vapro.server.windows_total")->inc();
    m.counter("vapro.server.fragments_total")->inc(stats.fragments_drained);
    m.counter("vapro.server.carry_ins_total")->inc(stats.carry_ins);
    m.counter("vapro.server.clusters_total")->inc(stats.clusters_formed);
    m.counter("vapro.server.rare_clusters_total")->inc(stats.rare_clusters);
    m.gauge("vapro.server.diagnosis_stage")
        ->set(static_cast<double>(stats.diagnosis_stage));
    m.histogram("vapro.server.window_seconds")->record(stats.total_seconds());
    obs->emit_window(stats);
    window_span.add_arg(obs::TraceRecorder::arg(
        "window", static_cast<std::uint64_t>(stats.window)));
    window_span.add_arg(obs::TraceRecorder::arg(
        "fragments", static_cast<std::uint64_t>(stats.fragments_drained)));
    window_span.add_arg(obs::TraceRecorder::arg(
        "clusters", static_cast<std::uint64_t>(stats.clusters_formed)));
    window_span.add_arg(
        obs::TraceRecorder::arg("bound_by", latency_record.bound_by()));
  }
}

void AnalysisServer::publish_detection(const obs::PipelineStats& stats,
                                       util::WorkerPool* pool) {
  obs::ObsContext* obs = opts_.obs;
  const Heatmap* maps[3] = {&comp_map_, &comm_map_, &io_map_};
  std::vector<VarianceRegion> regions[3];
  for (FragmentKind kind : kAllKinds)
    regions[static_cast<int>(kind)] = locate_locked(kind, pool);
  const DetectionHealth health = detection_health(maps, regions, coverage_);
  publish_health_gauges(obs->metrics(), health);

  obs::Journal* journal = obs->journal();
  if (!journal) return;
  const std::int64_t window = static_cast<std::int64_t>(stats.window);
  for (FragmentKind kind : kAllKinds)
    region_journal_.emit(*journal, kind, regions[static_cast<int>(kind)],
                         window, stats.virtual_time, opts_.bin_seconds,
                         /*final_snapshot=*/false);
  journal_window_event(
      *journal, window, stats.virtual_time, health,
      {obs::JournalField::num(
           "fragments", static_cast<std::uint64_t>(stats.fragments_drained)),
       obs::JournalField::num("carry_ins",
                              static_cast<std::uint64_t>(stats.carry_ins)),
       obs::JournalField::num(
           "clusters", static_cast<std::uint64_t>(stats.clusters_formed)),
       obs::JournalField::num(
           "rare_clusters", static_cast<std::uint64_t>(stats.rare_clusters)),
       obs::JournalField::num(
           "diagnosis_stage",
           static_cast<std::int64_t>(stats.diagnosis_stage))});
}

void AnalysisServer::journal_detection_snapshot() const {
  obs::Journal* journal = opts_.obs ? opts_.obs->journal() : nullptr;
  if (!journal) return;
  sync();  // the snapshot must cover every admitted window
  std::lock_guard<std::mutex> lock(live_mu_);
  const std::int64_t window =
      windows_ ? static_cast<std::int64_t>(windows_) - 1 : -1;
  for (FragmentKind kind : kAllKinds)
    region_journal_.emit(*journal, kind, locate_locked(kind, workers_.get()),
                         window, last_virtual_time_, opts_.bin_seconds,
                         /*final_snapshot=*/true);
  // Terminal critical-path verdict: one event carrying the per-stage
  // totals, so the replay can cross-check its fold of the per-window
  // window_latency events.  Measurement events follow the same
  // live_detection gate as the per-window ones.
  if (opts_.live_detection)
    obs::journal_critical_path(*journal, window, last_virtual_time_,
                               latency_.summary());
  journal->flush();
}

std::string AnalysisServer::render_latency_json() const {
  // The tracker has its own mutex; no sync() — a mid-run scrape just sees
  // the windows analyzed so far, like the other /v1 views.
  return obs::render_latency_json(latency_.recent(), latency_.summary());
}

std::string AnalysisServer::render_critical_path_json() const {
  return obs::render_critical_path_json(latency_.recent(), latency_.summary());
}

std::string AnalysisServer::render_heatmap_json() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  const Heatmap* maps[3] = {&comp_map_, &comm_map_, &io_map_};
  return core::render_heatmap_json(maps, ranks_, opts_.bin_seconds);
}

std::string AnalysisServer::render_variance_json() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  std::vector<VarianceRegion> regions[3];
  for (FragmentKind kind : kAllKinds)
    regions[static_cast<int>(kind)] = locate_locked(kind, workers_.get());
  return core::render_variance_json(regions, windows_, last_virtual_time_,
                                    opts_.bin_seconds,
                                    opts_.variance_threshold);
}

std::vector<VarianceRegion> AnalysisServer::locate(FragmentKind kind) const {
  // Sync so the regions reflect every admitted window, then lock so a
  // concurrent scrape or (in a group) sibling publish sees whole windows.
  sync();
  std::lock_guard<std::mutex> lock(live_mu_);
  return locate_locked(kind, workers_.get());
}

std::vector<VarianceRegion> AnalysisServer::locate_locked(
    FragmentKind kind, util::WorkerPool* pool) const {
  switch (kind) {
    case FragmentKind::kComputation:
      return find_variance_regions(comp_map_, opts_.variance_threshold, pool);
    case FragmentKind::kCommunication:
      return find_variance_regions(comm_map_, opts_.variance_threshold, pool);
    case FragmentKind::kIo:
      return find_variance_regions(io_map_, opts_.variance_threshold, pool);
  }
  return {};
}

stats::VMeasure AnalysisServer::clustering_quality() const {
  sync();
  return stats::v_measure(eval_truth_, eval_predicted_);
}

}  // namespace vapro::core
