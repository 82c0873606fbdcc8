// Self-diagnosis latency surfaces (src/obs/latency): critical-path
// attribution semantics, the tracker ring, the shared JSON/table
// renderers, the window_latency / critical_path journal round trip
// (byte-identical replay), and readback of hand-written v1 journals that
// predate the timing event types.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/journal_replay.hpp"
#include "src/core/server.hpp"
#include "src/obs/context.hpp"
#include "src/obs/latency.hpp"
#include "src/util/clock.hpp"

namespace vapro::obs {
namespace {

WindowLatencyRecord make_record(std::int64_t window,
                                std::initializer_list<double> stages) {
  WindowLatencyRecord r;
  r.window = window;
  r.virtual_time = 0.25 * static_cast<double>(window + 1);
  std::size_t i = 0;
  for (double s : stages) r.stage_seconds[i++] = s;
  return r;
}

TEST(WindowLatency, BoundStageIsTheFirstMaximumInCanonicalOrder) {
  // cluster (index 3) strictly dominates.
  WindowLatencyRecord r =
      make_record(0, {0.001, 0.002, 0.003, 0.010, 0.002, 0.001, 0.0, 0.001});
  EXPECT_EQ(r.bound_stage(), 3u);
  EXPECT_STREQ(r.bound_by(), "cluster");
  EXPECT_DOUBLE_EQ(r.bound_seconds(), 0.010);
  EXPECT_NEAR(r.total_seconds(), 0.020, 1e-12);

  // Exact tie between drain (1) and diagnose (6): the earlier stage wins,
  // so attribution is deterministic.
  WindowLatencyRecord tie =
      make_record(1, {0.0, 0.005, 0.0, 0.0, 0.0, 0.0, 0.005, 0.0});
  EXPECT_EQ(tie.bound_stage(), 1u);
  EXPECT_STREQ(tie.bound_by(), "drain");

  // All-zero window: queue_wait (index 0) by the same tie rule.
  EXPECT_EQ(WindowLatencyRecord{}.bound_stage(), 0u);
}

TEST(WindowLatency, TrackerKeepsARingAndCumulativeTotals) {
  CriticalPathTracker tracker(/*keep=*/4);
  EXPECT_EQ(tracker.summary().dominant_stage(), kStages.size());
  EXPECT_TRUE(tracker.recent().empty());

  for (int w = 0; w < 10; ++w) {
    // stg-bound except window 7, which is cluster-bound.
    tracker.record(make_record(
        w, {0.001, 0.002, 0.004, w == 7 ? 0.008 : 0.001, 0.0, 0.0, 0.0, 0.0}));
  }
  const auto recent = tracker.recent();
  ASSERT_EQ(recent.size(), 4u);  // ring trimmed to keep
  EXPECT_EQ(recent.front().window, 6);
  EXPECT_EQ(recent.back().window, 9);

  const CriticalPathTracker::Summary sum = tracker.summary();
  EXPECT_EQ(sum.windows, 10u);  // totals cover ALL windows, not the ring
  EXPECT_EQ(sum.bound_windows[2], 9u);  // stg
  EXPECT_EQ(sum.bound_windows[3], 1u);  // cluster (window 7)
  EXPECT_EQ(sum.dominant_stage(), 2u);
  EXPECT_NEAR(sum.stage_seconds[2], 10 * 0.004, 1e-12);
  EXPECT_NEAR(sum.total_seconds, 10 * 0.008 + 0.007, 1e-12);
}

TEST(WindowLatency, RenderersNameEveryStageAndTheDominantOne) {
  CriticalPathTracker tracker;
  tracker.record(
      make_record(0, {0.0, 0.001, 0.006, 0.002, 0.0, 0.0, 0.0, 0.001}));
  const std::string latency =
      render_latency_json(tracker.recent(), tracker.summary());
  const std::string critical =
      render_critical_path_json(tracker.recent(), tracker.summary());
  const std::string table =
      render_critical_path_table(tracker.recent(), tracker.summary());
  for (std::size_t s = 0; s < kStages.size(); ++s) {
    EXPECT_NE(critical.find(kStages[s].name), std::string::npos)
        << kStages[s].name;
  }
  EXPECT_NE(latency.find("\"bound_by\":\"stg\""), std::string::npos) << latency;
  EXPECT_NE(critical.find("\"dominant\":\"stg\""), std::string::npos)
      << critical;
  EXPECT_NE(table.find("dominant stage: stg"), std::string::npos) << table;

  // Empty tracker renders a null dominant stage, not garbage.
  CriticalPathTracker empty;
  EXPECT_NE(render_critical_path_json(empty.recent(), empty.summary())
                .find("\"dominant\":null"),
            std::string::npos);
}

TEST(WindowLatency, JournalEventsRoundTripBitExactly) {
  // Values with no short decimal form, so anything less than %.17g in the
  // round trip shows up as inequality.
  WindowLatencyRecord r = make_record(
      3, {1.0 / 3, 0.1, 0.2 / 7, 1e-9, 0.0, 3.14159e-3, 1.0 / 81, 2e-6});

  Journal journal;
  struct Collect final : JournalSink {
    std::vector<JournalEvent> events;
    void on_event(const JournalEvent& ev) override { events.push_back(ev); }
  } sink;
  journal.add_sink(&sink);
  journal_window_latency(journal, r);

  CriticalPathTracker tracker;
  tracker.record(r);
  journal_critical_path(journal, r.window, r.virtual_time, tracker.summary());

  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].type, "window_latency");
  EXPECT_EQ(sink.events[1].type, "critical_path");

  const WindowLatencyRecord back = window_latency_from_event(sink.events[0]);
  EXPECT_EQ(back.window, r.window);
  EXPECT_EQ(back.virtual_time, r.virtual_time);  // bit-exact, not NEAR
  for (std::size_t s = 0; s < kStages.size(); ++s)
    EXPECT_EQ(back.stage_seconds[s], r.stage_seconds[s])
        << kStages[s].name;

  CriticalPathTracker replay;
  replay.record(back);
  EXPECT_EQ(render_critical_path_table(replay.recent(), replay.summary()),
            render_critical_path_table(tracker.recent(), tracker.summary()));
}

// --- end to end through the analysis server -------------------------------

core::FragmentBatch tiny_window(int ranks, int window) {
  core::FragmentBatch batch;
  sim::InvocationInfo info;
  info.site = static_cast<sim::CallSiteId>(100);
  info.kind = sim::OpKind::kAllreduce;
  const core::StateKey key =
      core::make_state_key(core::StgMode::kContextFree, info);
  batch.new_states.push_back(info);
  for (int rank = 0; rank < ranks; ++rank) {
    core::Fragment comp;
    comp.kind = core::FragmentKind::kComputation;
    comp.rank = rank;
    comp.from = core::kStartState;
    comp.to = key;
    comp.start_time = window * 0.25;
    comp.end_time = window * 0.25 + 0.1;
    comp.counters[pmu::Counter::kTotIns] = 1e6;
    batch.fragments.push_back(comp);
    core::Fragment inv;
    inv.op = sim::OpKind::kAllreduce;
    inv.kind = core::FragmentKind::kCommunication;
    inv.rank = rank;
    inv.from = key;
    inv.to = key;
    inv.start_time = comp.end_time;
    inv.end_time = comp.end_time + 0.05;
    inv.args.bytes = 4096;
    inv.args.peer = (rank + 1) % ranks;
    batch.fragments.push_back(inv);
  }
  return batch;
}

TEST(WindowLatency, ServerJournalReplaysTheLiveCriticalPathByteIdentically) {
  const std::string path = "/tmp/vapro_test_latency_journal";
  std::filesystem::remove_all(path);

  util::VirtualClock vclock;
  obs::ObsContext ctx;
  ctx.set_clock(&vclock);
  ctx.enable_trace();
  obs::SegmentOptions seg;
  seg.directory = path;
  ASSERT_TRUE(ctx.attach_journal_segments(std::move(seg)));

  core::ServerOptions opts;
  opts.run_diagnosis = false;
  opts.bin_seconds = 0.05;
  opts.obs = &ctx;
  opts.clock = &vclock;
  constexpr int kRanks = 4;
  constexpr int kWindows = 5;
  {
    core::AnalysisServer server(kRanks, opts);
    for (int w = 0; w < kWindows; ++w) {
      server.process_window(tiny_window(kRanks, w), /*drain_seconds=*/0.01);
      vclock.advance(0.25);
    }
    server.journal_detection_snapshot();
    ctx.journal()->flush();

    // Live JSON endpoints report every window.
    EXPECT_NE(server.render_latency_json().find("\"windows\":5"),
              std::string::npos);
    EXPECT_NE(server.render_critical_path_json().find("\"dominant\":"),
              std::string::npos);

    const core::JournalSummary summary = core::summarize_journal_file(path);
    ASSERT_TRUE(summary.ok) << summary.error;
    ASSERT_EQ(summary.window_latency.size(),
              static_cast<std::size_t>(kWindows));
    EXPECT_EQ(summary.critical_path_events, 1u);
    for (int w = 0; w < kWindows; ++w)
      EXPECT_EQ(summary.window_latency[static_cast<std::size_t>(w)].window, w);

    CriticalPathTracker replay;
    for (const WindowLatencyRecord& r : summary.window_latency)
      replay.record(r);
    const CriticalPathTracker& live = server.latency_tracker();
    EXPECT_EQ(render_critical_path_table(replay.recent(), replay.summary()),
              render_critical_path_table(live.recent(), live.summary()));

    // The replay report gained a critical-path section.
    const std::string report = core::render_journal_summary(summary);
    EXPECT_NE(report.find("## critical path"), std::string::npos) << report;
    EXPECT_NE(report.find("dominant stage:"), std::string::npos);
  }
  std::filesystem::remove_all(path);
}

TEST(WindowLatency, HandWrittenV1JournalReadsBackWithoutTimingEvents) {
  // A journal written by a v1 producer: no window_latency/critical_path
  // events exist, and unknown future types must be skipped, not fatal.
  const std::string path = "/tmp/vapro_test_latency_v1.vjseg";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(obs::kJournalMagic, sizeof(obs::kJournalMagic));
    for (const char* payload :
         {"{\"type\":\"journal_header\",\"schema\":\"vapro.journal\","
          "\"schema_version\":1}",
          "{\"seq\":0,\"type\":\"window\",\"window\":0,"
          "\"virtual_time\":0.25,\"fragments\":8}",
          "{\"seq\":1,\"type\":\"some_future_type\",\"window\":0,"
          "\"virtual_time\":0.25,\"payload\":1}",
          "{\"seq\":2,\"type\":\"window\",\"window\":1,"
          "\"virtual_time\":0.5,\"fragments\":8}"})
      out << obs::encode_record(payload);
  }
  const core::JournalSummary summary = core::summarize_journal_file(path);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.windows, 2u);
  EXPECT_TRUE(summary.window_latency.empty());
  EXPECT_EQ(summary.critical_path_events, 0u);
  // No timing data -> no critical-path section in the replay report.
  const std::string report = core::render_journal_summary(summary);
  EXPECT_EQ(report.find("## critical path"), std::string::npos) << report;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vapro::obs
