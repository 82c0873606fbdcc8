// Tests for src/obs/quality + src/core/scoreboard: window-overlap
// matching edge cases (nothing injected, overlapping injections, false
// positives, category constraints), diagnosis attribution rules,
// scoreboard aggregation/rendering, ground-truth journal round-trips, and
// backward compatibility with schema-v1 journal files.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/scoreboard.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/journal_segment.hpp"
#include "src/obs/quality.hpp"
#include "src/sim/noise.hpp"

namespace vapro {
namespace {

std::string temp_path(const std::string& leaf) {
  return std::string(::testing::TempDir()) + leaf;
}

obs::QualityTruth make_truth(double t_lo, double t_hi, int rank_lo,
                             int rank_hi) {
  obs::QualityTruth t;
  t.t_lo = t_lo;
  t.t_hi = t_hi;
  t.rank_lo = rank_lo;
  t.rank_hi = rank_hi;
  return t;
}

obs::QualityDetection make_detection(double t_lo, double t_hi, int rank_lo,
                                     int rank_hi) {
  obs::QualityDetection d;
  d.t_lo = t_lo;
  d.t_hi = t_hi;
  d.rank_lo = rank_lo;
  d.rank_hi = rank_hi;
  return d;
}

struct CollectingJournalSink final : obs::JournalSink {
  std::vector<obs::JournalEvent> events;
  void on_event(const obs::JournalEvent& event) override {
    events.push_back(event);
  }
};

// --- scoring edge cases ---------------------------------------------------

TEST(Quality, NothingInjectedNothingDetectedIsPerfect) {
  const obs::QualityScore s = obs::score_quality({}, {}, {});
  EXPECT_EQ(s.precision(), 1.0);  // an empty answer has no false positives
  EXPECT_EQ(s.recall(), 1.0);     // there was nothing to miss
  EXPECT_EQ(s.f1(), 1.0);
  EXPECT_EQ(s.top_factor_accuracy(), 1.0);
}

TEST(Quality, DetectionWithNoGroundTruthCostsPrecisionOnly) {
  // A clean run where the detector still reported two regions: recall has
  // nothing to miss, but both detections are false positives.
  const obs::QualityScore s = obs::score_quality(
      {}, {make_detection(0.1, 0.2, 0, 3), make_detection(0.5, 0.6, 4, 7)},
      {});
  EXPECT_EQ(s.precision(), 0.0);
  EXPECT_EQ(s.recall(), 1.0);
  EXPECT_EQ(s.f1(), 0.0);
}

TEST(Quality, ZeroInjectedZeroDetectedCellMergesNeutrally) {
  // The "none" noise column must not inflate aggregate precision/recall:
  // merging an all-zero cell adds nothing to any numerator or denominator.
  obs::QualityScore total;
  total.truths = 4;
  total.detections = 4;
  total.matched_truths = 2;
  total.matched_detections = 2;
  total.merge(obs::score_quality({}, {}, {}));
  EXPECT_EQ(total.precision(), 0.5);
  EXPECT_EQ(total.recall(), 0.5);
}

TEST(Quality, OverlappingInjectionsEachScoreIndependently) {
  // Two injections share a time window and rank range (e.g. cpu + dram on
  // the same node).  One detection covering the window finds BOTH truths;
  // the single detection is explained once.
  const std::vector<obs::QualityTruth> truths = {make_truth(0.2, 0.5, 0, 3),
                                                 make_truth(0.3, 0.6, 2, 5)};
  const obs::QualityScore s =
      obs::score_quality(truths, {make_detection(0.25, 0.55, 0, 7)}, {});
  EXPECT_EQ(s.matched_truths, 2u);
  EXPECT_EQ(s.matched_detections, 1u);
  EXPECT_EQ(s.recall(), 1.0);
  EXPECT_EQ(s.precision(), 1.0);
}

TEST(Quality, TouchingWindowsDoNotMatch) {
  // Zero-width contact at a boundary is not overlap: the default option
  // requires strictly positive intersection.
  const std::vector<obs::QualityTruth> truths = {make_truth(0.2, 0.5, 0, 3)};
  EXPECT_EQ(obs::score_quality(truths, {make_detection(0.5, 0.7, 0, 3)}, {})
                .matched_truths,
            0u);
  EXPECT_EQ(obs::score_quality(truths, {make_detection(0.0, 0.2, 0, 3)}, {})
                .matched_truths,
            0u);
  // Disjoint rank ranges never match regardless of time overlap.
  EXPECT_EQ(obs::score_quality(truths, {make_detection(0.2, 0.5, 4, 7)}, {})
                .matched_truths,
            0u);
}

TEST(Quality, CategoryConstraintKeepsSharedResourceTruthsHonest) {
  obs::QualityTruth io_truth = make_truth(0.0, 1.0, 0, 15);
  io_truth.allowed_categories = {"io"};
  obs::QualityDetection comm = make_detection(0.1, 0.9, 0, 15);
  comm.category = "communication";
  obs::QualityDetection io = comm;
  io.category = "io";
  EXPECT_FALSE(obs::quality_match(io_truth, comm));
  EXPECT_TRUE(obs::quality_match(io_truth, io));
  // An uncategorized detection (older producers) matches any truth.
  obs::QualityDetection untagged = make_detection(0.1, 0.9, 0, 15);
  EXPECT_TRUE(obs::quality_match(io_truth, untagged));
}

TEST(Quality, UnmatchedTruthIsADiagnosisMissEvenIfFactorAppears) {
  // The factor string being present globally must not credit an injection
  // the detector never located: attribution runs on detected regions.
  obs::QualityTruth found = make_truth(0.2, 0.4, 0, 3);
  found.expected_factors = {"DRAM bound"};
  obs::QualityTruth missed = make_truth(2.0, 2.5, 0, 3);
  missed.expected_factors = {"DRAM bound"};
  const obs::QualityScore s =
      obs::score_quality({found, missed}, {make_detection(0.2, 0.4, 0, 3)},
                         {"DRAM bound"});
  EXPECT_EQ(s.diagnosis_cases, 2u);
  EXPECT_EQ(s.diagnosis_hits, 1u);
  EXPECT_EQ(s.top_factor_accuracy(), 0.5);
}

TEST(Quality, ScoreboardAggregatesAndRendersCells) {
  obs::QualityScoreboard board;
  obs::QualityCell cell;
  cell.app = "CG";
  cell.noise = "cpu";
  cell.score = obs::score_quality({make_truth(0.2, 0.4, 0, 3)},
                                  {make_detection(0.2, 0.4, 0, 3)}, {});
  board.add(cell);
  cell.noise = "none";
  cell.score = obs::score_quality({}, {make_detection(0.5, 0.6, 0, 3)}, {});
  board.add(cell);

  const obs::QualityScore total = board.aggregate();
  EXPECT_EQ(total.truths, 1u);
  EXPECT_EQ(total.detections, 2u);
  EXPECT_EQ(total.precision(), 0.5);
  EXPECT_EQ(total.recall(), 1.0);

  const std::string json = board.render_json();
  EXPECT_NE(json.find("\"schema\":\"vapro.quality\""), std::string::npos);
  EXPECT_NE(json.find("\"app\":\"CG\""), std::string::npos);
  EXPECT_NE(json.find("\"noise\":\"cpu\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\":{"), std::string::npos);
}

// --- ground-truth journal plumbing ----------------------------------------

TEST(Quality, GroundTruthJournalRoundTrip) {
  sim::GroundTruthEvent cpu;
  cpu.kind = sim::NoiseKind::kCpuContention;
  cpu.t_begin = 0.25;
  cpu.t_end = 0.75;
  cpu.rank_lo = 4;
  cpu.rank_hi = 7;
  cpu.magnitude = 1.5;
  sim::GroundTruthEvent io;
  io.kind = sim::NoiseKind::kIoInterference;
  io.t_begin = 0.0;
  io.t_end = 1.0;
  io.rank_lo = 0;
  io.rank_hi = 15;
  io.magnitude = 20.0;

  obs::Journal journal;
  CollectingJournalSink sink;
  journal.add_sink(&sink);
  core::journal_ground_truth(journal, {cpu, io}, /*virtual_time=*/1.0);
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].type, "ground_truth");
  EXPECT_EQ(sink.events[0].str("kind"), "cpu");

  const std::vector<sim::GroundTruthEvent> back =
      core::ground_truth_from_journal(sink.events);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].kind, sim::NoiseKind::kCpuContention);
  EXPECT_EQ(back[0].t_begin, 0.25);
  EXPECT_EQ(back[0].t_end, 0.75);
  EXPECT_EQ(back[0].rank_lo, 4);
  EXPECT_EQ(back[0].rank_hi, 7);
  EXPECT_EQ(back[0].magnitude, 1.5);
  EXPECT_EQ(back[1].kind, sim::NoiseKind::kIoInterference);
  EXPECT_EQ(back[1].rank_hi, 15);
}

TEST(Quality, GroundTruthSurvivesJournalFileRoundTrip) {
  const std::string path = temp_path("quality_ground_truth");
  std::filesystem::remove_all(path);
  sim::GroundTruthEvent gt;
  gt.kind = sim::NoiseKind::kSlowDram;
  gt.t_begin = 0.1;
  gt.t_end = 0.9;
  gt.rank_lo = 0;
  gt.rank_hi = 7;
  gt.magnitude = 3.0;
  {
    obs::Journal journal;
    obs::SegmentOptions seg;
    seg.directory = path;
    obs::JournalSegmentSink file(seg);
    ASSERT_TRUE(file.ok()) << file.error();
    journal.add_sink(&file);
    core::journal_ground_truth(journal, {gt}, 1.0);
    journal.flush();
  }
  const obs::JournalReadResult read = obs::read_journal(path);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.schema_version, obs::kJournalSchemaVersion);
  const std::vector<sim::GroundTruthEvent> back =
      core::ground_truth_from_journal(read.events);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].kind, sim::NoiseKind::kSlowDram);
  EXPECT_EQ(back[0].magnitude, 3.0);
}

TEST(Quality, UnknownKindInJournalIsSkippedNotFatal) {
  obs::Journal journal;
  CollectingJournalSink sink;
  journal.add_sink(&sink);
  journal.emit("ground_truth", -1, 1.0,
               {obs::JournalField::str("kind", "cosmic_rays"),
                obs::JournalField::num("t_begin", 0.0),
                obs::JournalField::num("t_end", 1.0)});
  EXPECT_TRUE(core::ground_truth_from_journal(sink.events).empty());
}

TEST(Quality, SchemaV1JournalFilesStillParse) {
  // A journal written before the quality schema bump: v1 header, only
  // window events.  The v2 reader must accept it — the file simply
  // contains no ground-truth or quality events.
  const std::string path = temp_path("quality_v1_journal.vjseg");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(obs::kJournalMagic, sizeof(obs::kJournalMagic));
    for (const char* payload :
         {"{\"type\":\"journal_header\",\"schema\":\"vapro.journal\","
          "\"schema_version\":1}",
          "{\"seq\":0,\"type\":\"window\",\"window\":0,\"t\":0.25,"
          "\"variance_ratio\":0.1}",
          "{\"seq\":1,\"type\":\"window\",\"window\":1,\"t\":0.5,"
          "\"variance_ratio\":0.2}"})
      out << obs::encode_record(payload);
  }
  const obs::JournalReadResult read = obs::read_journal(path);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.schema_version, 1);
  ASSERT_EQ(read.events.size(), 2u);
  EXPECT_EQ(read.events[1].number("variance_ratio"), 0.2);
  EXPECT_TRUE(core::ground_truth_from_journal(read.events).empty());
}

TEST(Quality, ExpectedFactorClassesCoverEveryNoiseKind) {
  // Every injectable kind must map to a non-empty expectation set, or the
  // scoreboard would silently excuse the diagnoser for that kind.
  for (sim::NoiseKind kind :
       {sim::NoiseKind::kCpuContention, sim::NoiseKind::kMemoryBandwidth,
        sim::NoiseKind::kSlowDram, sim::NoiseKind::kL2CacheBug,
        sim::NoiseKind::kPageFaultStorm, sim::NoiseKind::kIoInterference,
        sim::NoiseKind::kNetworkCongestion})
    EXPECT_FALSE(core::expected_factor_classes(kind).empty())
        << sim::noise_kind_name(kind);
}

}  // namespace
}  // namespace vapro
