// Per-window pipeline snapshot emitted by the analysis server.
//
// One PipelineStats per processed window carries what the window ingested
// (fragments, carry-ins, new states), what the analysis produced (clusters,
// rare paths, diagnosis stage) and where the wall time went across the
// stages of kStages, the one list of pipeline stages.  Snapshots flow
// through pluggable sinks; CollectingSink keeps them all (JSON export +
// aggregate totals), and LoggingSink narrates each window through the
// tagged logger at debug level.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace vapro::obs {

struct PipelineStats {
  std::size_t window = 0;            // 0-based window ordinal
  double virtual_time = 0.0;         // simulator time at the flush

  // --- volume ---
  std::size_t fragments_drained = 0;
  std::size_t carry_ins = 0;         // overlap fragments re-entered (Fig 8)
  std::size_t new_states = 0;        // STG vertices announced this window
  std::size_t clusters_formed = 0;
  std::size_t rare_clusters = 0;     // Algorithm 1 line 8 candidates
  // Lanes of the intra-window shard pool this window fanned out over (1 =
  // serial, including a window degraded by a "pipeline.shard" fault).
  std::size_t cluster_shards = 1;
  int diagnosis_stage = 0;           // stage after this window's feed

  // --- per-stage wall time (seconds), one field per kStages row ---
  double drain_seconds = 0.0;        // client buffer hand-off
  double stg_seconds = 0.0;          // vertex/edge growth + carry management
  double cluster_seconds = 0.0;      // Algorithm 1 + rare-path scan
  double normalize_seconds = 0.0;    // baseline normalization + eval pairs
  double deposit_seconds = 0.0;      // heat-map deposit + coverage
  double diagnose_seconds = 0.0;     // progressive diagnoser + observer
  double publish_seconds = 0.0;      // metrics/gauges + journal/export
  // Hand-off queue wait (enqueue → worker start); 0 in synchronous mode.
  // NOT part of total_seconds(): it is overlap, not tool work.
  double queue_wait_seconds = 0.0;

  // Total tool time of the window — by definition the sum of every stage
  // but queue_wait, so sinks and tests can rely on the invariant without
  // re-deriving it.
  double total_seconds() const;
};

// One row of the stage table: the stage's name (span "stage.<name>",
// histogram "vapro.server.stage.<name>_seconds", JSON key) and the
// PipelineStats field holding its seconds.
struct Stage {
  const char* name;
  double PipelineStats::*seconds;
};

// Every stage of the analysis pipeline, in canonical critical-path order
// (the earlier stage wins a bound-stage tie).
inline constexpr std::array<Stage, 8> kStages = {{
    {"queue_wait", &PipelineStats::queue_wait_seconds},
    {"drain", &PipelineStats::drain_seconds},
    {"stg", &PipelineStats::stg_seconds},
    {"cluster", &PipelineStats::cluster_seconds},
    {"normalize", &PipelineStats::normalize_seconds},
    {"deposit", &PipelineStats::deposit_seconds},
    {"diagnose", &PipelineStats::diagnose_seconds},
    {"publish", &PipelineStats::publish_seconds},
}};

// Row index of a stage name; consteval, so a misspelt name fails to build.
consteval std::size_t stage_index(std::string_view name) {
  for (std::size_t s = 0; s < kStages.size(); ++s)
    if (name == kStages[s].name) return s;
  throw "no such stage in kStages";
}

inline double PipelineStats::total_seconds() const {
  double total = 0.0;
  for (std::size_t s = 0; s < kStages.size(); ++s)
    if (s != stage_index("queue_wait")) total += this->*kStages[s].seconds;
  return total;
}

class PipelineSink {
 public:
  virtual ~PipelineSink() = default;
  virtual void on_window(const PipelineStats& stats) = 0;
};

class CollectingSink final : public PipelineSink {
 public:
  void on_window(const PipelineStats& stats) override;
  const std::vector<PipelineStats>& windows() const { return windows_; }
  // Sum of every per-window field (window ordinal/stage hold the last).
  PipelineStats totals() const;
  // JSON array of window objects.
  std::string to_json() const;

 private:
  std::vector<PipelineStats> windows_;
};

class LoggingSink final : public PipelineSink {
 public:
  void on_window(const PipelineStats& stats) override;
};

}  // namespace vapro::obs
