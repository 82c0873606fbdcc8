#include "src/obs/pipeline.hpp"

#include <cmath>
#include <sstream>

#include "src/util/log.hpp"

namespace vapro::obs {

namespace {
void append_double(std::ostringstream& oss, double v) {
  if (std::isfinite(v)) {
    oss << v;
  } else {
    oss << "null";
  }
}
}  // namespace

void CollectingSink::on_window(const PipelineStats& stats) {
  windows_.push_back(stats);
}

PipelineStats CollectingSink::totals() const {
  PipelineStats t;
  for (const PipelineStats& w : windows_) {
    t.window = w.window;
    t.virtual_time = w.virtual_time;
    t.diagnosis_stage = w.diagnosis_stage;
    t.fragments_drained += w.fragments_drained;
    t.carry_ins += w.carry_ins;
    t.new_states += w.new_states;
    t.clusters_formed += w.clusters_formed;
    t.rare_clusters += w.rare_clusters;
    t.cluster_shards = w.cluster_shards;  // a config, not a volume: keep last
    for (const Stage& stage : kStages) t.*stage.seconds += w.*stage.seconds;
  }
  return t;
}

std::string CollectingSink::to_json() const {
  std::ostringstream oss;
  oss << '[';
  bool first = true;
  for (const PipelineStats& w : windows_) {
    if (!first) oss << ',';
    first = false;
    oss << "{\"window\":" << w.window << ",\"virtual_time\":";
    append_double(oss, w.virtual_time);
    oss << ",\"fragments_drained\":" << w.fragments_drained
        << ",\"carry_ins\":" << w.carry_ins
        << ",\"new_states\":" << w.new_states
        << ",\"clusters_formed\":" << w.clusters_formed
        << ",\"rare_clusters\":" << w.rare_clusters
        << ",\"cluster_shards\":" << w.cluster_shards
        << ",\"diagnosis_stage\":" << w.diagnosis_stage << ",\"stages\":{";
    for (std::size_t s = 0; s < kStages.size(); ++s) {
      if (s) oss << ',';
      oss << '"' << kStages[s].name << "\":";
      append_double(oss, w.*kStages[s].seconds);
    }
    oss << "},\"total_seconds\":";
    append_double(oss, w.total_seconds());
    oss << '}';
  }
  oss << ']';
  return oss.str();
}

void LoggingSink::on_window(const PipelineStats& stats) {
  VAPRO_LOG_TAG(::vapro::util::LogLevel::kDebug, "obs")
      << "window " << stats.window << " @" << stats.virtual_time << "s: "
      << stats.fragments_drained << " fragments (+" << stats.carry_ins
      << " carry), " << stats.clusters_formed << " clusters ("
      << stats.rare_clusters << " rare), S" << stats.diagnosis_stage << ", "
      << stats.total_seconds() * 1e3 << " ms tool time";
}

}  // namespace vapro::obs
