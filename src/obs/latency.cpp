#include "src/obs/latency.hpp"

#include <cstdio>
#include <sstream>

namespace vapro::obs {

namespace {

// %.17g matches JournalField::num, so a double that went through the
// journal renders the same bytes live and on replay.
std::string fmt_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_ms(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}

void append_record_json(std::ostringstream& oss,
                        const WindowLatencyRecord& r) {
  oss << "{\"window\":" << r.window
      << ",\"virtual_time\":" << fmt_num(r.virtual_time);
  for (std::size_t s = 0; s < kStages.size(); ++s)
    oss << ",\"" << kStages[s].name << "_seconds\":"
        << fmt_num(r.stage_seconds[s]);
  oss << ",\"bound_by\":\"" << r.bound_by()
      << "\",\"bound_seconds\":" << fmt_num(r.bound_seconds())
      << ",\"total_seconds\":" << fmt_num(r.total_seconds()) << '}';
}

}  // namespace

WindowLatencyRecord WindowLatencyRecord::of(const PipelineStats& stats) {
  WindowLatencyRecord r;
  r.window = static_cast<std::int64_t>(stats.window);
  r.virtual_time = stats.virtual_time;
  for (std::size_t s = 0; s < kStages.size(); ++s)
    r.stage_seconds[s] = stats.*kStages[s].seconds;
  return r;
}

double WindowLatencyRecord::total_seconds() const {
  double total = 0.0;
  for (double s : stage_seconds) total += s;
  return total;
}

std::size_t WindowLatencyRecord::bound_stage() const {
  std::size_t best = 0;
  for (std::size_t s = 1; s < kStages.size(); ++s)
    if (stage_seconds[s] > stage_seconds[best]) best = s;
  return best;
}

void CriticalPathTracker::record(const WindowLatencyRecord& r) {
  std::lock_guard<std::mutex> lock(mu_);
  recent_.push_back(r);
  while (recent_.size() > keep_) recent_.pop_front();
  ++sum_.windows;
  sum_.total_seconds += r.total_seconds();
  for (std::size_t s = 0; s < kStages.size(); ++s)
    sum_.stage_seconds[s] += r.stage_seconds[s];
  ++sum_.bound_windows[r.bound_stage()];
}

std::size_t CriticalPathTracker::Summary::dominant_stage() const {
  if (windows == 0) return kStages.size();
  std::size_t best = 0;
  for (std::size_t s = 1; s < kStages.size(); ++s)
    if (bound_windows[s] > bound_windows[best]) best = s;
  return best;
}

std::vector<WindowLatencyRecord> CriticalPathTracker::recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recent_.begin(), recent_.end()};
}

CriticalPathTracker::Summary CriticalPathTracker::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

std::string render_latency_json(const std::vector<WindowLatencyRecord>& recent,
                                const CriticalPathTracker::Summary& sum) {
  std::ostringstream oss;
  oss << "{\"windows\":" << sum.windows
      << ",\"total_seconds\":" << fmt_num(sum.total_seconds) << ",\"recent\":[";
  bool first = true;
  for (const WindowLatencyRecord& r : recent) {
    if (!first) oss << ',';
    first = false;
    append_record_json(oss, r);
  }
  oss << "]}";
  return oss.str();
}

std::string render_critical_path_json(
    const std::vector<WindowLatencyRecord>& recent,
    const CriticalPathTracker::Summary& sum) {
  std::ostringstream oss;
  const std::size_t dom = sum.dominant_stage();
  oss << "{\"windows\":" << sum.windows << ",\"dominant\":";
  if (dom < kStages.size())
    oss << '"' << kStages[dom].name << '"';
  else
    oss << "null";
  oss << ",\"stages\":[";
  for (std::size_t s = 0; s < kStages.size(); ++s) {
    if (s) oss << ',';
    oss << "{\"stage\":\"" << kStages[s].name
        << "\",\"seconds\":" << fmt_num(sum.stage_seconds[s])
        << ",\"bound_windows\":" << sum.bound_windows[s] << '}';
  }
  oss << "],\"recent\":[";
  bool first = true;
  for (const WindowLatencyRecord& r : recent) {
    if (!first) oss << ',';
    first = false;
    oss << "{\"window\":" << r.window << ",\"bound_by\":\"" << r.bound_by()
        << "\",\"bound_seconds\":" << fmt_num(r.bound_seconds()) << '}';
  }
  oss << "]}";
  return oss.str();
}

std::string render_critical_path_table(
    const std::vector<WindowLatencyRecord>& recent,
    const CriticalPathTracker::Summary& sum) {
  std::ostringstream oss;
  oss << "critical path (" << recent.size() << " recent of " << sum.windows
      << " windows)\n";
  if (sum.windows == 0) {
    oss << "  (no windows analyzed)\n";
    return oss.str();
  }
  char line[160];
  std::snprintf(line, sizeof(line), "  %8s  %-10s  %12s  %12s\n", "window",
                "bound_by", "bound_ms", "total_ms");
  oss << line;
  for (const WindowLatencyRecord& r : recent) {
    std::snprintf(line, sizeof(line), "  %8lld  %-10s  %12s  %12s\n",
                  static_cast<long long>(r.window), r.bound_by(),
                  fmt_ms(r.bound_seconds()).c_str(),
                  fmt_ms(r.total_seconds()).c_str());
    oss << line;
  }
  const std::size_t dom = sum.dominant_stage();
  oss << "  stage totals:";
  for (std::size_t s = 0; s < kStages.size(); ++s) {
    oss << (s ? " | " : " ") << kStages[s].name << ' '
        << fmt_ms(sum.stage_seconds[s]) << "ms (" << sum.bound_windows[s]
        << " bound)";
  }
  oss << "\n  dominant stage: "
      << (dom < kStages.size() ? kStages[dom].name : "none") << '\n';
  return oss.str();
}

void journal_window_latency(Journal& journal, const WindowLatencyRecord& r) {
  std::vector<JournalField> fields;
  fields.reserve(kStages.size() + 2);
  for (std::size_t s = 0; s < kStages.size(); ++s)
    fields.push_back(JournalField::num(
        std::string(kStages[s].name) + "_seconds", r.stage_seconds[s]));
  fields.push_back(JournalField::str("bound_by", r.bound_by()));
  fields.push_back(JournalField::num("bound_seconds", r.bound_seconds()));
  journal.emit("window_latency", r.window, r.virtual_time, std::move(fields));
}

void journal_critical_path(Journal& journal, std::int64_t last_window,
                           double virtual_time,
                           const CriticalPathTracker::Summary& sum) {
  std::vector<JournalField> fields;
  fields.push_back(JournalField::num("windows", sum.windows));
  fields.push_back(JournalField::num("total_seconds", sum.total_seconds));
  for (std::size_t s = 0; s < kStages.size(); ++s) {
    fields.push_back(JournalField::num(
        std::string(kStages[s].name) + "_seconds", sum.stage_seconds[s]));
    fields.push_back(JournalField::num(
        std::string(kStages[s].name) + "_bound_windows",
        sum.bound_windows[s]));
  }
  const std::size_t dom = sum.dominant_stage();
  fields.push_back(JournalField::str(
      "dominant", dom < kStages.size() ? kStages[dom].name : ""));
  journal.emit("critical_path", last_window, virtual_time, std::move(fields));
}

WindowLatencyRecord window_latency_from_event(const JournalEvent& event) {
  WindowLatencyRecord r;
  r.window = event.window;
  r.virtual_time = event.virtual_time;
  for (std::size_t s = 0; s < kStages.size(); ++s)
    r.stage_seconds[s] =
        event.number(std::string(kStages[s].name) + "_seconds");
  return r;
}

}  // namespace vapro::obs
