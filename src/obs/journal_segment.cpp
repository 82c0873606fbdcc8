#include "src/obs/journal_segment.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "src/testing/fault.hpp"
#include "src/util/crc32.hpp"
#include "src/util/fs.hpp"

namespace vapro::obs {

namespace {

namespace fs = std::filesystem;

void store_le32(std::uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

std::string header_payload(std::uint64_t dropped_events) {
  std::ostringstream oss;
  oss << "{\"type\":\"journal_header\",\"schema\":\"" << kJournalSchemaName
      << "\",\"schema_version\":" << kJournalSchemaVersion;
  if (dropped_events > 0) oss << ",\"dropped_events\":" << dropped_events;
  oss << '}';
  return oss.str();
}

bool is_segment_name(const std::string& name) {
  return name.starts_with("journal-") && name.ends_with(".vjseg");
}

std::uint32_t load_le32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

// A frame longer than this is corruption, not data — no journal event
// approaches it, and trusting a garbage length would make a flipped bit
// swallow the rest of the file as "torn tail".
constexpr std::uint32_t kMaxFramePayload = 1u << 24;

// Magic plus the framed schema header: the first bytes of every file.
std::string file_preamble(std::uint64_t dropped_events) {
  return std::string(kJournalMagic, sizeof(kJournalMagic)) +
         encode_record(header_payload(dropped_events));
}

}  // namespace

std::string encode_record(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 8);
  store_le32(static_cast<std::uint32_t>(payload.size()), &out);
  store_le32(util::crc32(payload.data(), payload.size()), &out);
  out += payload;
  return out;
}

DecodedRecords decode_records(const std::string& bytes,
                              bool recover_truncated_tail) {
  DecodedRecords out;
  if (bytes.size() < sizeof(kJournalMagic) ||
      std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    out.error = "missing VJS1 magic: not a framed vapro journal segment";
    return out;
  }
  std::size_t pos = sizeof(kJournalMagic);
  std::size_t frame_no = 0;
  while (pos < bytes.size()) {
    ++frame_no;
    // A complete frame needs its 8-byte header plus the payload; anything
    // shorter at EOF is a torn write from a killed writer.
    if (bytes.size() - pos < 8) {
      if (recover_truncated_tail) {
        out.torn_tail_bytes = bytes.size() - pos;
        break;
      }
      out.error = "torn frame header at byte " + std::to_string(pos);
      return out;
    }
    const std::uint32_t len = load_le32(bytes.data() + pos);
    const std::uint32_t crc = load_le32(bytes.data() + pos + 4);
    if (len > kMaxFramePayload) {
      out.error = "frame " + std::to_string(frame_no) +
                  ": implausible payload length " + std::to_string(len);
      return out;
    }
    if (bytes.size() - pos - 8 < len) {
      if (recover_truncated_tail) {
        out.torn_tail_bytes = bytes.size() - pos;
        break;
      }
      out.error = "torn frame payload at byte " + std::to_string(pos);
      return out;
    }
    // CRC failure on a *complete* frame is corruption (a torn write can
    // only truncate the file), so it is fatal even under recovery.
    if (util::crc32(bytes.data() + pos + 8, len) != crc) {
      out.error = "frame " + std::to_string(frame_no) + ": CRC mismatch";
      return out;
    }
    out.payloads.emplace_back(bytes, pos + 8, len);
    pos += 8 + static_cast<std::size_t>(len);
  }
  out.ok = true;
  return out;
}

std::string journal_segment_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "journal-%06zu.vjseg", index);
  return buf;
}

// --- JournalSegmentSink ---------------------------------------------------

JournalSegmentSink::JournalSegmentSink(SegmentOptions options)
    : options_(std::move(options)) {
  std::lock_guard<std::mutex> lock(mu_);
  ok_ = open_segment_locked();
}

JournalSegmentSink::~JournalSegmentSink() {
  if (file_) std::fclose(file_);
}

std::string JournalSegmentSink::active_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return paths_.empty() ? std::string() : paths_.back();
}

std::vector<std::string> JournalSegmentSink::segment_paths() const {
  std::lock_guard<std::mutex> lock(mu_);
  return paths_;
}

std::size_t JournalSegmentSink::segments_opened() const {
  std::lock_guard<std::mutex> lock(mu_);
  return paths_.size();
}

bool JournalSegmentSink::open_segment_locked() {
  const std::string path =
      options_.directory + "/" + journal_segment_name(paths_.size());
  // ensure_parent_dirs creates everything above the file — which is the
  // segment directory itself.
  util::ensure_parent_dirs(path);
  // "x": exclusive create.  A segment left by an earlier run is never
  // overwritten, so two runs cannot end up spliced into one stream.
  std::FILE* f = std::fopen(path.c_str(), "wbx");
  if (!f) {
    error_ = errno == EEXIST
                 ? path + " already exists (a journal from an earlier run); "
                          "remove it or choose an empty directory"
                 : "cannot create " + path + ": " + std::strerror(errno);
    return false;
  }
  const std::string bytes = file_preamble(0);
  if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fclose(f);
    error_ = "short write to " + path;
    return false;
  }
  if (file_) std::fclose(file_);
  file_ = f;
  paths_.push_back(path);
  segment_bytes_ = bytes.size();
  segment_records_ = 0;
  return true;
}

void JournalSegmentSink::sync_locked() {
  if (!file_) return;
  std::fflush(file_);
  ::fsync(fileno(file_));
}

bool JournalSegmentSink::should_rotate_locked(std::size_t record_bytes,
                                              double virtual_time) const {
  // Never rotate an event-less segment: a record larger than the size cap
  // must still land somewhere, and rotation loops would otherwise spin.
  if (segment_records_ == 0) return false;
  if (options_.max_segment_bytes > 0 &&
      segment_bytes_ + record_bytes > options_.max_segment_bytes)
    return true;
  if (options_.max_segment_seconds > 0.0 &&
      virtual_time - segment_open_vt_ >= options_.max_segment_seconds)
    return true;
  return false;
}

void JournalSegmentSink::on_event(const JournalEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok_) return;
  const std::string record = encode_record(event.to_json_line());
  if (should_rotate_locked(record.size(), event.virtual_time)) {
    // The finished segment must be durable before the switch; on rotation
    // failure the active segment simply keeps growing and the next write
    // retries.
    sync_locked();
    if (VAPRO_FAULT("journal.rotate") == testing::FaultAction::kFail ||
        !open_segment_locked()) {
      ++rotate_faults_;
    }
  }
  switch (VAPRO_FAULT("journal.write")) {
    case testing::FaultAction::kShortWrite:
      // Torn write: a prefix of the frame reaches the disk and the writer
      // dies.  The sink goes quiet like a crashed process; the reader's
      // torn-tail recovery drops the partial frame.
      std::fwrite(record.data(), 1, record.size() / 2, file_);
      std::fflush(file_);
      ok_ = false;
      ++write_faults_;
      return;
    case testing::FaultAction::kFail:
      // ENOSPC: this record is lost but the writer keeps going — readers
      // see a seq gap, never a reorder.
      ++write_faults_;
      return;
    default:
      break;
  }
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    ++write_faults_;
    return;
  }
  if (segment_records_ == 0) segment_open_vt_ = event.virtual_time;
  ++segment_records_;
  segment_bytes_ += record.size();
  ++records_written_;
}

void JournalSegmentSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok_) std::fflush(file_);
}

// --- directory reader -----------------------------------------------------

JournalReadResult read_journal_dir(const std::string& directory,
                                   JournalReadOptions opts) {
  JournalReadResult result;
  std::vector<std::string> names;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (is_segment_name(name)) names.push_back(name);
  }
  if (ec) {
    result.error = "cannot list " + directory + ": " + ec.message();
    return result;
  }
  if (names.empty()) {
    result.error = "no journal segments in " + directory;
    return result;
  }
  // Zero-padded indices make the lexicographic order the write order.
  std::sort(names.begin(), names.end());

  result.segments = names.size();
  std::int64_t last_seq = -1;
  for (std::size_t i = 0; i < names.size(); ++i) {
    JournalReadOptions seg_opts = opts;
    // A sealed segment ends with a rotation fsync; only the final segment
    // can legitimately be torn by a writer crash.
    seg_opts.recover_truncated_tail =
        opts.recover_truncated_tail && i + 1 == names.size();
    JournalReadResult seg =
        read_journal(directory + "/" + names[i], seg_opts);
    if (!seg.ok) {
      result.error = names[i] + ": " + seg.error;
      return result;
    }
    result.schema_version = std::max(result.schema_version, seg.schema_version);
    result.truncated_tail_bytes += seg.truncated_tail_bytes;
    result.compacted_dropped += seg.compacted_dropped;
    for (JournalEvent& ev : seg.events) {
      if (static_cast<std::int64_t>(ev.seq) <= last_seq) {
        result.error = names[i] + ": non-monotonic seq " +
                       std::to_string(ev.seq) + " across segment boundary";
        return result;
      }
      last_seq = static_cast<std::int64_t>(ev.seq);
      result.events.push_back(std::move(ev));
    }
  }
  result.ok = true;
  return result;
}

// --- writer / compaction --------------------------------------------------

bool write_journal_file(const std::string& path,
                        const std::vector<JournalEvent>& events,
                        std::uint64_t dropped_events, std::string* error) {
  util::ensure_parent_dirs(path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << file_preamble(dropped_events);
  for (const JournalEvent& ev : events) out << encode_record(ev.to_json_line());
  out.flush();
  if (!out) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

CompactionStats compact_journal_events(std::vector<JournalEvent>* events) {
  CompactionStats stats;
  // Final revision per region kind: everything below it was superseded
  // in-stream and replay (core::summarize_journal) discards it anyway.
  std::uint64_t final_revision[3] = {0, 0, 0};
  constexpr const char* kKindNames[3] = {"computation", "communication", "io"};
  for (const JournalEvent& ev : *events) {
    if (ev.type != "variance_region" && ev.type != "variance_clear") continue;
    const std::string kind = ev.str("kind");
    for (int k = 0; k < 3; ++k)
      if (kind == kKindNames[k])
        final_revision[k] = std::max(
            final_revision[k], static_cast<std::uint64_t>(ev.number("revision")));
  }
  // Quality scoreboard snapshots: each `quality` event closes a snapshot
  // (its cells precede it), and a later snapshot supersedes the whole
  // earlier one.  Keep only the cells after the last-but-one `quality`
  // plus the final `quality` itself.
  std::int64_t last_quality_seq = -1;
  std::int64_t prev_quality_seq = -1;
  for (const JournalEvent& ev : *events) {
    if (ev.type != "quality") continue;
    prev_quality_seq = last_quality_seq;
    last_quality_seq = static_cast<std::int64_t>(ev.seq);
  }

  auto superseded = [&](const JournalEvent& ev) {
    if (ev.type == "variance_region" || ev.type == "variance_clear") {
      const std::string kind = ev.str("kind");
      for (int k = 0; k < 3; ++k)
        if (kind == kKindNames[k])
          return static_cast<std::uint64_t>(ev.number("revision")) <
                 final_revision[k];
      return false;
    }
    if (ev.type == "quality")
      return static_cast<std::int64_t>(ev.seq) != last_quality_seq;
    if (ev.type == "quality_cell")
      return static_cast<std::int64_t>(ev.seq) < prev_quality_seq;
    return false;
  };

  std::vector<JournalEvent> kept;
  kept.reserve(events->size());
  for (JournalEvent& ev : *events) {
    if (superseded(ev))
      ++stats.dropped;
    else
      kept.push_back(std::move(ev));
  }
  stats.kept = kept.size();
  *events = std::move(kept);
  return stats;
}

bool compact_journal(const std::string& source, const std::string& dest,
                     CompactionStats* stats, std::string* error) {
  JournalReadOptions opts;
  opts.recover_truncated_tail = true;
  JournalReadResult read = read_journal(source, opts);
  if (!read.ok) {
    if (error) *error = read.error;
    return false;
  }
  const CompactionStats pass = compact_journal_events(&read.events);
  if (stats) *stats = pass;
  return write_journal_file(dest, read.events,
                            read.compacted_dropped + pass.dropped, error);
}

}  // namespace vapro::obs
