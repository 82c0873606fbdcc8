// Segmented journal store — the one on-disk shape of the event journal.
//
// A long-lived daemon needs bounded segments it can rotate, ship, and
// compact, so the journal is always a directory of segments
//
//   journal-000000.vjseg, journal-000001.vjseg, ...
//
// rotating on size (`max_segment_bytes`) and/or event age
// (`max_segment_seconds`, measured in virtual time so tests are
// deterministic).  Each segment is self-describing: it opens with the
// magic "VJS1" and its record 0 is the schema header, so any segment can
// be read alone and a directory can be read as one stream.  Every record
// is
//
//   u32 payload_len (LE) | u32 crc32(payload) (LE) | payload
//
// where the payload is the event's JSON object text
// (JournalEvent::to_json_line()).  The CRC is the same CRC-32/IEEE the
// wire codec uses (util::crc32); a torn final frame (a writer killed
// mid-write) is recoverable, while a CRC mismatch anywhere before the tail
// stays fatal — that is corruption, not a crash.
//
// A sink never writes over an existing segment: segment files are created
// exclusively, so pointing a new run at a directory an earlier run left
// behind fails at open instead of splicing two runs into one stream.
//
// Fault sites: "journal.write" honors short_write (torn frame, the sink
// goes quiet like a crashed writer) and fail (ENOSPC: the record is
// dropped and counted, seq numbers keep a gap); "journal.rotate" honors
// fail (the new segment cannot be created; the current segment stays
// active and rotation is retried on a later write).
//
// Offline compaction (`compact_journal`) drops events that replay can no
// longer observe — variance_region/variance_clear snapshots below the
// final revision of their kind, and quality/quality_cell scoreboard
// snapshots superseded by a later one — and records the count in the
// header's `dropped_events` field so `vapro_replay --from-journal` still
// renders the original `events:` line.  Everything kept retains its
// original seq and raw field text, which is what makes the compacted
// replay byte-identical to the uncompacted one.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/journal.hpp"

namespace vapro::obs {

// First four bytes of every journal file.
inline constexpr char kJournalMagic[4] = {'V', 'J', 'S', '1'};

// One framed record for `payload` (a JSON object without a newline):
// u32 length | u32 crc32 | payload, little-endian.
std::string encode_record(const std::string& payload);

// The inverse over a whole journal file: checks the magic, every frame's
// length and CRC, and returns the payloads in order.  A frame cut short
// by the end of the file is an error, or — with recover_truncated_tail —
// dropped and its length reported as `torn_tail_bytes`; a CRC mismatch on
// a complete frame is always an error.
struct DecodedRecords {
  bool ok = false;
  std::string error;  // set when !ok
  std::vector<std::string> payloads;
  std::size_t torn_tail_bytes = 0;  // 0: no torn tail
};
DecodedRecords decode_records(const std::string& bytes,
                              bool recover_truncated_tail);

// Segment file name for index `i`: "journal-%06d.vjseg".
std::string journal_segment_name(std::size_t index);

struct SegmentOptions {
  std::string directory;             // created if missing
  std::uint64_t max_segment_bytes = 0;  // 0 = never rotate on size
  double max_segment_seconds = 0.0;     // 0 = never rotate on event age
};

// Journal sink writing rotating segments into a directory.  Thread-safe;
// flush() flushes the active segment, rotation fsyncs the finished segment
// before switching so a rotation boundary never loses acknowledged events.
class JournalSegmentSink final : public JournalSink {
 public:
  explicit JournalSegmentSink(SegmentOptions options);
  ~JournalSegmentSink() override;

  // False once the first segment could not be created or a torn write
  // silenced the sink.  Safe to call from any thread (e.g. /readyz).
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ok_;
  }
  // Why the most recent segment could not be created (empty if every
  // open succeeded); "already exists" means an earlier run's journal.
  std::string error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }
  const SegmentOptions& options() const { return options_; }
  // Path of the segment currently being written.
  std::string active_path() const;
  // Paths of every segment opened so far, oldest first.
  std::vector<std::string> segment_paths() const;
  std::size_t segments_opened() const;

  std::uint64_t records_written() const { return records_written_; }
  // Records dropped or torn by injected/real write errors.
  std::uint64_t write_faults() const { return write_faults_; }
  // Rotations that could not open their new segment (site journal.rotate).
  std::uint64_t rotate_faults() const { return rotate_faults_; }

  void on_event(const JournalEvent& event) override;
  void flush() override;

 private:
  bool open_segment_locked();
  void sync_locked();
  bool should_rotate_locked(std::size_t record_bytes, double virtual_time) const;

  SegmentOptions options_;
  std::FILE* file_ = nullptr;
  bool ok_ = false;
  std::string error_;
  std::vector<std::string> paths_;       // opened segments, oldest first
  std::uint64_t segment_bytes_ = 0;      // bytes written to the active segment
  std::uint64_t segment_records_ = 0;    // event records in the active segment
  double segment_open_vt_ = 0.0;         // virtual time of its first event
  std::uint64_t records_written_ = 0;
  std::uint64_t write_faults_ = 0;
  std::uint64_t rotate_faults_ = 0;
  mutable std::mutex mu_;
};

// --- directory reader -----------------------------------------------------

// Reads every journal segment in `directory` (files named
// journal-*.vjseg, sorted by name) as one event stream.  Each segment must
// carry a valid header; sequence numbers must stay monotonic across
// segment boundaries.
// Torn-tail recovery (opts.recover_truncated_tail) applies only to the
// final segment — an earlier segment was sealed by a rotation and can
// only be short through corruption.  `compacted_dropped` sums the
// segments' `dropped_events` header fields.
JournalReadResult read_journal_dir(const std::string& directory,
                                   JournalReadOptions opts = {});

// --- writer / compaction --------------------------------------------------

// Writes `events` as a single framed journal file at `path` (any name;
// parent directories are created).  The header records
// `dropped_events` when non-zero.  Events keep their seq / raw field
// text, so write → read → write round-trips byte-identically.
bool write_journal_file(const std::string& path,
                        const std::vector<JournalEvent>& events,
                        std::uint64_t dropped_events, std::string* error);

struct CompactionStats {
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;
};

// In-place supersession pass: removes variance_region/variance_clear
// events below the final revision of their kind and quality/quality_cell
// snapshots older than the last scoreboard snapshot.  Every surviving
// event keeps its original seq (order is untouched), so replay of the
// kept stream reaches the same final state as replay of the full one.
CompactionStats compact_journal_events(std::vector<JournalEvent>* events);

// read (file or directory) → compact → write_journal_file.  The written
// header's dropped_events also carries forward drops recorded by earlier
// compactions of the source.  On success `stats` (if non-null) reports
// this pass's kept/dropped counts.
bool compact_journal(const std::string& source, const std::string& dest,
                     CompactionStats* stats, std::string* error);

}  // namespace vapro::obs
