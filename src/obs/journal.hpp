// Schema-versioned event journal — Vapro's machine-readable record of
// *what it concluded*, not just what it measured.
//
// One flat JSON object per event: variance regions located, rare-path
// findings, progressive-diagnosis verdicts, PMU reprograms, per-window
// detection health, and fired alerts.  Events carry monotonic sequence
// numbers so a consumer can detect truncation; the first record of a
// journal file is a header object naming the schema ("vapro.journal") and
// its version, and the reader rejects any mismatch instead of guessing.
// On disk every record is a CRC-checked frame in a segment file — see
// src/obs/journal_segment.hpp, the one writer, framing and file layout.
//
// Field values are serialized exactly once, at emission (numbers via
// %.17g so doubles round-trip bit-exactly); the reader preserves the raw
// value text, which is what makes write → read → rewrite byte-identical
// and lets `vapro_replay --from-journal` reproduce the original run's
// detection/diagnosis summaries character for character.
//
// Sinks observe the event stream live: JournalSegmentSink writes the
// segment directory (flushed on every window boundary by ObsContext), and
// the alert engine (alerts.hpp) subscribes as just another sink.  Emission
// from inside a sink callback (e.g. an alert recording itself as an event)
// is legal — the journal queues re-entrant events and drains them after
// the current dispatch, preserving sequence order without recursive
// locking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace vapro::obs {

inline constexpr const char* kJournalSchemaName = "vapro.journal";
// v1: detection/diagnosis conclusion events.  v2 adds the "ground_truth"
// event type (injected noise windows/ranks/factor classes — see
// src/obs/quality.hpp) and the "quality" / "quality_cell" scoreboard
// events.  v3 adds the ingest-plane degradation events: "shed" (an
// admitted-then-evicted or refused batch, with tenant/seq/fragment
// accounting — see src/net/session.hpp) and "net_drop" (a batch refused
// before admission, e.g. outside the reorder window).  Writers stamp the
// current version; the reader accepts any version in
// [kJournalMinReaderVersion, kJournalSchemaVersion] — older files simply
// contain none of the newer event types.
inline constexpr int kJournalSchemaVersion = 3;
inline constexpr int kJournalMinReaderVersion = 1;

// One "key":value pair; `json` is already valid JSON text.  Build with the
// typed factories so numbers are formatted consistently (%.17g).
struct JournalField {
  std::string key;
  std::string json;

  static JournalField num(const std::string& key, double v);
  static JournalField num(const std::string& key, std::uint64_t v);
  static JournalField num(const std::string& key, std::int64_t v);
  static JournalField str(const std::string& key, const std::string& v);
  static JournalField boolean(const std::string& key, bool v);
};

struct JournalEvent {
  std::uint64_t seq = 0;        // assigned by the journal, monotonic from 0
  std::string type;             // e.g. "variance_region", "rare_finding"
  std::int64_t window = -1;     // analysis-window ordinal; -1 = not tied
  double virtual_time = 0.0;    // simulator time associated with the event
  std::vector<JournalField> fields;

  // One JSON object on one line, no trailing newline.
  std::string to_json_line() const;

  // --- field accessors (for consumers; raw text stays untouched) ---
  bool has(const std::string& key) const;
  // Numeric field value; `fallback` when absent or non-numeric.
  double number(const std::string& key, double fallback = 0.0) const;
  // Unescaped string field value; empty when absent or not a string.
  std::string str(const std::string& key) const;
  bool flag(const std::string& key, bool fallback = false) const;
};

class JournalSink {
 public:
  virtual ~JournalSink() = default;
  virtual void on_event(const JournalEvent& event) = 0;
  // Window boundary: buffered sinks should push bytes to durable storage.
  virtual void flush() {}
};

// Assigns sequence numbers and fans events out to sinks.  All emission is
// serialized; re-entrant emits from inside a sink are queued and
// dispatched after the current event, in order.
class Journal {
 public:
  // Borrowed sink; must outlive the journal's use.
  void add_sink(JournalSink* sink);

  // Fills in seq and dispatches.  Returns the assigned sequence number.
  std::uint64_t emit(JournalEvent event);
  // Convenience: build-and-emit.
  std::uint64_t emit(const std::string& type, std::int64_t window,
                     double virtual_time, std::vector<JournalField> fields);

  void flush();
  std::uint64_t events_emitted() const;

 private:
  void dispatch_locked(const JournalEvent& event);

  // Recursive: a sink may emit() from inside its on_event callback (the
  // alert engine journaling a fired alert).  The re-entrant frame takes
  // the lock again on the same thread, sees dispatching_, and queues.
  mutable std::recursive_mutex mu_;
  std::uint64_t next_seq_ = 0;
  bool dispatching_ = false;
  std::vector<JournalEvent> pending_;
  std::vector<JournalSink*> sinks_;
};

// --- reader API -----------------------------------------------------------

struct JournalReadOptions {
  // A writer killed mid-write leaves a torn final frame.  With this set the
  // reader accepts such a journal: the incomplete FINAL frame is dropped,
  // every complete event before it is returned, and its size is reported
  // in `truncated_tail_bytes`.  A CRC or parse failure in any complete
  // frame stays fatal.
  bool recover_truncated_tail = false;
};

struct JournalReadResult {
  bool ok = false;
  std::string error;            // set when !ok (schema mismatch, bad JSON…)
  int schema_version = 0;       // from the header record
  std::size_t truncated_tail_bytes = 0;  // torn final frame dropped (0: none)
  // Events removed by offline compaction, from the `dropped_events` header
  // field (summed across segments).  Replay adds them back into its event
  // count so a compacted journal renders identically to the original.
  std::uint64_t compacted_dropped = 0;
  std::size_t segments = 1;     // files merged (>1 only for directory reads)
  std::vector<JournalEvent> events;
};

// Reads one framed journal file (src/obs/journal_segment.hpp).  Fails
// (ok=false) on: a missing "VJS1" magic, a torn or CRC-mismatched frame,
// a missing or malformed header, a schema name/version mismatch, a payload
// that is not a flat JSON object of scalars, or a non-monotonic sequence
// number.  Sequence numbers may be sparse (a writer may drop records on
// ENOSPC) but never reorder.  When `path` names a directory, the call
// forwards to read_journal_dir (all segments, one stream).
JournalReadResult read_journal(const std::string& path,
                               JournalReadOptions opts = {});

// JSON string escaping shared by journal/exposition/alert serializers.
std::string journal_json_escape(const std::string& s);

}  // namespace vapro::obs
