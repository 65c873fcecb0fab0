// Durable JSONL record log: the one on-disk discipline behind the campaign
// journal and the result store.
//
// A log is a file of newline-terminated JSON lines. The first non-blank line
// is a header record whose "type" names the kind of log; every later line is
// one record. An append is one write() loop (EINTR and short writes retried)
// followed by fsync, so a crash at any instant leaves at most one torn
// trailing line.
//
// Recovery keeps the longest trustworthy line prefix: a line without '\n' is
// torn, and the first line that does not parse, or that the owner rejects,
// ends the prefix. A file whose first complete line is not the expected
// header, or that has complete lines but no header at all, is refused:
// opening it for append would truncate somebody else's file or write records
// that no later recovery accepts.
//
// SegmentedLog spreads one log over a directory of numbered segments
// (seg-000000.jsonl, seg-000001.jsonl, ...), each a log whose header names
// its own index. The highest segment is active and rotates past a byte
// budget. Compaction writes the live records into one new segment (.tmp,
// fsync, rename, directory fsync) and only then unlinks the old ones, so a
// kill at any instant leaves the old generation, both (the owner dedups), or
// the new one.
//
// Nothing here locks: each owner serialises its own calls.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.h"
#include "support/status.h"

namespace prose::record_log {

/// What recovery needs to know about one kind of log.
struct Schema {
  /// The header record's "type" ("campaign", "prose-store").
  std::string header_type;
  /// The log's name in refusal messages ("journal", "result store").
  std::string noun;
  /// Further checks on the parsed header; an error refuses the file with
  /// that status. May be empty.
  std::function<Status(const json::Value& header)> accept_header;
  /// Consumes one record after the header; false ends the trusted prefix
  /// before it.
  std::function<bool(const json::Value& record)> accept_record;
};

/// Recovers `path` (a missing file recovers as empty). Returns the byte
/// length of the trusted prefix, which always ends on a line boundary.
StatusOr<std::size_t> recover_file(const std::string& path,
                                   const Schema& schema);

/// One open log file that appends durable lines at its end. Move-only.
class File {
 public:
  File() = default;
  File(File&& other) noexcept { *this = std::move(other); }
  File& operator=(File&& other) noexcept;
  ~File() { close(); }

  /// Opens or creates `path`, truncates it to `keep_bytes` (the recovered
  /// prefix), and writes and fsyncs `header`, a complete line, when nothing
  /// is kept. Creating the file also fsyncs its directory, so the new name
  /// survives a crash.
  static StatusOr<File> open(const std::string& path, std::size_t keep_bytes,
                             std::string_view header);

  /// Writes one newline-terminated line and fsyncs it. A failure closes the
  /// file: a torn line may now end it, so nothing more may follow.
  Status append(std::string_view line);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  /// The kept prefix plus everything appended since.
  [[nodiscard]] std::size_t size() const { return size_; }
  void close();

 private:
  friend class SegmentedLog;
  File(int fd, std::string path, std::size_t size)
      : fd_(fd), size_(size), path_(std::move(path)) {}
  /// Creates `path` afresh holding `content`, fsyncs it and, with
  /// `sync_dir`, its directory. Crash points "<step>written", "<step>synced"
  /// and "<step>dir_synced" fire between the steps (none when `step` is
  /// null). On failure the new file is removed.
  static StatusOr<File> create(const std::string& path,
                               std::string_view content, const char* step,
                               bool sync_dir);

  int fd_ = -1;
  std::size_t size_ = 0;
  std::string path_;
};

/// A log spread over a directory of numbered segments.
class SegmentedLog {
 public:
  /// Opens (creating if absent) the segment directory `dir`. Deletes stale
  /// .tmp files of an interrupted compaction, recovers every segment in
  /// index order, refuses a segment whose header names another index (a
  /// copied or spliced file), and truncates a torn tail off the active
  /// segment only. `header` is the JSON object (no newline) that starts
  /// every segment, each adding its own "segment" index.
  static StatusOr<SegmentedLog> open(const std::string& dir,
                                     const Schema& schema, std::string header,
                                     std::size_t rotate_bytes);

  /// Appends one line to the active segment. A new segment is started first
  /// when the line would take one that already holds a record past the
  /// rotation budget.
  Status append(std::string_view line);

  /// Writes `records` (complete lines) as one new segment, then unlinks
  /// every older one. Safe against a kill at any point.
  Status compact(std::string_view records);

  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }

 private:
  SegmentedLog() = default;
  [[nodiscard]] std::string segment_path(std::size_t index) const;
  [[nodiscard]] std::string segment_header(std::size_t index) const;
  Status rotate();

  std::string dir_;
  std::string header_;
  std::size_t rotate_bytes_ = 0;
  std::vector<std::size_t> segments_;  // live segment indices, ascending
  File active_;                        // the highest segment
};

/// Test-only: invoked at the named cut points of rotation ("rotate.written",
/// "rotate.synced", "rotate.dir_synced") and compaction
/// ("compact.tmp_written", "compact.tmp_synced", "compact.renamed",
/// "compact.dir_synced", "compact.unlinked"). Crash tests fork, install a
/// hook that raises SIGKILL at one point, and check what survives. Null (the
/// default) disables it. Process-global. Test fixture: serve_fleet_test's
/// store crash tests are its only caller.
void set_crash_hook(void (*hook)(const char* point));

}  // namespace prose::record_log
