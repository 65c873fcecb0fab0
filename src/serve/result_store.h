// Persistent, content-addressed store of evaluation results.
//
// One fsync'd JSON line per result, keyed by the FNV-1a digest of (result
// namespace ‖ config key ‖ noise stream). The encoding is the journal's
// (tuner/eval_codec): %.17g doubles with Infinity/-Infinity/NaN tokens, so a
// stored result round-trips bit-exact — a campaign served from the store
// journals the same bytes a local run would have computed.
//
// support/record_log alone defines how the store is recovered, appended,
// rotated and compacted. Two on-disk layouts behind one interface:
//
//   open(path)     — legacy single file, format-1 header, grows forever.
//   open_dir(dir)  — a record_log::SegmentedLog of format-2 segments
//                    (seg-000000.jsonl, ...), each header naming its own
//                    index. The active segment rotates past rotate_bytes;
//                    compact() folds every live record into one new
//                    segment. Duplicates that a crash mid-compaction leaves
//                    behind dedup on load, so nothing acknowledged is lost.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/record_log.h"
#include "support/status.h"
#include "tuner/evaluator.h"

namespace prose::serve {

/// Tuning knobs for segmented (directory) stores.
struct StoreOptions {
  /// Rotate the active segment once it grows past this many bytes. The
  /// default keeps segments small enough that compaction and recovery stay
  /// cheap without rotating every few records.
  std::size_t rotate_bytes = 4u << 20;
  /// Auto-compact at open when more than this many segments survived the
  /// previous run (0 = never compact automatically).
  std::size_t compact_over_segments = 0;
};

class ResultStore {
 public:
  /// In-memory only store (no persistence) — the server's mode when started
  /// without --store.
  ResultStore() = default;

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Opens (creating if absent) the single-file store at `path`, recovering
  /// the valid record prefix. Fails on a foreign file or an unwritable path.
  static StatusOr<std::unique_ptr<ResultStore>> open(const std::string& path);

  /// Opens (creating if absent) the segmented store in directory `dir`
  /// (record_log::SegmentedLog::open); dedup makes re-reading a
  /// half-compacted generation harmless.
  static StatusOr<std::unique_ptr<ResultStore>> open_dir(
      const std::string& dir, const StoreOptions& options = StoreOptions{});

  /// Exact lookup. Returns true and fills *out on a hit. Thread-safe.
  bool lookup(std::uint64_t ns, const std::string& key, std::uint64_t stream,
              tuner::Evaluation* out) const;

  /// Inserts (and, when backed by disk, appends + fsyncs) one result.
  /// A duplicate (ns, key, stream) is ignored — results are deterministic,
  /// the first record is as good as any. Thread-safe. A write failure
  /// degrades the store to memory-only and is reported via error().
  /// Returns the bytes appended to disk (0 for duplicates, memory-only
  /// stores, and failed writes) — telemetry, not a success flag.
  std::size_t insert(std::uint64_t ns, const std::string& key,
                     std::uint64_t stream, const tuner::Evaluation& eval);

  /// Rewrites all live records into one fresh segment and unlinks the old
  /// ones (segmented stores only). Safe against kill -9 at any point.
  /// Thread-safe. Test entry point: serve_fleet_test's crash tests call it
  /// directly; open() runs the same body as prose_served's auto-compaction
  /// (StoreOptions::compact_over_segments).
  Status compact();

  /// Results currently resident (recovered + inserted).
  [[nodiscard]] std::size_t records() const;
  /// Results recovered from disk at open (0 for in-memory stores).
  [[nodiscard]] std::size_t recovered() const { return recovered_; }
  /// On-disk segments: 0 memory-only, 1 single-file, N for directories.
  [[nodiscard]] std::size_t segment_count() const;
  /// First write failure, if the store degraded (ok = healthy).
  [[nodiscard]] Status error() const;
  [[nodiscard]] const std::string& path() const { return path_; }

  /// The content address of one result.
  static std::uint64_t content_key(std::uint64_t ns, const std::string& key,
                                   std::uint64_t stream);

 private:
  struct Record {
    std::uint64_t ns = 0;
    std::string key;
    std::uint64_t stream = 0;
    tuner::Evaluation eval;
  };

  /// Recovery of either layout: indexes every "result" record.
  record_log::Schema schema();
  bool insert_in_memory(std::uint64_t digest, std::uint64_t ns,
                        const std::string& key, std::uint64_t stream,
                        const tuner::Evaluation& eval);
  Status compact_locked();
  void degrade_locked(const Status& why);

  /// Full-record equality check guards against content_key collisions: a
  /// lookup matches only on (ns, key, stream), never on the digest alone.
  std::unordered_map<std::uint64_t, std::vector<Record>> by_digest_;
  std::size_t count_ = 0;
  std::size_t recovered_ = 0;
  std::string path_;
  // Both closed = memory-only (never opened, or degraded).
  record_log::File file_;                             // open(path)
  std::optional<record_log::SegmentedLog> segments_;  // open_dir(dir)

  Status error_ = Status::ok();
  mutable std::mutex mu_;
};

}  // namespace prose::serve
