// Write-ahead campaign journal: crash-safe persistence of every evaluated
// variant, enabling bit-identical resume after a kill.
//
// The journal is a one-file support/record_log, which alone defines how it
// is recovered and appended. The first record is a campaign header (model,
// seeds, fault spec, retry policy, cluster shape); every subsequent record is
// either one evaluated variant (config key, noise stream id, and the complete
// Evaluation) or a batch marker (search round + simulated cluster clock,
// informational). A record is durable before append_variant returns.
//
// Resume never replays "campaign state" — it replays *evaluations*. The
// searches are deterministic given the evaluator, so a resumed campaign
// reruns the search from the start while the evaluator satisfies journaled
// configurations from the log instead of re-simulating them (see
// Evaluator::set_journal_replay). All derived state — memo cache, noise
// stream assignment, ClusterSim clock, delta-debug decisions — is recomputed
// on the identical inputs, which makes the final CampaignResult bit-identical
// to the uninterrupted run, for any worker count.
//
// Write failures (full disk, yanked volume) degrade gracefully: the journal
// warns once on stderr, stops writing, and records the error for
// CampaignSummary; the campaign itself keeps running.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "support/record_log.h"
#include "tuner/evaluator.h"

namespace prose::tuner {

/// Campaign identity, written as the journal's first record. A resume
/// refuses a journal whose header does not match the resuming campaign —
/// evaluations from a different model, seed, fault plan, or retry policy
/// would silently poison the memo cache.
struct JournalHeader {
  std::string model;
  std::uint64_t noise_seed = 0;
  std::string fault_spec;
  std::uint64_t fault_seed = 0;
  int retry_max_attempts = 1;
  double retry_backoff_seconds = 0.0;
  std::size_t nodes = 0;
  double wall_budget_seconds = 0.0;
  /// Canonical comma-separated precision-format list ("binary16,binary32,
  /// binary64"); empty for the legacy two-level lattice. Legacy journals
  /// omit the field entirely, so their bytes are unchanged — and a resume
  /// across a format-list change is refused like any other identity skew.
  std::string formats;

  /// Empty string when compatible; otherwise names the first mismatch.
  [[nodiscard]] std::string mismatch(const JournalHeader& other) const;
};

/// One journaled evaluation.
struct JournalVariant {
  std::string key;            // Config::key()
  std::uint64_t stream = 0;   // proposal-order noise stream id
  Evaluation eval;
};

/// Everything recovered from a journal file.
struct JournalData {
  bool has_header = false;
  JournalHeader header;
  std::vector<JournalVariant> variants;
  /// Byte offset after the last complete, parseable record — the
  /// crash-consistent prefix. Appending resumes from here (any partial
  /// trailing record from a mid-write kill is truncated away).
  std::size_t valid_bytes = 0;
};

class Journal {
 public:
  /// Reads a journal back for resume under record_log::recover. A missing
  /// or empty file, or a torn header, yields an empty JournalData (fresh
  /// start); a foreign file is refused, since open() would truncate it.
  static StatusOr<JournalData> load(const std::string& path);

  /// Opens the journal for appending (record_log::File::open).
  /// `keep_bytes == nullopt` starts fresh with just the header record;
  /// otherwise the recovered prefix is kept and appending continues.
  static StatusOr<std::unique_ptr<Journal>> open(
      const std::string& path, const JournalHeader& header,
      std::optional<std::size_t> keep_bytes = std::nullopt);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends + fsyncs one variant record. Thread-safe. On write failure the
  /// journal degrades: one stderr warning, no further writes, error() set.
  void append_variant(const std::string& key, std::uint64_t stream,
                      const Evaluation& eval);

  /// Appends a batch marker (search round, simulated cluster clock).
  void append_batch(std::size_t round, double cluster_seconds,
                    std::size_t variants);

  /// Appends one shadow-diagnosis record (CampaignOptions::diagnose). Only
  /// ever written after the final variant/batch record, so an undiagnosed
  /// campaign's journal is a byte-identical prefix of the diagnosed one's;
  /// load() treats "diag" records as informational, keeping resume exact.
  /// Divergences can be non-finite: doubles are serialized with the
  /// Infinity/-Infinity/NaN tokens (accepted by json::parse and Python's
  /// json.loads).
  void append_diag(const BlameReport& report);

  /// Appends one metrics-footer record (a campaign's final MetricsSnapshot:
  /// counters, gauges, histogram count/sum/quantiles). Opt-in — the footer
  /// carries wall-clock values, so CampaignOptions::metrics_footer keeps it
  /// off by default to preserve byte-identical journals across runs and
  /// worker counts. Like diag records, it is only written after the final
  /// variant/batch record and load() treats it as informational, so resume
  /// stays exact either way.
  void append_metrics(const obs::MetricsSnapshot& snapshot);

  /// Attaches an observability registry (non-owning; null detaches):
  /// registers journal_records/fsync-latency/error series and bumps them
  /// from append_line. Call before concurrent appends begin.
  void set_metrics(obs::Registry* registry);

  /// First write failure, sticky; OK while the journal is healthy.
  [[nodiscard]] Status error() const;

  /// Chaos-testing knob: raise SIGKILL immediately after the Nth variant
  /// record of this process is made durable — a deterministic mid-campaign
  /// crash for the kill/resume process test. 0 disables.
  void set_kill_after_variants(std::size_t n);

 private:
  explicit Journal(record_log::File file);
  void append_line(const std::string& line, bool count_variant);

  mutable std::mutex mu_;
  record_log::File file_;  // closed after the first write failure
  Status error_;
  std::size_t appended_ = 0;
  std::size_t kill_after_ = 0;
  obs::Counter* m_records_ = nullptr;        // instruments; null = no metrics
  obs::Histogram* m_fsync_seconds_ = nullptr;
  obs::Counter* m_errors_ = nullptr;
};

}  // namespace prose::tuner
