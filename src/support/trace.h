// Campaign flight recorder: structured tracing for the tuning pipeline.
//
// The tuner's layers (evaluator, delta-debug search, cluster scheduler, VM)
// emit spans, instants, and counters into a Tracer, which fans them out to
// two sinks:
//
//   * a JSONL event log (one JSON object per line, streamed as events occur)
//     for programmatic replay/analysis of a campaign, and
//   * a Chrome trace-event JSON file (the `{"traceEvents":[...]}` schema)
//     loadable in Perfetto / chrome://tracing, with one track per (pid, tid)
//     pair — the cluster simulation maps simulated nodes to tids so node
//     occupancy renders as a timeline.
//
// Tracing is zero-cost when disabled: a default-constructed Tracer (or one
// built from empty TraceOptions) answers enabled() == false and every emit
// method returns immediately; call sites guard attribute construction behind
// enabled() so no strings are formatted on the disabled path. Tracing never
// feeds back into simulated results — a traced campaign and an untraced one
// produce bit-identical cycle counts.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "support/status.h"

namespace prose::trace {

/// Observability handles for a tracer, registered by the owner (the campaign
/// or the server hold the registry; the tracer just bumps the instruments).
/// Null members stay inert. Metrics never feed back into traced results.
struct TraceMetrics {
  obs::Counter* events = nullptr;        // events emitted (all phases)
  obs::Counter* write_errors = nullptr;  // sticky sink degradations
};

/// Escapes a string for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters as \uXXXX or the short forms).
std::string json_escape(std::string_view s);

/// Minimal JSON syntax validator (objects, arrays, strings, numbers,
/// true/false/null). Used by the trace tests; not a full
/// parser — it only answers "would a JSON parser accept this text?".
bool validate_json(std::string_view text, std::string* error = nullptr);

/// Typed attribute value; serializes to a JSON scalar.
class AttrValue {
 public:
  AttrValue(const char* s) : kind_(Kind::kString), str_(s) {}          // NOLINT
  AttrValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  AttrValue(std::string_view s) : kind_(Kind::kString), str_(s) {}     // NOLINT
  AttrValue(double d) : kind_(Kind::kDouble), num_(d) {}               // NOLINT
  AttrValue(bool b) : kind_(Kind::kBool), int_(b ? 1 : 0) {}           // NOLINT
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  AttrValue(T v) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}  // NOLINT

  /// JSON scalar text ("\"x\"", "1.5", "42", "true").
  [[nodiscard]] std::string to_json() const;

 private:
  enum class Kind : std::uint8_t { kString, kDouble, kInt, kBool };
  Kind kind_;
  std::string str_;
  double num_ = 0.0;
  std::int64_t int_ = 0;
};

struct Attr {
  std::string key;
  AttrValue value;
};
using Attrs = std::vector<Attr>;

/// splitmix64 finalizer: the deterministic id mixer shared by every layer
/// that derives trace/span/flow ids from campaign identifiers (namespace
/// digests, content keys, request ids). Never seeded from wall-clock time.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Propagated request identity for distributed tracing across the serve
/// wire: a 128-bit trace id plus the parent span on the client side, all
/// derived deterministically from the campaign's existing ids (namespace
/// digest, content key, request id) — never from wall-clock randomness, so
/// traced runs stay bit-identical to untraced ones. A default-constructed
/// context is "absent": servers still emit spans, just unparented.
struct TraceContext {
  std::uint64_t trace_id_hi = 0;
  std::uint64_t trace_id_lo = 0;
  std::uint64_t parent_span = 0;
  bool sampled = false;

  [[nodiscard]] bool valid() const {
    return trace_id_hi != 0 || trace_id_lo != 0;
  }
  /// 32 lowercase hex chars (the W3C trace-id text form).
  [[nodiscard]] std::string trace_hex() const;

  /// The flow-arrow id stitching a client request span to the server spans
  /// that handled it. Both ends derive it from the context independently,
  /// so the sender's flow_start and the receiver's flow_end pair up without
  /// any extra wire traffic.
  [[nodiscard]] std::uint64_t flow_id() const {
    return mix64(trace_id_lo ^ mix64(parent_span ^ trace_id_hi));
  }
  /// The server-side request span id under that flow.
  [[nodiscard]] std::uint64_t server_span_id() const {
    return mix64(flow_id() ^ 0x5e57e5u);
  }
};

/// Where a trace file pair goes. Empty paths disable the respective sink;
/// both empty disables tracing entirely (the zero-cost path).
struct TraceOptions {
  std::string jsonl_path;   // structured JSONL event log
  std::string chrome_path;  // Chrome trace-event JSON (Perfetto-loadable)

  [[nodiscard]] bool enabled() const {
    return !jsonl_path.empty() || !chrome_path.empty();
  }
};

/// Track identity. Perfetto renders one horizontal track per (pid, tid); the
/// pipeline uses the conventional assignments below so every campaign trace
/// has the same layout.
struct Track {
  int pid = kPipelinePid;
  int tid = 0;

  // Conventional tracks. Real (wall-clock) time lives under kPipelinePid;
  // simulated cluster time lives under kClusterPid, one tid per node.
  static constexpr int kPipelinePid = 1;
  static constexpr int kClusterPid = 2;
  static constexpr int kEvaluatorTid = 0;
  static constexpr int kSearchTid = 1;
  static constexpr int kCampaignTid = 2;
  /// Request-scoped serve spans (client request lifecycles on the campaign
  /// side; admission/queue/execute/replicate lifecycles on the daemon side).
  /// Async (b/e) events only — concurrent requests overlap freely here.
  static constexpr int kServeTid = 3;
  /// Work-pool workers occupy tids kWorkerTidBase + w so a parallel batch
  /// renders as one span track per worker under the pipeline process.
  static constexpr int kWorkerTidBase = 8;

  static Track evaluator() { return {kPipelinePid, kEvaluatorTid}; }
  static Track search() { return {kPipelinePid, kSearchTid}; }
  static Track campaign() { return {kPipelinePid, kCampaignTid}; }
  static Track serve() { return {kPipelinePid, kServeTid}; }
  static Track node(int n) { return {kClusterPid, n}; }
  static Track worker(int w) { return {kPipelinePid, kWorkerTidBase + w}; }
};

/// The flight recorder. Construct with TraceOptions to enable; default
/// construction yields a disabled tracer whose emit methods are no-ops.
///
/// Thread safety: every emit method (and flush) may be called concurrently —
/// the sinks are guarded by an internal mutex, so events from work-pool
/// workers interleave whole, never torn. Spans must still nest *per track*;
/// parallel workers therefore emit on their own Track::worker(w).
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(const TraceOptions& options);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Non-OK when a sink file could not be opened or written.
  [[nodiscard]] const Status& error() const { return error_; }

  /// Wall-clock microseconds since construction (the pipeline timeline).
  /// Only meaningful on an enabled tracer; returns 0 when disabled.
  [[nodiscard]] double now_us() const {
    return us_at(std::chrono::steady_clock::now());
  }
  /// The pipeline-timeline stamp of a clock reading the caller already took
  /// (Span shares one reading between its event and its histogram).
  [[nodiscard]] double us_at(std::chrono::steady_clock::time_point t) const;

  /// Attaches observability instruments (copied; set before emitting from
  /// multiple threads). A write failure that degrades a sink also increments
  /// write_errors, so dashboards catch the degradation the sticky error()
  /// only reports post-hoc.
  void set_metrics(const TraceMetrics& metrics) { metrics_ = metrics; }

  // --- track naming (Chrome metadata events) ---
  void set_process_name(int pid, std::string_view name);
  void set_thread_name(int pid, int tid, std::string_view name);

  // --- events; all no-ops when disabled ---
  /// Span open (ph:"B") / close (ph:"E"). Spans on one track must nest.
  void begin(std::string_view name, Track track, double ts_us,
             const Attrs& attrs = {});
  void end(std::string_view name, Track track, double ts_us,
           const Attrs& attrs = {});
  /// A complete span (ph:"X") with an explicit duration — used for the
  /// cluster node timeline where start and duration are known together.
  void complete(std::string_view name, Track track, double ts_us,
                double dur_us, const Attrs& attrs = {});
  /// A point event (ph:"i").
  void instant(std::string_view name, Track track, double ts_us,
               const Attrs& attrs = {});
  /// A counter sample (ph:"C"); Perfetto renders these as a value track.
  void counter(std::string_view name, Track track, double ts_us, double value);
  /// Async nestable span open (ph:"b") / close (ph:"e"), matched by id.
  /// Unlike begin/end these may overlap freely on one track — the shape of
  /// concurrent serve requests sharing the client's request track.
  void async_begin(std::string_view name, Track track, double ts_us,
                   std::uint64_t id, const Attrs& attrs = {});
  void async_end(std::string_view name, Track track, double ts_us,
                 std::uint64_t id, const Attrs& attrs = {});
  /// Flow arrow start (ph:"s") / finish (ph:"f", bp:"e"), matched by id:
  /// the cross-process stitch from a client request span to the server-side
  /// spans that handled it. Start and finish must share `name`.
  void flow_start(std::string_view name, Track track, double ts_us,
                  std::uint64_t id);
  void flow_end(std::string_view name, Track track, double ts_us,
                std::uint64_t id);

  /// Writes the Chrome trace file and flushes the JSONL stream. Called by
  /// the destructor; call explicitly to observe the Status.
  Status flush();

 private:
  void emit(std::string_view name, char phase, Track track, double ts_us,
            double dur_us, const Attrs& attrs, bool has_value, double value,
            bool has_id = false, std::uint64_t id = 0);

  bool enabled_ = false;
  bool flushed_ = false;
  Status error_;
  TraceOptions options_;
  TraceMetrics metrics_;
  std::mutex mu_;  // guards the sinks (jsonl_, chrome_events_, error_, flushed_)
  std::ofstream jsonl_;
  std::vector<std::string> chrome_events_;
  std::chrono::steady_clock::time_point epoch_;
};

/// The one RAII timing scope. It opens a span on the wall-clock pipeline
/// timeline and/or observes its duration into a latency histogram, and both
/// come from one steady_clock read per boundary. `exemplar`, when it points
/// at a non-empty string by close time, tags the observation with it (a
/// request's trace id), so the slowest buckets name the requests that filled
/// them. With no enabled tracer and no histogram it reads no clock at all.
/// The observed time never flows into simulated results.
class Span {
 public:
  Span(Tracer* tracer, Track track, std::string name, const Attrs& attrs = {},
       obs::Histogram* hist = nullptr, const std::string* exemplar = nullptr)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        hist_(hist),
        exemplar_(exemplar),
        track_(track),
        name_(std::move(name)) {
    if (tracer_ == nullptr && hist_ == nullptr) return;
    start_ = std::chrono::steady_clock::now();
    if (tracer_ != nullptr) {
      tracer_->begin(name_, track_, tracer_->us_at(start_), attrs);
    }
  }
  /// A histogram-only scope: no trace event.
  explicit Span(obs::Histogram* hist, const std::string* exemplar = nullptr)
      : Span(nullptr, Track{}, std::string(), {}, hist, exemplar) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attributes attached to the closing event (e.g. an outcome).
  void annotate(Attrs attrs) { close_attrs_ = std::move(attrs); }
  /// Skips the histogram observation (a failed operation is no latency
  /// sample); the trace span still closes.
  void drop_observation() { hist_ = nullptr; }
  void close() {
    if (tracer_ == nullptr && hist_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    if (hist_ != nullptr) {
      hist_->observe(std::chrono::duration<double>(end - start_).count(),
                     exemplar_ != nullptr ? std::string_view(*exemplar_)
                                          : std::string_view());
      hist_ = nullptr;
    }
    if (tracer_ != nullptr) {
      tracer_->end(name_, track_, tracer_->us_at(end), close_attrs_);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_;
  obs::Histogram* hist_;
  const std::string* exemplar_;
  Track track_;
  std::string name_;
  Attrs close_attrs_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace prose::trace
