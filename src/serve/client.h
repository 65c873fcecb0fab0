// Campaign-side client of the evaluation service.
//
// Implements tuner::EvalBackend, so a campaign plugs it in with
// CampaignOptions::backend and every cache miss is shipped to the daemon as
// a pipelined batch of eval frames. The client never chooses noise streams —
// it forwards the ones the campaign's evaluator assigned in proposal order,
// which is the whole determinism story: results depend only on
// (namespace, config, stream), never on which client asked first.
//
// One transport for any number of daemons: Options::endpoints lists the
// shards, and a single evaluation server is simply a fleet of one. The
// client builds the same rendezvous ring the daemons were given as --peers,
// routes each request to its key's home shard, and keeps the campaign
// running through shard trouble: hedged requests (after a deterministic
// latency threshold the same request races on the next replica; first
// answer wins), automatic failover when a shard dies or starts draining
// mid-batch, deterministic jittered backoff for busy rejections, and
// per-batch reprobing of dead shards (off the daemon's /healthz) so a
// restarted shard heals back into the rotation. Every degradation is
// tallied in counters() — results are bit-identical to local evaluation no
// matter what died.
//
// Failure policy mirrors the journal/tracer sinks: a dead or misbehaving
// server degrades the campaign to local computation (bit-identical results,
// just slower), never fails it. `busy` frames are retried after a
// deterministic seeded backoff; a transport error marks the shard dead and
// reroutes its in-flight items to the next replica.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/ring.h"
#include "serve/wire.h"
#include "sim/machine.h"
#include "support/status.h"
#include "tuner/evaluator.h"

namespace prose::serve {

class ServeClient : public tuner::EvalBackend {
 public:
  struct Options {
    /// Every shard's endpoint, verbatim and in the same ring as the
    /// daemons' --peers lists (placement hashes these exact strings). One
    /// entry = a single server. Must not be empty.
    std::vector<std::string> endpoints;
    /// Model name the server resolves (TargetSpec::name, e.g. "MPAS-A").
    std::string model;
    std::uint64_t noise_seed = 2024;
    std::string fault_spec;
    std::uint64_t fault_seed = 2025;
    int retry_max_attempts = 3;
    double retry_backoff_seconds = 30.0;
    /// Client-side target digest (wire.h target_digest); 0 skips the check.
    /// When set, the hello fails unless the server's model is bit-identical.
    std::uint64_t target_digest = 0;
    /// When set, the hello carries this full machine model inline and the
    /// server evaluates under it — one fleet serves campaigns tuning for
    /// different hardware. Combine with target_digest for an end-to-end
    /// agreement check on the decoded model.
    std::optional<sim::MachineModel> machine;
    /// Precision lattice for the served namespace, as a canonical
    /// comma-separated format list ("binary16,binary32,binary64"). Empty =
    /// the legacy two-level lattice (and the hello payload is byte-identical
    /// to one from before this field existed). Part of the target digest, so
    /// lattices never share namespaces.
    std::string formats;
    /// Bound on busy→retry rounds per request before giving up (and falling
    /// back to local computation).
    int max_busy_retries = 200;
    /// Deterministic jittered backoff for busy rejections: attempt k sleeps
    /// min(cap, base·2^(k-1)) scaled by a [0.5, 1) factor derived from
    /// (noise_seed, request id, k) — identical on every replay, never
    /// synchronized across clients. The server's retry_after hint, when
    /// larger, floors the first attempt.
    double busy_backoff_base_seconds = 0.05;
    double busy_backoff_cap_seconds = 2.0;
    /// Hedge threshold. A request unanswered this long is re-issued
    /// to its key's next replica; the first reply wins (results are
    /// bit-identical by construction, so either answer is THE answer).
    /// <= 0 disables hedging.
    double hedge_after_seconds = 0.0;
    /// Bound on dialing one shard (connect + nothing else). Keeps a wedged
    /// daemon from hanging connect()/reprobe forever.
    double connect_timeout_seconds = 10.0;
    /// Bound on the hello round trip. Generous by default — a cold daemon
    /// runs the target's baseline inside the first hello — but finite, so a
    /// SIGSTOPped daemon yields kDeadlineExceeded instead of hanging the
    /// campaign. <= 0 waits forever.
    double hello_timeout_seconds = 300.0;
    /// A shard whose socket stays silent this long past the last send is
    /// declared wedged and failed over, exactly like a dead one (with no
    /// replica left, its items fall back to local computation). <= 0 trusts
    /// shards to answer eventually.
    double io_timeout_seconds = 0.0;
    /// Re-dial dead shards at the start of each batch (preceded by a
    /// /healthz probe when the shard ever completed a hello), healing a
    /// restarted shard back into the rotation.
    bool reprobe_dead = true;
  };

  /// Connects and completes the hello handshake with every shard (which
  /// pins the result namespace server-side). Tolerates unreachable shards
  /// (they start dead and may heal later) but needs at least one hello to
  /// succeed, and fails hard with kInvalidArgument on an empty endpoint
  /// list or on protocol, model, or digest disagreement — a misconfigured
  /// fleet must not half work.
  static StatusOr<std::unique_ptr<ServeClient>> connect(const Options& options);
  ~ServeClient() override;

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// EvalBackend: evaluates configs[i] on streams[i], pipelining the whole
  /// batch. Per-item failures degrade per item.
  std::vector<RemoteItem> evaluate_many(
      std::span<const tuner::Config> configs,
      std::span<const std::uint64_t> streams) override;

  /// The first live shard's stats_ok payload (raw JSON) — script and bench
  /// introspection.
  StatusOr<std::string> stats_json();

  /// Fleet-wide stats: one JSON object per shard, dead shards included
  /// ({"endpoint":...,"alive":false}).
  std::string fleet_stats_json();

  /// Namespace digest the server assigned at hello (16-char hex).
  [[nodiscard]] const std::string& namespace_hex() const { return ns_hex_; }

  /// Shards currently routable (connected, admitted the hello, not
  /// draining).
  [[nodiscard]] std::size_t alive_shards() const;

  /// EvalBackend: degradation tallies — fallbacks, busy waits, hedges,
  /// failovers, shards lost. Surfaced in CampaignSummary and the campaign
  /// registry; safe to read concurrently with evaluate_many.
  [[nodiscard]] Counters counters() const override {
    Counters c;
    c.fallback_items = fallback_items_.load(std::memory_order_relaxed);
    c.busy_retries = busy_retries_.load(std::memory_order_relaxed);
    c.hedges = hedges_.load(std::memory_order_relaxed);
    c.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
    c.failovers = failovers_.load(std::memory_order_relaxed);
    c.shards_lost = shards_lost_.load(std::memory_order_relaxed);
    c.busy_backoff_seconds =
        static_cast<double>(backoff_us_.load(std::memory_order_relaxed)) /
        1e6;
    return c;
  }

  /// The deterministic busy backoff: attempt k (1-based) after request
  /// `request_id` sleeps min(cap, base·2^(k-1)) · (0.5 + u/2) where u is a
  /// splitmix64 mix of (noise_seed, request_id, k) folded to [0, 1). Pure —
  /// replays and tests compute the exact same schedule.
  static double busy_backoff_seconds(std::uint64_t noise_seed,
                                     std::uint64_t request_id, int attempt,
                                     double base, double cap);

  /// EvalBackend: attaches the campaign's flight recorder. From then on
  /// every remote request gets an async client/request span, a trace
  /// context on its eval frames (primary, busy resends, hedges, failovers
  /// each carry a per-transmission parent span), and a flow arrow the
  /// handling shard's spans stitch to. Pure observability: ids derive from
  /// (namespace, content key, request id) — never wall clock — so traced
  /// batches stay bit-identical to untraced ones.
  void set_tracer(trace::Tracer* tracer) override { tracer_ = tracer; }

 private:
  /// One clock-offset estimate from a hello round trip: the server's trace
  /// clock at hello, bracketed by the client's steady clock. The merge tool
  /// shifts that shard's timestamps by (server_us - client hello midpoint)
  /// to land them on the client timeline; rtt bounds the estimate's error.
  struct ClockSample {
    double server_us = -1.0;  // server trace-clock µs at hello (<0 = none)
    double mid_raw_us = 0.0;  // client steady-clock µs at hello midpoint
    double rtt_us = 0.0;      // hello round-trip time
    bool emitted = false;     // serve/clock instant already written
  };

  /// One shard: a lazily-(re)dialed connection plus its health state.
  struct Shard {
    std::string endpoint;
    int fd = -1;
    FrameDecoder dec;
    bool alive = false;      // connected + hello_ok + not draining
    bool ever_alive = false; // completed a hello at least once
    std::string http;        // /healthz endpoint from hello_ok ("" = none)
    double last_heard = 0.0; // monotonic, last byte received
    double last_sent = 0.0;  // monotonic, last frame written
    ClockSample clock;       // offset estimate from the latest hello
  };

  ServeClient() = default;

  /// Dials + hellos one shard. kInvalidArgument = configuration disagreement
  /// (fatal); anything else = availability (shard stays dead).
  Status connect_shard(Shard* s);
  std::string hello_payload() const;
  /// Parses a hello_ok / error reply; fills ns_hex_ on first success.
  Status check_hello_reply(Shard& s, const std::string& payload);
  /// Sends `stats` on the shard's connection and skips frames until the
  /// stats_ok reply, which it returns.
  StatusOr<std::string> shard_stats(Shard& s);
  void mark_dead(std::size_t shard_index);
  /// Writes one serve/clock instant per shard whose hello carried a server
  /// trace clock (once per sample) — the merge tool reads these to align
  /// shard timelines. No-op until set_tracer.
  void emit_clock_samples();

  Options options_;
  HashRing ring_;
  std::vector<Shard> shards_;  // index-aligned with ring_
  trace::Tracer* tracer_ = nullptr;  // campaign flight recorder (may be null)
  std::uint64_t next_id_ = 1;
  std::string ns_hex_;
  std::uint64_t ns_digest_ = 0;
  std::atomic<std::uint64_t> fallback_items_{0};
  std::atomic<std::uint64_t> busy_retries_{0};
  std::atomic<std::uint64_t> hedges_{0};
  std::atomic<std::uint64_t> hedge_wins_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> shards_lost_{0};
  std::atomic<std::uint64_t> backoff_us_{0};
  mutable std::mutex mu_;  // one request/response conversation at a time
};

/// One-shot stats query over a fresh connection (no hello needed) — lets
/// scripts and operators poll a daemon without standing up a campaign.
/// `timeout_seconds` bounds connect and read (a SIGSTOPped daemon yields
/// kDeadlineExceeded, not a hang); <= 0 waits forever.
StatusOr<std::string> query_stats(const std::string& endpoint,
                                  double timeout_seconds = 10.0);

}  // namespace prose::serve
