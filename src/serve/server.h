// Tuning-as-a-service: the campaign evaluation server.
//
// One daemon owns the expensive substrate — parsed targets, baselines,
// fault plans — and serves evaluation results to any number of campaign
// clients over the PF01 wire protocol (serve/wire.h):
//
//   * one shared Evaluator per result namespace (target digest, noise seed,
//     fault spec/seed, retry policy), created lazily on the first hello and
//     reused by every client in that namespace;
//   * evaluation requests fan out onto a ThreadPool via a dispatcher thread
//     that drains a bounded admission queue; when the queue is full the
//     client gets a `busy` error frame with a retry_after hint instead of
//     unbounded buffering;
//   * identical concurrent requests single-flight: the first one computes,
//     the rest attach as waiters and share the result (cross-client);
//   * every computed result lands in a persistent content-addressed
//     ResultStore before any waiter sees it, so a warm store serves repeat
//     campaigns without executing anything.
//
// Determinism contract: the server never assigns noise streams — each
// request carries the stream its client's evaluator assigned in proposal
// order. Arrival order, client count, and server jobs therefore cannot
// change any result: a served campaign is bit-identical to a local one.
//
// Shutdown (SIGTERM → Server::shutdown) drains: stop accepting, finish
// in-flight evaluations, deliver their responses, flush store and tracer,
// then wait() returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/http.h"
#include "obs/metrics.h"
#include "serve/result_store.h"
#include "serve/ring.h"
#include "serve/wire.h"
#include "support/json.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "tuner/evaluator.h"

namespace prose::serve {

/// Maps a hello's model name to its target spec. The serve library does not
/// depend on the model registry — the prose_served binary (or a test)
/// injects one.
using TargetResolver =
    std::function<StatusOr<tuner::TargetSpec>(const std::string& model)>;

struct ServerOptions {
  /// "unix:/path", "tcp:host:port", or a bare path (unix).
  std::string endpoint;
  /// Result-store file (empty = memory-only; results die with the daemon).
  std::string store_path;
  /// Segmented store: treat store_path as a directory of rotating segments
  /// (see ResultStore::open_dir) instead of one append-forever file.
  bool store_dir = false;
  /// Rotation/compaction knobs for segmented stores.
  StoreOptions store_options;
  /// The whole fleet's endpoint list, verbatim and identical on every daemon
  /// (and passed as --servers to clients) — placement is a pure function of
  /// these strings. Must include this server's own `endpoint`. Empty =
  /// standalone, no replication.
  std::vector<std::string> peers;
  /// Replication factor R: each computed result is made durable on the R
  /// first ring successors of its content key before any client sees it.
  /// Capped by the fleet size; <= 1 disables replication.
  std::size_t replicate = 2;
  /// Bound on connect + acknowledge time per peer replication write. A dead
  /// or wedged peer costs at most this much per batch and is tallied in
  /// repl_failed, never propagated to the requesting client.
  double peer_timeout_seconds = 5.0;
  /// Evaluation worker threads (0 = one per hardware thread).
  std::size_t jobs = 0;
  /// Admission-queue bound: distinct evaluations queued-but-not-running
  /// before new requests are rejected with `busy`.
  std::size_t queue_capacity = 256;
  /// retry_after hint (seconds) carried in `busy` error frames.
  double retry_after_seconds = 0.05;
  /// Flight-recorder sinks (serve/* and cache/* counters, per-request
  /// instants). Both empty = tracing off.
  trace::TraceOptions trace;
  /// Observability endpoint ("unix:/path", "tcp:host:port", or a bare
  /// path; empty = no HTTP listener). Serves GET /metrics (Prometheus
  /// text exposition of the server registry) and GET /healthz (200 while
  /// serving, 503 once a drain begins).
  std::string http_endpoint;
  /// Keep the HTTP listener up this long after the drain completes, so
  /// orchestrators polling /healthz observe the 503 before the socket
  /// disappears. 0 = stop the listener as soon as the drain is done.
  double drain_grace_seconds = 0.0;
};

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;        // eval requests admitted or answered
  std::uint64_t evals_executed = 0;  // actually computed on the pool
  std::uint64_t store_hits = 0;      // answered from the result store
  std::uint64_t coalesced = 0;       // attached to an identical in-flight eval
  std::uint64_t busy_rejections = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t aborts = 0;          // injected evaluator aborts forwarded
  std::uint64_t puts_in = 0;         // replication writes applied from peers
  std::uint64_t repl_sent = 0;       // replication writes acked by peers
  std::uint64_t repl_failed = 0;     // replication writes lost to dead peers
  std::uint64_t trace_write_errors = 0;  // trace-sink degradations (sticky)
  std::size_t namespaces = 0;
  std::size_t store_records = 0;
  std::size_t store_segments = 0;
};

class Server {
 public:
  Server(ServerOptions options, TargetResolver resolver);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the store, binds the endpoint, and starts the accept and
  /// dispatcher threads. Returns immediately.
  Status start();

  /// Graceful drain: stop accepting, finish and deliver in-flight work,
  /// flush store and tracer. Idempotent; safe from a signal-watching thread.
  void shutdown();

  /// Simulated kill -9 for in-process chaos tests: sever every socket
  /// abruptly (clients and peers see connection resets, exactly as if the
  /// process died), drop queued work unanswered, stop all threads. The
  /// store's on-disk state is whatever the fsync discipline guarantees —
  /// nothing is flushed on the way down. Idempotent with shutdown().
  /// Test fixture: serve_fleet_test kills fleet members with it to check
  /// failover and replica recovery without forking a process.
  void hard_kill();

  /// Blocks until shutdown() has completed the drain.
  void wait();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const std::string& endpoint() const {
    return options_.endpoint;
  }
  /// Resolved HTTP endpoint ("tcp:host:0" reports the bound port), or ""
  /// when no listener was configured.
  [[nodiscard]] std::string http_endpoint() const {
    return http_ != nullptr ? http_->endpoint() : std::string();
  }
  /// Live registry snapshot (empty before start()).
  [[nodiscard]] obs::MetricsSnapshot metrics() const {
    return registry_.snapshot();
  }

 private:
  struct Namespace;
  struct Connection;
  struct Unit;
  struct Peer;

  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> conn);
  void dispatch_loop();
  /// Handles one decoded payload on `conn`; false = close the connection.
  bool handle_payload(const std::shared_ptr<Connection>& conn,
                      const std::string& payload);
  bool handle_hello(const std::shared_ptr<Connection>& conn,
                    const json::Value& v);
  /// `rpc_exemplar`, when non-null, receives the request's trace-id hex so
  /// the enclosing rpc_seconds observation can carry a latency exemplar.
  bool handle_eval(const std::shared_ptr<Connection>& conn,
                   const json::Value& v, std::string* rpc_exemplar);
  bool handle_put(const std::shared_ptr<Connection>& conn,
                  const json::Value& v);
  /// Pushes one computed result to its ring successors (durable before any
  /// waiter is answered). Peer failures are tallied, never propagated.
  /// `ctx` is the primary requester's trace context, propagated on the put
  /// frames so replication writes join the request's distributed trace.
  void replicate_result(std::uint64_t ns, const std::string& key,
                        std::uint64_t stream, const tuner::Evaluation& eval,
                        const trace::TraceContext& ctx);
  void send_to(const std::shared_ptr<Connection>& conn,
               const std::string& payload);
  void send_error(const std::shared_ptr<Connection>& conn, std::int64_t id,
                  const std::string& code, const std::string& message,
                  double retry_after = 0.0);
  std::string stats_payload() const;
  void bump_counter(const char* name, std::uint64_t value);
  void register_metrics();

  ServerOptions options_;
  TargetResolver resolver_;
  /// Fleet placement (empty ring = standalone) and this daemon's slot in it.
  HashRing ring_;
  std::size_t self_index_ = HashRing::npos;
  std::vector<std::unique_ptr<Peer>> peers_;  // one per ring slot, self null
  std::unique_ptr<ResultStore> store_;
  std::unique_ptr<ThreadPool> pool_;
  trace::Tracer tracer_;
  std::atomic<int> listen_fd_{-1};

  /// Server registry. Instruments are registered once in start(); the
  /// pointers below are hot-path handles (never null after start()).
  obs::Registry registry_;
  struct ServeMetrics {
    obs::Counter* connections = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* frames_in = nullptr;
    obs::Counter* frames_out = nullptr;
    obs::Counter* evals = nullptr;
    obs::Counter* store_hits = nullptr;
    obs::Counter* store_appends = nullptr;
    obs::Counter* store_bytes = nullptr;
    obs::Counter* coalesced = nullptr;
    obs::Counter* busy = nullptr;
    obs::Counter* bad_frames = nullptr;
    obs::Counter* aborts = nullptr;
    obs::Counter* puts_in = nullptr;
    obs::Counter* repl_sent = nullptr;
    obs::Counter* repl_failed = nullptr;
    obs::Counter* trace_events = nullptr;
    obs::Counter* trace_write_errors = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* namespaces = nullptr;
    obs::Gauge* store_segments = nullptr;
    obs::Histogram* rpc_seconds = nullptr;
    obs::Histogram* eval_seconds = nullptr;
  };
  ServeMetrics m_;
  std::unique_ptr<obs::HttpServer> http_;
  /// Flipped at shutdown() entry, before the drain starts — /healthz
  /// reports 503 for the whole drain (and the drain_grace window after).
  std::atomic<bool> draining_{false};

  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> conn_threads_;

  /// Namespaces live for the server's lifetime; creation (which runs the
  /// namespace's baseline) serializes on ns_mu_.
  std::mutex ns_mu_;
  std::map<std::uint64_t, std::unique_ptr<Namespace>> namespaces_;

  /// Dispatch state: the admission queue and the single-flight table.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Unit*> queue_;
  std::map<std::string, std::unique_ptr<Unit>> inflight_;  // by unit key
  bool stopping_ = false;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
  std::atomic<bool> started_{false};
  std::atomic<bool> shut_down_{false};
  std::atomic<bool> killed_{false};  // hard_kill(): drop work, never answer
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  bool drained_ = false;  // guarded by done_mu_
};

}  // namespace prose::serve
