#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "prec/format.h"
#include "support/json.h"
#include "tuner/eval_codec.h"

namespace prose::serve {

// --- private structs ------------------------------------------------------

/// One result namespace: a shared Evaluator (with its fault plan) serving
/// every client that said hello with the same (target, noise seed, fault
/// spec/seed, retry policy). Lives for the server's lifetime.
struct Server::Namespace {
  std::uint64_t digest = 0;
  std::uint64_t target = 0;
  FaultPlan plan;  // must outlive the evaluator it is attached to
  std::unique_ptr<tuner::Evaluator> evaluator;
};

struct Server::Connection {
  int fd = -1;
  std::mutex write_mu;  // frames are written whole, never interleaved
  Namespace* ns = nullptr;  // set by a successful hello
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

/// One ring peer this daemon replicates to: a lazily-connected, serially-used
/// control connection. Reconnects on the next write after any failure.
struct Server::Peer {
  std::string endpoint;
  int fd = -1;
  FrameDecoder dec;
  std::int64_t next_id = 1;
  std::mutex mu;  // one put/put_ok exchange at a time
  ~Peer() {
    if (fd >= 0) ::close(fd);
  }
};

/// One admitted evaluation: a distinct (namespace, config key, stream)
/// triple and every client waiting on it (single-flight).
struct Server::Unit {
  std::string ukey;
  std::uint64_t ns_digest = 0;
  std::string key;
  std::uint64_t stream = 0;
  tuner::Config config;
  tuner::Evaluator* evaluator = nullptr;
  struct Waiter {
    std::shared_ptr<Connection> conn;
    std::int64_t id = 0;
    /// The requester's propagated trace identity and its serve/request span
    /// id (0 when the server is untraced) — the span stays open from
    /// admission until this waiter's answer goes out.
    trace::TraceContext ctx;
    std::uint64_t span = 0;
  };
  std::vector<Waiter> waiters;
  /// Primary requester's context (rides the replication put frames) and the
  /// unit's own work-span id (queue/execute/store/replicate phases).
  trace::TraceContext ctx;
  std::uint64_t span = 0;
};

namespace {

std::string unit_key(std::uint64_t ns, const std::string& key,
                     std::uint64_t stream) {
  std::string u = digest_hex(ns);
  u += '|';
  u += key;
  u += '|';
  u += std::to_string(stream);
  return u;
}

std::int64_t frame_id(const json::Value& v) {
  const json::Value* id = v.find("id");
  return id != nullptr ? id->int_or(-1) : -1;
}

}  // namespace

// --- lifecycle ------------------------------------------------------------

Server::Server(ServerOptions options, TargetResolver resolver)
    : options_(std::move(options)),
      resolver_(std::move(resolver)),
      tracer_(options_.trace) {}

Server::~Server() {
  shutdown();
  wait();
}

Status Server::start() {
  if (started_.exchange(true)) {
    return Status(StatusCode::kInvalidArgument, "server already started");
  }
  if (options_.trace.enabled() && !tracer_.error().is_ok()) {
    return tracer_.error();
  }
  register_metrics();
  if (!options_.store_path.empty()) {
    auto store = options_.store_dir
                     ? ResultStore::open_dir(options_.store_path,
                                             options_.store_options)
                     : ResultStore::open(options_.store_path);
    if (!store.is_ok()) return store.status();
    store_ = std::move(store.value());
  } else {
    store_ = std::make_unique<ResultStore>();
  }
  m_.store_segments->set(static_cast<double>(store_->segment_count()));
  if (!options_.peers.empty()) {
    ring_ = HashRing(options_.peers);
    self_index_ = ring_.index_of(options_.endpoint);
    if (self_index_ == HashRing::npos) {
      return Status(StatusCode::kInvalidArgument,
                    "--peers must list this server's own endpoint '" +
                        options_.endpoint + "' verbatim");
    }
    peers_.resize(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      if (i == self_index_) continue;
      peers_[i] = std::make_unique<Peer>();
      peers_[i]->endpoint = ring_.node(i);
    }
  }
  const std::size_t jobs = options_.jobs == 0 ? ThreadPool::hardware_workers()
                                              : options_.jobs;
  if (jobs > 1) {
    pool_ = std::make_unique<ThreadPool>(jobs);
    PoolMetrics pm;
    pm.batches = registry_.counter("prose_pool_batches_total",
                                   "Thread-pool batches dispatched.");
    pm.items = registry_.counter("prose_pool_items_total",
                                 "Thread-pool work items completed.");
    pm.queue_depth = registry_.gauge("prose_pool_queue_depth",
                                     "Work items not yet claimed by a worker.");
    pm.active_workers = registry_.gauge("prose_pool_active_workers",
                                        "Workers currently running an item.");
    pool_->set_metrics(pm);
  }

  auto fd = listen_endpoint(options_.endpoint);
  if (!fd.is_ok()) return fd.status();
  listen_fd_ = fd.value();

  if (!options_.http_endpoint.empty()) {
    auto http = obs::HttpServer::start(
        options_.http_endpoint, [this](const std::string& path) {
          obs::HttpResponse resp;
          if (path == "/metrics") {
            resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
            resp.body = obs::to_prometheus(registry_.snapshot());
          } else if (path == "/healthz") {
            if (draining_.load(std::memory_order_relaxed)) {
              resp.status = 503;
              resp.body = "draining\n";
            } else {
              resp.body = "ok\n";
            }
          } else {
            resp.status = 404;
            resp.body = "not found\n";
          }
          return resp;
        });
    if (!http.is_ok()) {
      if (const int lfd = listen_fd_.exchange(-1); lfd >= 0) ::close(lfd);
      unlink_endpoint(options_.endpoint);
      return http.status();
    }
    http_ = std::move(http.value());
  }

  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

void Server::register_metrics() {
  m_.connections = registry_.counter("prose_serve_connections_total",
                                     "Client connections accepted.");
  m_.requests = registry_.counter("prose_serve_requests_total",
                                  "Eval requests admitted or answered.");
  m_.frames_in = registry_.counter("prose_serve_frames_in_total",
                                   "Wire frames decoded from clients.");
  m_.frames_out = registry_.counter("prose_serve_frames_out_total",
                                    "Wire frames sent to clients.");
  m_.evals = registry_.counter("prose_serve_evals_total",
                               "Evaluations actually computed on the pool.");
  m_.store_hits = registry_.counter("prose_serve_store_hits_total",
                                    "Requests answered from the result store.");
  m_.store_appends = registry_.counter(
      "prose_serve_store_appends_total",
      "Result records appended (and fsync'd) to the store file.");
  m_.store_bytes = registry_.counter("prose_serve_store_bytes_total",
                                     "Bytes appended to the store file.");
  m_.coalesced = registry_.counter(
      "prose_serve_coalesced_total",
      "Requests attached to an identical in-flight evaluation.");
  m_.busy = registry_.counter("prose_serve_busy_total",
                              "Requests rejected busy (admission queue full).");
  m_.bad_frames = registry_.counter("prose_serve_bad_frames_total",
                                    "Undecodable or unparsable frames.");
  m_.aborts = registry_.counter("prose_serve_aborts_total",
                                "Injected evaluator aborts forwarded.");
  m_.puts_in = registry_.counter(
      "prose_serve_puts_total",
      "Replication writes applied from ring peers.");
  m_.repl_sent = registry_.counter(
      "prose_serve_repl_sent_total",
      "Replication writes acknowledged by ring peers.");
  m_.repl_failed = registry_.counter(
      "prose_serve_repl_failed_total",
      "Replication writes lost to dead or timed-out peers.");
  m_.store_segments = registry_.gauge(
      "prose_serve_store_segments",
      "On-disk store segments (0 = memory-only).");
  m_.queue_depth = registry_.gauge(
      "prose_serve_queue_depth",
      "Admitted evaluations queued but not yet dispatched.");
  m_.namespaces = registry_.gauge("prose_serve_namespaces",
                                  "Result namespaces resident.");
  m_.rpc_seconds = registry_.histogram(
      "prose_serve_rpc_seconds", "Per-frame handling latency (seconds).",
      obs::latency_buckets_seconds());
  m_.eval_seconds = registry_.histogram(
      "prose_serve_eval_seconds",
      "Per-evaluation host execution latency (seconds).",
      obs::latency_buckets_seconds());
  trace::TraceMetrics tm;
  tm.events = registry_.counter("prose_trace_events_total",
                                "Flight-recorder events emitted.");
  tm.write_errors = registry_.counter(
      "prose_trace_write_errors_total",
      "Sticky trace-sink write degradations.");
  m_.trace_events = tm.events;
  m_.trace_write_errors = tm.write_errors;
  tracer_.set_metrics(tm);
}

void Server::shutdown() {
  if (!started_.load() || shut_down_.exchange(true)) return;

  // Health flips first: /healthz answers 503 for the entire drain, so a
  // poller that sees 200 is guaranteed the server was still admitting.
  draining_.store(true, std::memory_order_relaxed);

  // Stop admitting: new eval requests get `shutting_down`, the accept loop
  // exits on its next poll tick, and readers are woken out of recv() with a
  // half-close — their sockets stay writable for in-flight responses.
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (const int fd = listen_fd_.exchange(-1); fd >= 0) ::close(fd);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
    }
  }
  // The dispatcher drains the queue (delivering every admitted evaluation's
  // response) before it exits; connection readers exit on the half-close.
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  {
    std::lock_guard lock(conns_mu_);
    for (auto& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    conn_threads_.clear();
    conns_.clear();
  }
  unlink_endpoint(options_.endpoint);
  // The store fsyncs per insert; only the tracer buffers — flush it as part
  // of the drain so SIGTERM leaves a loadable timeline. A failed flush is a
  // degradation, never an abort: one warning, a sticky counter, and the
  // drain completes normally (the journal's discipline).
  if (const Status trace_status = tracer_.flush(); !trace_status.is_ok()) {
    std::fprintf(stderr,
                 "warning: trace flush: %s — timeline will be incomplete\n",
                 trace_status.message().c_str());
    if (m_.trace_write_errors != nullptr) m_.trace_write_errors->inc();
  }
  if (http_ != nullptr) {
    // The metrics/health listener outlives the drain by the grace window:
    // scrapers get a final post-drain scrape and orchestrators observe the
    // 503 before the socket disappears.
    if (options_.drain_grace_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.drain_grace_seconds));
    }
    http_->stop();
    http_.reset();
  }
  {
    std::lock_guard lock(done_mu_);
    drained_ = true;
  }
  done_cv_.notify_all();
}

void Server::wait() {
  if (!started_.load()) return;
  std::unique_lock lock(done_mu_);
  done_cv_.wait(lock, [this] { return drained_; });
}

void Server::hard_kill() {
  if (!started_.load() || shut_down_.exchange(true)) return;
  killed_.store(true);
  draining_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (const int fd = listen_fd_.exchange(-1); fd >= 0) ::close(fd);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Full reset on every socket: clients and peers observe exactly what a
    // SIGKILLed process would give them — mid-request connection failures,
    // no goodbye frames, no drained responses.
    std::lock_guard lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  {
    std::lock_guard lock(conns_mu_);
    for (auto& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    conn_threads_.clear();
    conns_.clear();
  }
  unlink_endpoint(options_.endpoint);
  // No tracer flush, no drain grace: the store holds exactly the records
  // whose fsync completed — the same guarantee a real kill -9 leaves.
  if (http_ != nullptr) {
    http_->stop();
    http_.reset();
  }
  {
    std::lock_guard lock(done_mu_);
    drained_ = true;
  }
  done_cv_.notify_all();
}

// --- accept / read --------------------------------------------------------

void Server::accept_loop() {
  while (true) {
    const int fd = listen_fd_.load();
    if (fd < 0) return;
    pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, 200);
    {
      std::lock_guard lock(mu_);
      if (stopping_) return;
    }
    if (rc <= 0) continue;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = client;
    {
      std::lock_guard slock(stats_mu_);
      ++stats_.connections;
    }
    m_.connections->inc();
    std::lock_guard lock(conns_mu_);
    conns_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn] { connection_loop(conn); });
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  FrameDecoder dec;
  std::string payload;
  bool corrupt = false;
  while (!corrupt) {
    char buf[8192];
    // Drain whole frames already buffered before reading more.
    while (true) {
      auto got = dec.next(&payload);
      if (!got.is_ok()) {
        // Framing lost (bad magic / oversized length): one clean error
        // frame, then close — there is no way to find the next frame
        // boundary in an unsynchronized stream.
        {
          std::lock_guard slock(stats_mu_);
          ++stats_.bad_frames;
        }
        m_.bad_frames->inc();
        send_error(conn, -1, "bad_frame", got.status().message());
        corrupt = true;
        break;
      }
      if (!got.value()) break;
      m_.frames_in->inc();
      if (!handle_payload(conn, payload)) {
        corrupt = true;
        break;
      }
    }
    if (corrupt) break;
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n == 0) break;  // orderly EOF (or drain half-close)
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    dec.feed(buf, static_cast<std::size_t>(n));
  }
  if (corrupt) {
    // Framing is lost: nothing further from this peer can be trusted. Hang
    // up now (the error frame above already went out) — the Connection
    // object itself lives until shutdown, so only the socket is torn down.
    // On orderly EOF the socket stays open instead: in-flight responses for
    // pipelined requests still need the write side during a drain.
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

// --- request handling -----------------------------------------------------

bool Server::handle_payload(const std::shared_ptr<Connection>& conn,
                            const std::string& payload) {
  // Declared before the timer: the timer's destructor reads it, so it must
  // be destroyed after (locals unwind in reverse declaration order).
  std::string rpc_exemplar;
  const trace::Span rpc_timer(m_.rpc_seconds, &rpc_exemplar);
  auto parsed = json::parse(payload);
  if (!parsed.is_ok()) {
    // Garbage *inside* an intact frame: framing is still synchronized, so
    // the connection survives — reject just this request.
    {
      std::lock_guard slock(stats_mu_);
      ++stats_.bad_frames;
    }
    m_.bad_frames->inc();
    send_error(conn, -1, "bad_frame", parsed.status().message());
    return true;
  }
  const json::Value& v = parsed.value();
  const std::string type =
      v.find("type") != nullptr ? v.find("type")->str_or("") : "";
  if (type == "eval") return handle_eval(conn, v, &rpc_exemplar);
  if (type == "hello") return handle_hello(conn, v);
  if (type == "put") return handle_put(conn, v);
  if (type == "stats") {
    send_to(conn, stats_payload());
    return true;
  }
  send_error(conn, frame_id(v), "bad_request",
             "unknown frame type '" + type + "'");
  return true;
}

bool Server::handle_hello(const std::shared_ptr<Connection>& conn,
                          const json::Value& v) {
  const std::int64_t proto =
      v.find("proto") != nullptr ? v.find("proto")->int_or(0) : 0;
  if (proto != kProtoVersion) {
    send_error(conn, frame_id(v), "bad_request",
               "protocol version " + std::to_string(proto) +
                   " unsupported (server speaks " +
                   std::to_string(kProtoVersion) + ")");
    return false;  // versions disagree: nothing else will parse either
  }
  const std::string model =
      v.find("model") != nullptr ? v.find("model")->str_or("") : "";
  auto spec = resolver_(model);
  if (!spec.is_ok()) {
    send_error(conn, frame_id(v), "unknown_model",
               "model '" + model + "': " + spec.status().message());
    return true;
  }
  if (const json::Value* machine = v.find("machine"); machine != nullptr) {
    // The client tunes for different hardware than this daemon's default:
    // overlay its full machine model before computing the digest, so one
    // process serves many target/machine digests instead of rejecting them.
    auto m = machine_from_json(*machine);
    if (!m.is_ok()) {
      send_error(conn, frame_id(v), "bad_request",
                 "machine: " + m.status().message());
      return true;
    }
    spec.value().machine = m.value();
  }
  if (const json::Value* formats = v.find("formats"); formats != nullptr) {
    // Precision lattice overlay: the client tunes over more than the
    // two-level lattice. Part of the target digest, so namespaces with
    // different lattices never share results.
    const std::string list = formats->str_or("");
    if (list.empty()) {
      spec.value().formats.clear();
    } else {
      std::string bad;
      auto kinds = prec::parse_format_list(list, &bad);
      if (kinds.empty()) {
        send_error(conn, frame_id(v), "bad_request",
                   "formats: unknown format '" + bad + "'");
        return true;
      }
      spec.value().formats = std::move(kinds);
    }
  }
  const std::uint64_t digest = target_digest(spec.value());
  if (const json::Value* want = v.find("target_digest");
      want != nullptr && want->str_or("") != digest_hex(digest)) {
    send_error(conn, frame_id(v), "digest_mismatch",
               "client target digest " + want->str_or("") +
                   " != server " + digest_hex(digest) +
                   " — the server's model differs from yours");
    return true;
  }

  const auto get_int = [&v](const char* name, std::int64_t fallback) {
    const json::Value* f = v.find(name);
    return f != nullptr ? f->int_or(fallback) : fallback;
  };
  const auto noise_seed =
      static_cast<std::uint64_t>(get_int("noise_seed", 2024));
  const std::string fault_spec =
      v.find("fault_spec") != nullptr ? v.find("fault_spec")->str_or("") : "";
  const auto fault_seed =
      static_cast<std::uint64_t>(get_int("fault_seed", 2025));
  const int retry_max = static_cast<int>(get_int("retry_max_attempts", 3));
  const double retry_backoff =
      v.find("retry_backoff_seconds") != nullptr
          ? v.find("retry_backoff_seconds")->num_or(30.0)
          : 30.0;
  const std::uint64_t ns_digest = namespace_digest(
      digest, noise_seed, fault_spec, fault_seed, retry_max, retry_backoff);

  Namespace* ns = nullptr;
  {
    // Namespace creation runs the target's baseline — seconds of work — so
    // concurrent hellos serialize here; repeat hellos are a map lookup.
    std::lock_guard lock(ns_mu_);
    auto it = namespaces_.find(ns_digest);
    if (it == namespaces_.end()) {
      auto fresh = std::make_unique<Namespace>();
      fresh->digest = ns_digest;
      fresh->target = digest;
      if (!fault_spec.empty()) {
        auto plan = FaultPlan::parse(fault_spec, fault_seed);
        if (!plan.is_ok()) {
          send_error(conn, frame_id(v), "bad_request",
                     "fault spec: " + plan.status().message());
          return true;
        }
        fresh->plan = std::move(plan.value());
      }
      auto ev = tuner::Evaluator::create(spec.value(), noise_seed,
                                         tracer_.enabled() ? &tracer_ : nullptr);
      if (!ev.is_ok()) {
        send_error(conn, frame_id(v), "bad_request",
                   "evaluator: " + ev.status().message());
        return true;
      }
      fresh->evaluator = std::move(ev.value());
      if (!fresh->plan.empty()) {
        fresh->evaluator->set_fault_plan(&fresh->plan);
        fresh->evaluator->set_retry_policy(
            RetryPolicy{retry_max, retry_backoff});
      }
      it = namespaces_.emplace(ns_digest, std::move(fresh)).first;
      m_.namespaces->set(static_cast<double>(namespaces_.size()));
      std::lock_guard slock(stats_mu_);
      stats_.namespaces = namespaces_.size();
    }
    ns = it->second.get();
  }
  conn->ns = ns;

  std::string out = "{\"type\":\"hello_ok\",\"proto\":" +
                    std::to_string(kProtoVersion);
  out += ",\"id\":" + std::to_string(frame_id(v));
  out += ",\"target_digest\":" + tuner::json_quoted(digest_hex(digest));
  out += ",\"namespace\":" + tuner::json_quoted(digest_hex(ns_digest));
  out += ",\"atoms\":" + std::to_string(ns->evaluator->space().size());
  if (http_ != nullptr) {
    // Where to probe this daemon's /healthz — fleet clients use it to tell
    // a dead shard from a busy one without burning an eval connection.
    out += ",\"http\":" + tuner::json_quoted(http_->endpoint());
  }
  if (tracer_.enabled()) {
    // This daemon's trace-clock reading at hello time. A traced client
    // brackets the hello round trip on its own clock and estimates the
    // offset as clock - (t0+t1)/2, which the merge tool uses to shift this
    // shard's timestamps onto the client timeline. Observability only:
    // nothing downstream of a result ever reads it.
    out += ",\"trace_clock_us\":" + tuner::json_double(tracer_.now_us());
  }
  out += '}';
  send_to(conn, out);
  return true;
}

bool Server::handle_eval(const std::shared_ptr<Connection>& conn,
                         const json::Value& v, std::string* rpc_exemplar) {
  const std::int64_t id = frame_id(v);
  if (conn->ns == nullptr) {
    send_error(conn, id, "bad_request", "eval before hello");
    return true;
  }
  const std::string key =
      v.find("key") != nullptr ? v.find("key")->str_or("") : "";
  const auto stream = static_cast<std::uint64_t>(
      v.find("stream") != nullptr ? v.find("stream")->int_or(0) : 0);
  const std::size_t atoms = conn->ns->evaluator->space().size();
  const std::vector<std::uint16_t>& levels =
      conn->ns->evaluator->space().levels();
  const bool two_level = levels.size() == 2 && levels[0] == 4 && levels[1] == 8;
  std::vector<std::uint16_t> kinds;
  if (two_level) {
    if (key.size() != atoms ||
        key.find_first_not_of("48") != std::string::npos) {
      send_error(conn, id, "bad_request",
                 "config key must be " + std::to_string(atoms) +
                     " chars of '4'/'8'");
      return true;
    }
    kinds.reserve(key.size());
    for (const char c : key) kinds.push_back(c == '4' ? 4 : 8);
  } else {
    kinds = prec::parse_kind_key(key);
    bool ok = kinds.size() == atoms;
    for (const std::uint16_t k : kinds) {
      ok = ok && std::find(levels.begin(), levels.end(), k) != levels.end();
    }
    if (!ok) {
      send_error(conn, id, "bad_request",
                 "config key must be " + std::to_string(atoms) +
                     " format tokens from the namespace lattice (" +
                     prec::format_list_name(levels) + ")");
      return true;
    }
  }
  {
    std::lock_guard slock(stats_mu_);
    ++stats_.requests;
    bump_counter("serve/requests", stats_.requests);
  }
  m_.requests->inc();

  // Request-scoped tracing: finish the client's flow arrow and open the
  // serve/request span. An absent or garbled wire context still traces —
  // the span is simply unparented, keyed off the content key instead. The
  // context parses regardless of this daemon's tracer: a traced client's
  // ids still label latency exemplars and ride replication to peers even
  // when the daemon itself runs without --trace-out.
  const bool traced = tracer_.enabled();
  const trace::TraceContext ctx = trace_from_frame(v);
  if (rpc_exemplar != nullptr && ctx.valid()) {
    *rpc_exemplar = ctx.trace_hex();
  }
  std::uint64_t rspan = 0;
  if (traced) {
    rspan = ctx.valid() ? ctx.server_span_id()
                        : trace::mix64(ResultStore::content_key(
                              conn->ns->digest, key, stream));
    const double now = tracer_.now_us();
    if (ctx.valid()) {
      tracer_.flow_end("serve/flow", trace::Track::serve(), now,
                       ctx.flow_id());
    }
    tracer_.async_begin(
        "serve/request", trace::Track::serve(), now, rspan,
        {{"trace", ctx.valid() ? ctx.trace_hex() : std::string("unparented")},
         {"stream", static_cast<std::int64_t>(stream)}});
  }
  const auto close_request = [&](const char* result) {
    if (!traced) return;
    tracer_.async_end("serve/request", trace::Track::serve(),
                      tracer_.now_us(), rspan, {{"result", result}});
  };

  // Fast path: the store already has it (this daemon's earlier work, or a
  // previous daemon's — the store file outlives the process).
  tuner::Evaluation eval;
  if (traced) {
    tracer_.async_begin("serve/store", trace::Track::serve(),
                        tracer_.now_us(), rspan);
  }
  const bool hit = store_->lookup(conn->ns->digest, key, stream, &eval);
  if (traced) {
    tracer_.async_end("serve/store", trace::Track::serve(), tracer_.now_us(),
                      rspan, {{"hit", hit}});
  }
  if (hit) {
    {
      std::lock_guard slock(stats_mu_);
      ++stats_.store_hits;
      bump_counter("serve/store-hits", stats_.store_hits);
    }
    m_.store_hits->inc();
    std::string out = "{\"type\":\"eval_ok\",\"id\":" + std::to_string(id);
    out += ",\"cached\":true";
    tuner::append_evaluation_fields(out, eval);
    out += '}';
    send_to(conn, out);
    close_request("store_hit");
    return true;
  }

  const std::string ukey = unit_key(conn->ns->digest, key, stream);
  {
    std::unique_lock lock(mu_);
    if (stopping_) {
      // Coalescing onto an already-admitted unit is still fine during the
      // drain — its response is owed anyway.
      const auto it = inflight_.find(ukey);
      if (it != inflight_.end()) {
        it->second->waiters.push_back(Unit::Waiter{conn, id, ctx, rspan});
        lock.unlock();
        m_.coalesced->inc();
        std::lock_guard slock(stats_mu_);
        ++stats_.coalesced;
        return true;
      }
      lock.unlock();
      send_error(conn, id, "shutting_down", "server is draining");
      close_request("shutting_down");
      return true;
    }
    if (const auto it = inflight_.find(ukey); it != inflight_.end()) {
      // Single-flight: somebody (possibly another client) is computing this
      // exact result — wait for theirs. The request span stays open until
      // the computing unit answers this waiter.
      it->second->waiters.push_back(Unit::Waiter{conn, id, ctx, rspan});
      lock.unlock();
      m_.coalesced->inc();
      {
        std::lock_guard slock(stats_mu_);
        ++stats_.coalesced;
        bump_counter("serve/coalesced", stats_.coalesced);
      }
      return true;
    }
    if (queue_.size() >= options_.queue_capacity) {
      lock.unlock();
      m_.busy->inc();
      {
        std::lock_guard slock(stats_mu_);
        ++stats_.busy_rejections;
        bump_counter("serve/busy", stats_.busy_rejections);
      }
      send_error(conn, id, "busy", "admission queue full",
                 options_.retry_after_seconds);
      close_request("busy");
      return true;
    }
    auto unit = std::make_unique<Unit>();
    unit->ukey = ukey;
    unit->ns_digest = conn->ns->digest;
    unit->key = key;
    unit->stream = stream;
    unit->config.kinds = kinds;
    unit->evaluator = conn->ns->evaluator.get();
    unit->waiters.push_back(Unit::Waiter{conn, id, ctx, rspan});
    unit->ctx = ctx;  // exemplars + replication forwarding, tracer or not
    if (traced) {
      unit->span = trace::mix64(rspan ^ 0xd15);
      tracer_.async_begin("serve/queue", trace::Track::serve(),
                          tracer_.now_us(), unit->span);
    }
    queue_.push_back(unit.get());
    m_.queue_depth->set(static_cast<double>(queue_.size()));
    inflight_.emplace(ukey, std::move(unit));
  }
  work_cv_.notify_one();
  return true;
}

bool Server::handle_put(const std::shared_ptr<Connection>& conn,
                        const json::Value& v) {
  const std::int64_t id = frame_id(v);
  std::uint64_t ns = 0;
  const json::Value* ns_v = v.find("ns");
  const json::Value* key_v = v.find("key");
  if (ns_v == nullptr || key_v == nullptr ||
      !parse_digest_hex(ns_v->str_or(""), &ns) || !key_v->is_string()) {
    send_error(conn, id, "bad_request", "put needs ns (16-hex) and key");
    return true;
  }
  const auto stream = static_cast<std::uint64_t>(
      v.find("stream") != nullptr ? v.find("stream")->int_or(0) : 0);
  auto eval = tuner::evaluation_from_json(v);
  if (!eval.is_ok()) {
    send_error(conn, id, "bad_request", "put: " + eval.status().message());
    return true;
  }
  // A replicated write carries the originating request's trace context, so
  // the replica's durability work appears under the same distributed trace
  // (stitched by the peer-indexed replication flow id).
  const bool traced = tracer_.enabled();
  const trace::TraceContext ctx = trace_from_frame(v);
  std::uint64_t pspan = 0;
  if (traced) {
    pspan = ctx.valid()
                ? trace::mix64(ctx.flow_id() ^ (self_index_ + 1))
                : trace::mix64(ResultStore::content_key(
                      ns, key_v->str_or(""), stream));
    const double now = tracer_.now_us();
    if (ctx.valid()) {
      tracer_.flow_end("serve/repl", trace::Track::serve(), now, pspan);
    }
    tracer_.async_begin(
        "serve/put", trace::Track::serve(), now, pspan,
        {{"trace",
          ctx.valid() ? ctx.trace_hex() : std::string("unparented")}});
  }
  // Durable before acked: insert() fsyncs before returning, so a put_ok
  // means the record survives this daemon's kill -9. No hello required —
  // the namespace travels inline; this replica may never have resolved the
  // target itself.
  const std::size_t appended =
      store_->insert(ns, key_v->str_or(""), stream, eval.value());
  if (traced) {
    tracer_.async_end("serve/put", trace::Track::serve(), tracer_.now_us(),
                      pspan, {{"appended", appended > 0}});
  }
  if (appended > 0) {
    m_.store_appends->inc();
    m_.store_bytes->inc(appended);
    m_.store_segments->set(static_cast<double>(store_->segment_count()));
  }
  m_.puts_in->inc();
  {
    std::lock_guard slock(stats_mu_);
    ++stats_.puts_in;
  }
  send_to(conn, "{\"type\":\"put_ok\",\"id\":" + std::to_string(id) + "}");
  return true;
}

// --- replication ----------------------------------------------------------

void Server::replicate_result(std::uint64_t ns, const std::string& key,
                              std::uint64_t stream,
                              const tuner::Evaluation& eval,
                              const trace::TraceContext& ctx) {
  if (ring_.size() < 2 || options_.replicate <= 1) return;
  const std::uint64_t ckey = ResultStore::content_key(ns, key, stream);
  const auto successors =
      ring_.successors(ckey, std::min(options_.replicate, ring_.size()));
  for (const std::size_t i : successors) {
    // Push to every owner replica except ourselves — even when this daemon
    // is not an owner (a failed-over client made us compute a foreign key),
    // the write still lands where future lookups will route.
    if (i == self_index_) continue;
    Peer* peer = peers_[i].get();
    std::lock_guard plock(peer->mu);
    const std::int64_t id = peer->next_id++;
    std::string out = "{\"type\":\"put\",\"id\":" + std::to_string(id);
    out += ",\"ns\":" + tuner::json_quoted(digest_hex(ns));
    out += ",\"key\":" + tuner::json_quoted(key);
    out += ",\"stream\":" + std::to_string(stream);
    tuner::append_evaluation_fields(out, eval);
    if (ctx.valid()) out += ",\"trace\":" + trace_to_json(ctx);
    out += '}';
    if (tracer_.enabled() && ctx.valid()) {
      // Peer-indexed flow id: the replica derives the same value from the
      // propagated context and its own ring slot, stitching this write to
      // its serve/put span in the merged timeline.
      tracer_.flow_start("serve/repl", trace::Track::serve(),
                         tracer_.now_us(),
                         trace::mix64(ctx.flow_id() ^ (i + 1)));
    }

    bool acked = false;
    // Two attempts: the first may fail on a connection the peer's restart
    // (or crash) went and invalidated; the second dials fresh.
    for (int attempt = 0; attempt < 2 && !acked; ++attempt) {
      if (peer->fd < 0) {
        auto fd =
            connect_endpoint(peer->endpoint, options_.peer_timeout_seconds);
        if (!fd.is_ok()) break;  // peer is down; the tally records the loss
        peer->fd = fd.value();
        peer->dec = FrameDecoder();
      }
      bool ok = send_frame(peer->fd, out).is_ok();
      std::string resp;
      while (ok) {
        const Status s = read_frame(peer->fd, peer->dec, &resp,
                                    options_.peer_timeout_seconds);
        if (!s.is_ok()) {
          ok = false;
          break;
        }
        auto parsed = json::parse(resp);
        if (!parsed.is_ok()) {
          ok = false;
          break;
        }
        const json::Value& pv = parsed.value();
        const std::string type =
            pv.find("type") != nullptr ? pv.find("type")->str_or("") : "";
        if (type == "put_ok" && frame_id(pv) == id) {
          acked = true;
          break;
        }
        if (type == "error") {
          ok = false;  // replica refused; a retry will not change its mind
          attempt = 2;
          break;
        }
        // Anything else is stale noise on this dedicated connection — keep
        // reading within the deadline.
      }
      if (!acked) {
        ::close(peer->fd);
        peer->fd = -1;
        peer->dec = FrameDecoder();
      }
    }
    if (acked) {
      m_.repl_sent->inc();
      std::lock_guard slock(stats_mu_);
      ++stats_.repl_sent;
    } else {
      m_.repl_failed->inc();
      std::lock_guard slock(stats_mu_);
      ++stats_.repl_failed;
    }
  }
}

// --- dispatch -------------------------------------------------------------

void Server::dispatch_loop() {
  while (true) {
    std::vector<Unit*> batch;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (killed_.load()) return;  // hard kill: drop queued work unanswered
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      batch.assign(queue_.begin(), queue_.end());
      queue_.clear();
      m_.queue_depth->set(0.0);
    }

    struct Result {
      bool ok = false;
      std::string error;
      tuner::Evaluation eval;
    };
    std::vector<Result> results(batch.size());
    const bool traced = tracer_.enabled();
    const auto eval_one = [&](std::size_t i, std::size_t worker) {
      // Injected aborts are per-unit results, not batch failures: the whole
      // batch always drains, and each abort is forwarded to exactly the
      // clients waiting on that unit.
      Unit* u = batch[i];
      if (traced) {
        const double now = tracer_.now_us();
        tracer_.async_end("serve/queue", trace::Track::serve(), now, u->span);
        tracer_.async_begin("serve/execute", trace::Track::serve(), now,
                            u->span,
                            {{"worker", static_cast<std::int64_t>(worker)}});
      }
      // The slowest eval buckets carry the request's trace id as an
      // exemplar; declared before the timer so it outlives its destructor.
      const std::string exemplar =
          u->ctx.valid() ? u->ctx.trace_hex() : std::string();
      {
        const trace::Span eval_timer(m_.eval_seconds, &exemplar);
        try {
          results[i].eval = u->evaluator->evaluate_remote(
              u->config, u->stream, static_cast<int>(worker));
          results[i].ok = true;
        } catch (const std::exception& e) {
          results[i].error = e.what();
        } catch (...) {
          results[i].error = "evaluator abort";
        }
      }
      if (traced) {
        tracer_.async_end("serve/execute", trace::Track::serve(),
                          tracer_.now_us(), u->span, {{"ok", results[i].ok}});
      }
    };
    if (pool_ != nullptr && pool_->size() > 1) {
      pool_->for_each(batch.size(), eval_one);
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) eval_one(i, 0);
    }

    for (std::size_t i = 0; i < batch.size(); ++i) {
      Unit* unit = batch[i];
      const Result& r = results[i];
      if (r.ok) {
        // Durable before visible: the store insert fsyncs, then the result
        // is pushed to its ring replicas, and only then are waiters
        // answered. A kill -9 after a client saw eval_ok cannot lose the
        // record — here or, with replication, on the surviving replicas.
        if (traced) {
          tracer_.async_begin("serve/store", trace::Track::serve(),
                              tracer_.now_us(), unit->span);
        }
        const std::size_t appended =
            store_->insert(unit->ns_digest, unit->key, unit->stream, r.eval);
        if (traced) {
          const double now = tracer_.now_us();
          tracer_.async_end("serve/store", trace::Track::serve(), now,
                            unit->span);
          tracer_.async_begin("serve/replicate", trace::Track::serve(), now,
                              unit->span);
        }
        replicate_result(unit->ns_digest, unit->key, unit->stream, r.eval,
                         unit->ctx);
        if (traced) {
          tracer_.async_end("serve/replicate", trace::Track::serve(),
                            tracer_.now_us(), unit->span);
        }
        m_.evals->inc();
        if (appended > 0) {
          m_.store_appends->inc();
          m_.store_bytes->inc(appended);
          m_.store_segments->set(static_cast<double>(store_->segment_count()));
        }
        std::lock_guard slock(stats_mu_);
        ++stats_.evals_executed;
        stats_.store_records = store_->records();
        bump_counter("serve/evals", stats_.evals_executed);
      } else {
        m_.aborts->inc();
        std::lock_guard slock(stats_mu_);
        ++stats_.aborts;
        bump_counter("serve/aborts", stats_.aborts);
      }

      std::unique_ptr<Unit> owned;
      {
        std::lock_guard lock(mu_);
        auto node = inflight_.extract(unit->ukey);
        if (!node.empty()) owned = std::move(node.mapped());
      }
      if (owned == nullptr) continue;
      const auto close_waiter = [&](const Unit::Waiter& w, const char* res) {
        if (!traced || w.span == 0) return;
        tracer_.async_end("serve/request", trace::Track::serve(),
                          tracer_.now_us(), w.span, {{"result", res}});
      };
      if (r.ok) {
        std::string fields;
        tuner::append_evaluation_fields(fields, r.eval);
        for (const Unit::Waiter& w : owned->waiters) {
          std::string out =
              "{\"type\":\"eval_ok\",\"id\":" + std::to_string(w.id);
          out += ",\"cached\":false";
          out += fields;
          out += '}';
          send_to(w.conn, out);
          close_waiter(w, "ok");
        }
      } else {
        for (const Unit::Waiter& w : owned->waiters) {
          send_error(w.conn, w.id, "abort", r.error);
          close_waiter(w, "abort");
        }
      }
    }
  }
}

// --- responses / stats ----------------------------------------------------

void Server::send_to(const std::shared_ptr<Connection>& conn,
                     const std::string& payload) {
  m_.frames_out->inc();
  std::lock_guard lock(conn->write_mu);
  // A vanished client is not a server problem: the result is in the store,
  // and the next campaign will fetch it from there.
  (void)send_frame(conn->fd, payload);
}

void Server::send_error(const std::shared_ptr<Connection>& conn,
                        std::int64_t id, const std::string& code,
                        const std::string& message, double retry_after) {
  std::string out = "{\"type\":\"error\"";
  if (id >= 0) out += ",\"id\":" + std::to_string(id);
  out += ",\"code\":" + tuner::json_quoted(code);
  out += ",\"message\":" + tuner::json_quoted(message);
  if (retry_after > 0.0) {
    out += ",\"retry_after\":" + tuner::json_double(retry_after);
  }
  out += '}';
  send_to(conn, out);
}

std::string Server::stats_payload() const {
  const ServerStats s = stats();
  std::string out = "{\"type\":\"stats_ok\"";
  out += ",\"connections\":" + std::to_string(s.connections);
  out += ",\"requests\":" + std::to_string(s.requests);
  out += ",\"evals_executed\":" + std::to_string(s.evals_executed);
  out += ",\"store_hits\":" + std::to_string(s.store_hits);
  out += ",\"coalesced\":" + std::to_string(s.coalesced);
  out += ",\"busy_rejections\":" + std::to_string(s.busy_rejections);
  out += ",\"bad_frames\":" + std::to_string(s.bad_frames);
  out += ",\"aborts\":" + std::to_string(s.aborts);
  out += ",\"puts_in\":" + std::to_string(s.puts_in);
  out += ",\"repl_sent\":" + std::to_string(s.repl_sent);
  out += ",\"repl_failed\":" + std::to_string(s.repl_failed);
  out += ",\"trace_write_errors\":" + std::to_string(s.trace_write_errors);
  // Live queue depth (a gauge, not part of ServerStats): lets one-shot
  // pollers (prose_top --fleet) see backlog without scraping /metrics.
  out += ",\"queue_depth\":" +
         std::to_string(m_.queue_depth != nullptr
                            ? static_cast<std::uint64_t>(
                                  m_.queue_depth->value())
                            : 0);
  out += ",\"namespaces\":" + std::to_string(s.namespaces);
  out += ",\"store_records\":" + std::to_string(s.store_records);
  out += ",\"store_segments\":" + std::to_string(s.store_segments);
  out += '}';
  return out;
}

ServerStats Server::stats() const {
  std::lock_guard lock(stats_mu_);
  ServerStats s = stats_;
  if (store_ != nullptr) {
    s.store_records = store_->records();
    s.store_segments = store_->segment_count();
  }
  if (m_.trace_write_errors != nullptr) {
    s.trace_write_errors = m_.trace_write_errors->value();
  }
  return s;
}

void Server::bump_counter(const char* name, std::uint64_t value) {
  if (!tracer_.enabled()) return;
  tracer_.counter(name, trace::Track::campaign(), tracer_.now_us(),
                  static_cast<double>(value));
}

}  // namespace prose::serve
