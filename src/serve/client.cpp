#include "serve/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "obs/http.h"
#include "serve/result_store.h"
#include "support/json.h"
#include "tuner/eval_codec.h"

namespace prose::serve {
namespace {

std::string eval_payload(std::uint64_t id, const std::string& key,
                         std::uint64_t stream,
                         const std::string& trace_json = std::string()) {
  std::string out = "{\"type\":\"eval\",\"id\":" + std::to_string(id);
  out += ",\"key\":" + tuner::json_quoted(key);
  out += ",\"stream\":" + std::to_string(stream);
  if (!trace_json.empty()) out += ",\"trace\":" + trace_json;
  out += '}';
  return out;
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer — full-avalanche, the same mix the ring and the
/// trace-id derivation use (trace.h holds the canonical copy).
using trace::mix64;

/// The per-transmission wire context for one client request span: hedges,
/// failovers, and busy resends each get a distinct parent span (attempt is
/// the 1-based send counter), so every server-side span stitches to the
/// exact send that caused it.
trace::TraceContext send_context(std::uint64_t tid_hi, std::uint64_t tid_lo,
                                 std::uint64_t client_span, int attempt) {
  trace::TraceContext ctx;
  ctx.trace_id_hi = tid_hi;
  ctx.trace_id_lo = tid_lo;
  ctx.parent_span = mix64(client_span ^ static_cast<std::uint64_t>(attempt));
  ctx.sampled = true;
  return ctx;
}

std::string frame_type(const json::Value& v) {
  const json::Value* t = v.find("type");
  return t != nullptr ? t->str_or("") : "";
}

std::string frame_code(const json::Value& v) {
  const json::Value* c = v.find("code");
  return c != nullptr ? c->str_or("") : "";
}

std::string frame_message(const json::Value& v) {
  const json::Value* m = v.find("message");
  return m != nullptr ? m->str_or("") : "";
}

}  // namespace

double ServeClient::busy_backoff_seconds(std::uint64_t noise_seed,
                                         std::uint64_t request_id, int attempt,
                                         double base, double cap) {
  if (attempt < 1) attempt = 1;
  double d = base * std::ldexp(1.0, attempt - 1);
  if (!(d < cap)) d = cap;  // also catches overflow to inf
  const std::uint64_t x =
      mix64(noise_seed ^ mix64(request_id ^ mix64(
                                   static_cast<std::uint64_t>(attempt))));
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;  // [0, 1)
  return d * (0.5 + u / 2.0);
}

std::string ServeClient::hello_payload() const {
  std::string hello = "{\"type\":\"hello\",\"id\":0,\"proto\":" +
                      std::to_string(kProtoVersion);
  hello += ",\"model\":" + tuner::json_quoted(options_.model);
  hello += ",\"noise_seed\":" + std::to_string(options_.noise_seed);
  hello += ",\"fault_spec\":" + tuner::json_quoted(options_.fault_spec);
  hello += ",\"fault_seed\":" + std::to_string(options_.fault_seed);
  hello += ",\"retry_max_attempts\":" +
           std::to_string(options_.retry_max_attempts);
  hello += ",\"retry_backoff_seconds\":" +
           tuner::json_double(options_.retry_backoff_seconds);
  if (options_.target_digest != 0) {
    hello += ",\"target_digest\":" +
             tuner::json_quoted(digest_hex(options_.target_digest));
  }
  if (options_.machine.has_value()) {
    hello += ",\"machine\":" + machine_to_json(*options_.machine);
  }
  if (!options_.formats.empty()) {
    hello += ",\"formats\":" + tuner::json_quoted(options_.formats);
  }
  hello += '}';
  return hello;
}

Status ServeClient::check_hello_reply(Shard& s, const std::string& payload) {
  auto parsed = json::parse(payload);
  if (!parsed.is_ok()) return parsed.status();
  const json::Value& v = parsed.value();
  if (frame_type(v) != "hello_ok") {
    const std::string code = frame_code(v);
    const std::string msg =
        frame_message(v).empty() ? payload : frame_message(v);
    // Config disagreements are fatal — a fleet where one shard resolves a
    // different model must not half-work its way through a campaign.
    return Status(StatusCode::kInvalidArgument,
                  "server rejected hello (" +
                      (code.empty() ? frame_type(v) : code) + "): " + msg);
  }
  if (const json::Value* ns = v.find("namespace"); ns != nullptr) {
    const std::string hex = ns->str_or("");
    if (!ns_hex_.empty() && hex != ns_hex_) {
      return Status(StatusCode::kInvalidArgument,
                    "shard namespace " + hex + " != fleet namespace " +
                        ns_hex_ + " — the fleet disagrees about the target");
    }
    ns_hex_ = hex;
    (void)parse_digest_hex(ns_hex_, &ns_digest_);
  }
  if (const json::Value* http = v.find("http"); http != nullptr) {
    s.http = http->str_or("");
  }
  // A traced daemon reports its trace clock; the caller brackets the hello
  // on our clock and the pair becomes the shard's offset estimate.
  if (const json::Value* c = v.find("trace_clock_us"); c != nullptr) {
    s.clock.server_us = c->num_or(-1.0);
    s.clock.emitted = false;
  }
  return Status::ok();
}

void ServeClient::emit_clock_samples() {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  // The tracer's clock is steady-clock time minus its construction epoch;
  // recover the epoch so hello midpoints recorded before set_tracer() still
  // land on the trace timeline.
  const double epoch_raw_us = monotonic_seconds() * 1e6 - tracer_->now_us();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ClockSample& c = shards_[i].clock;
    if (c.server_us < 0.0 || c.emitted) continue;
    const double offset_us = c.server_us - (c.mid_raw_us - epoch_raw_us);
    tracer_->instant("serve/clock", trace::Track::serve(), tracer_->now_us(),
                     {{"endpoint", shards_[i].endpoint},
                      {"shard", static_cast<std::int64_t>(i)},
                      {"offset_us", offset_us},
                      {"rtt_us", c.rtt_us}});
    c.emitted = true;
  }
}

Status ServeClient::connect_shard(Shard* s) {
  if (s->fd >= 0) {
    ::close(s->fd);
    s->fd = -1;
  }
  s->dec = FrameDecoder();
  s->alive = false;
  auto fd = connect_endpoint(s->endpoint, options_.connect_timeout_seconds);
  if (!fd.is_ok()) return fd.status();
  s->fd = fd.value();
  const double t0 = monotonic_seconds();
  if (Status st = send_frame(s->fd, hello_payload()); !st.is_ok()) {
    ::close(s->fd);
    s->fd = -1;
    return st;
  }
  std::string payload;
  if (Status st = read_frame(s->fd, s->dec, &payload,
                             options_.hello_timeout_seconds);
      !st.is_ok()) {
    ::close(s->fd);
    s->fd = -1;
    return st;
  }
  const double t1 = monotonic_seconds();
  if (Status st = check_hello_reply(*s, payload); !st.is_ok()) {
    ::close(s->fd);
    s->fd = -1;
    return st;
  }
  s->clock.mid_raw_us = (t0 + t1) * 0.5 * 1e6;
  s->clock.rtt_us = (t1 - t0) * 1e6;
  s->alive = true;
  s->ever_alive = true;
  s->last_heard = monotonic_seconds();
  return Status::ok();
}

StatusOr<std::unique_ptr<ServeClient>> ServeClient::connect(
    const Options& options) {
  if (options.endpoints.empty()) {
    return Status(StatusCode::kInvalidArgument, "no endpoints");
  }
  std::unique_ptr<ServeClient> client(new ServeClient());
  client->options_ = options;
  // The ring is built from the endpoint strings verbatim — the same list
  // every daemon was given as --peers.
  client->ring_ = HashRing(options.endpoints);
  client->shards_.resize(options.endpoints.size());
  Status last_unreachable = Status::ok();
  std::size_t alive = 0;
  for (std::size_t i = 0; i < options.endpoints.size(); ++i) {
    Shard& s = client->shards_[i];
    s.endpoint = options.endpoints[i];
    const Status st = client->connect_shard(&s);
    if (st.is_ok()) {
      ++alive;
    } else if (st.code() == StatusCode::kInvalidArgument) {
      return st;  // misconfiguration, not availability
    } else {
      last_unreachable = st;  // shard starts dead; reprobe may heal it
    }
  }
  if (alive == 0) {
    return Status(last_unreachable.code(),
                  "no fleet shard reachable (last: " +
                      last_unreachable.message() + ")");
  }
  return client;
}

ServeClient::~ServeClient() {
  for (Shard& s : shards_) {
    if (s.fd >= 0) ::close(s.fd);
  }
}

std::size_t ServeClient::alive_shards() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    if (s.alive) ++n;
  }
  return n;
}

void ServeClient::mark_dead(std::size_t shard_index) {
  Shard& s = shards_[shard_index];
  if (s.alive) {
    s.alive = false;
    shards_lost_.fetch_add(1, std::memory_order_relaxed);
  }
  if (s.fd >= 0) {
    ::close(s.fd);
    s.fd = -1;
  }
  s.dec = FrameDecoder();
}

// --- batch ----------------------------------------------------------------

std::vector<tuner::EvalBackend::RemoteItem> ServeClient::evaluate_many(
    std::span<const tuner::Config> configs,
    std::span<const std::uint64_t> streams) {
  std::vector<RemoteItem> items(configs.size());
  // Every item that leaves here unresolved (!ok, not a forwarded abort) is
  // computed locally by the evaluator — tally those fallbacks on every exit
  // path, so CampaignSummary can report served-mode degradation.
  struct FallbackTally {
    const std::vector<RemoteItem>& items;
    std::atomic<std::uint64_t>& sink;
    ~FallbackTally() {
      std::uint64_t n = 0;
      for (const RemoteItem& item : items) {
        if (!item.ok && !item.aborted) ++n;
      }
      if (n > 0) sink.fetch_add(n, std::memory_order_relaxed);
    }
  } tally{items, fallback_items_};
  if (configs.size() != streams.size()) return items;
  std::lock_guard lock(mu_);

  // Self-healing: give dead shards a chance to rejoin before routing. The
  // /healthz probe (when we ever learned the shard's HTTP endpoint) filters
  // out still-dead daemons cheaply; the hello re-pins the namespace.
  if (options_.reprobe_dead) {
    for (Shard& s : shards_) {
      if (s.alive) continue;
      if (!s.http.empty()) {
        int code = 0;
        auto body = obs::http_get(s.http, "/healthz", &code);
        if (!body.is_ok() || code != 200) continue;
      }
      (void)connect_shard(&s);  // failure: stays dead until the next batch
    }
  }
  emit_clock_samples();

  const bool traced = tracer_ != nullptr && tracer_->enabled();
  const std::uint64_t tid_hi = mix64(ns_digest_ ^ 0x7ace1dULL);

  /// Per-item request state. `route` is the key's full ring successor list;
  /// `primary` walks down it on failover; `hedge` is the one outstanding
  /// duplicate (npos = none).
  struct Pend {
    std::uint64_t id = 0;
    std::vector<std::size_t> route;
    std::size_t primary = HashRing::npos;
    std::size_t hedge = HashRing::npos;
    double sent_at = 0.0;
    double resend_at = 0.0;  // >0: busy backoff timer armed
    int busy_attempts = 0;
    bool done = false;
    std::uint64_t tid_lo = 0;  // trace id low half (content key mix)
    std::uint64_t span = 0;    // client/request span id (0 = untraced)
    int sends = 0;             // transmissions so far (context attempts)
  };
  std::vector<Pend> pend(items.size());
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::size_t unresolved = items.size();
  std::vector<std::size_t> downs;  // shards needing item repair

  const auto close_span = [&](std::size_t i, const char* result) {
    if (!traced || pend[i].span == 0) return;
    tracer_->async_end("client/request", trace::Track::serve(),
                       tracer_->now_us(), pend[i].span,
                       {{"result", result}});
  };
  const auto resolve_fail = [&](std::size_t i, const std::string& why) {
    items[i].ok = false;
    items[i].aborted = false;
    items[i].error = why;
    close_span(i, "fail");
    pend[i].done = true;
    --unresolved;
  };
  const auto pick = [&](const Pend& p, std::size_t ex1,
                        std::size_t ex2) -> std::size_t {
    for (const std::size_t s : p.route) {
      if (s != ex1 && s != ex2 && shards_[s].alive) return s;
    }
    return HashRing::npos;
  };
  const auto mark_down = [&](std::size_t sidx) {
    if (!shards_[sidx].alive) return;
    mark_dead(sidx);
    downs.push_back(sidx);
  };
  const auto send_eval = [&](std::size_t i, std::size_t sidx) -> bool {
    Shard& s = shards_[sidx];
    std::string trace_json;
    if (traced) {
      Pend& p = pend[i];
      const trace::TraceContext ctx =
          send_context(tid_hi, p.tid_lo, p.span, ++p.sends);
      tracer_->flow_start("serve/flow", trace::Track::serve(),
                          tracer_->now_us(), ctx.flow_id());
      trace_json = trace_to_json(ctx);
    }
    const Status st =
        send_frame(s.fd, eval_payload(pend[i].id, configs[i].key(),
                                      streams[i], trace_json));
    if (!st.is_ok()) {
      mark_down(sidx);
      return false;
    }
    s.last_sent = monotonic_seconds();
    return true;
  };
  /// Moves item i off its current primary: promote the hedge if one is
  /// racing, else re-send to the next alive replica in ring order. The same
  /// remap a surviving daemon computes, so the request lands on a shard
  /// that replicated (or will own) the key.
  const auto reroute_primary = [&](std::size_t i) {
    Pend& p = pend[i];
    p.resend_at = 0.0;
    if (p.hedge != HashRing::npos && shards_[p.hedge].alive) {
      p.primary = p.hedge;
      p.hedge = HashRing::npos;
      failovers_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::size_t next = pick(p, p.primary, p.hedge);
    if (next == HashRing::npos) {
      resolve_fail(i, "no live shard for this key");
      return;
    }
    p.primary = next;
    p.sent_at = monotonic_seconds();
    failovers_.fetch_add(1, std::memory_order_relaxed);
    (void)send_eval(i, next);  // a fresh death lands in `downs`; repair loops
  };
  /// Drains `downs`: every unresolved item touching a dead shard is hedged
  /// down or rerouted. Cascades (the reroute target dying on send) terminate
  /// because each pass removes at least one shard from `alive`.
  const auto repair = [&]() {
    while (!downs.empty()) {
      const std::size_t sidx = downs.back();
      downs.pop_back();
      for (std::size_t i = 0; i < pend.size(); ++i) {
        Pend& p = pend[i];
        if (p.done) continue;
        if (p.hedge == sidx) p.hedge = HashRing::npos;
        if (p.primary == sidx) reroute_primary(i);
      }
    }
  };

  // Route and pipeline the whole batch. Request ids advance in proposal
  // order no matter which shards are up — the deterministic backoff (and
  // any replay) keys off them.
  for (std::size_t i = 0; i < items.size(); ++i) {
    Pend& p = pend[i];
    p.id = next_id_++;
    by_id.emplace(p.id, i);
    const std::uint64_t ckey =
        ResultStore::content_key(ns_digest_, configs[i].key(), streams[i]);
    p.route = ring_.successors(ckey, ring_.size());
    if (traced) {
      p.tid_lo = mix64(ckey);
      p.span = mix64(p.tid_lo ^ p.id);
    }
    const std::size_t first = pick(p, HashRing::npos, HashRing::npos);
    if (first == HashRing::npos) {
      resolve_fail(i, "no live shard for this key");
      continue;
    }
    if (traced) {
      tracer_->async_begin(
          "client/request", trace::Track::serve(), tracer_->now_us(), p.span,
          {{"trace", send_context(tid_hi, p.tid_lo, p.span, 0).trace_hex()},
           {"stream", static_cast<std::int64_t>(streams[i])},
           {"endpoint", shards_[first].endpoint}});
    }
    p.primary = first;
    p.sent_at = monotonic_seconds();
    (void)send_eval(i, first);
  }
  repair();

  const bool hedging = options_.hedge_after_seconds > 0.0;
  std::string payload;

  const auto handle_frame = [&](std::size_t sidx, const json::Value& v) {
    const json::Value* idv = v.find("id");
    const auto it =
        idv != nullptr
            ? by_id.find(static_cast<std::uint64_t>(idv->int_or(0)))
            : by_id.end();
    if (it == by_id.end()) return;  // not this batch's (stale stats, ...)
    const std::size_t i = it->second;
    Pend& p = pend[i];
    if (p.done) return;  // the losing side of a hedge race — drop it
    const std::string type = frame_type(v);
    if (type == "eval_ok") {
      auto eval = tuner::evaluation_from_json(v);
      if (eval.is_ok()) {
        items[i].ok = true;
        items[i].eval = std::move(eval.value());
        if (sidx == p.hedge) {
          hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        }
        close_span(i, sidx == p.hedge ? "hedge_win" : "ok");
      } else {
        items[i].error = "bad eval_ok: " + eval.status().message();
        close_span(i, "bad_reply");
      }
      p.done = true;
      --unresolved;
      return;
    }
    if (type == "error") {
      const std::string code = frame_code(v);
      if (code == "busy") {
        if (sidx == p.hedge) {
          // The hedge got bounced; the primary is still racing. Clear the
          // slot so a later tick may hedge elsewhere.
          p.hedge = HashRing::npos;
          return;
        }
        if (++p.busy_attempts > options_.max_busy_retries) {
          resolve_fail(i, "server busy (retries exhausted)");
          return;
        }
        busy_retries_.fetch_add(1, std::memory_order_relaxed);
        double after = busy_backoff_seconds(
            options_.noise_seed, p.id, p.busy_attempts,
            options_.busy_backoff_base_seconds,
            options_.busy_backoff_cap_seconds);
        if (p.busy_attempts == 1) {
          if (const json::Value* ra = v.find("retry_after"); ra != nullptr) {
            after = std::max(after, ra->num_or(0.0));
          }
        }
        backoff_us_.fetch_add(static_cast<std::uint64_t>(after * 1e6),
                              std::memory_order_relaxed);
        p.resend_at = monotonic_seconds() + after;
        return;
      }
      if (code == "shutting_down") {
        // The shard is draining: it answers what it admitted but takes no
        // more. Pull it out of the routing rotation (without closing the
        // socket — other items' admitted answers still arrive on it) and
        // move this item along.
        Shard& s = shards_[sidx];
        if (s.alive) {
          s.alive = false;
          shards_lost_.fetch_add(1, std::memory_order_relaxed);
        }
        if (sidx == p.hedge) {
          p.hedge = HashRing::npos;
          return;
        }
        reroute_primary(i);
        return;
      }
      if (code == "abort") {
        items[i].aborted = true;
        items[i].error = frame_message(v);
        close_span(i, "abort");
      } else {
        items[i].error = code + ": " + frame_message(v);
        close_span(i, "error");
      }
      p.done = true;
      --unresolved;
      return;
    }
    items[i].error = "unexpected frame type '" + type + "'";
    close_span(i, "error");
    p.done = true;
    --unresolved;
  };

  while (unresolved > 0) {
    repair();
    if (unresolved == 0) break;

    // Timers: busy resends due now, hedges crossing the latency threshold.
    double now = monotonic_seconds();
    double wake = now + 0.2;  // idle tick bounds io-timeout detection lag
    for (std::size_t i = 0; i < pend.size(); ++i) {
      Pend& p = pend[i];
      if (p.done) continue;
      if (p.resend_at > 0.0) {
        if (now >= p.resend_at) {
          p.resend_at = 0.0;
          p.sent_at = now;
          (void)send_eval(i, p.primary);
        } else {
          wake = std::min(wake, p.resend_at);
        }
      } else if (hedging && p.hedge == HashRing::npos) {
        if (now - p.sent_at >= options_.hedge_after_seconds) {
          const std::size_t h = pick(p, p.primary, HashRing::npos);
          if (h != HashRing::npos) {
            hedges_.fetch_add(1, std::memory_order_relaxed);
            p.hedge = h;
            if (traced && p.span != 0) {
              tracer_->instant("client/hedge", trace::Track::serve(),
                               tracer_->now_us(),
                               {{"endpoint", shards_[h].endpoint}});
            }
            if (!send_eval(i, h)) p.hedge = HashRing::npos;
          }
        } else {
          wake = std::min(wake, p.sent_at + options_.hedge_after_seconds);
        }
      }
    }
    repair();
    if (unresolved == 0) break;

    // Poll every socket that still owes us an answer — including draining
    // shards (alive=false, fd open) whose admitted work is still due.
    std::vector<pollfd> pfds;
    std::vector<std::size_t> pidx;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].fd < 0) continue;
      bool interested = false;
      for (const Pend& p : pend) {
        if (!p.done && (p.primary == s || p.hedge == s)) {
          interested = true;
          break;
        }
      }
      if (!interested) continue;
      pfds.push_back(pollfd{shards_[s].fd, POLLIN, 0});
      pidx.push_back(s);
    }
    if (pfds.empty()) {
      // Nothing in flight can answer the remaining items.
      for (std::size_t i = 0; i < pend.size(); ++i) {
        if (!pend[i].done && pend[i].resend_at <= 0.0) {
          resolve_fail(i, "no live shard for this key");
        }
      }
      if (unresolved == 0) break;
      // Only backoff timers remain: sleep them out.
      now = monotonic_seconds();
      if (wake > now) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(wake - now));
      }
      continue;
    }
    now = monotonic_seconds();
    const int timeout_ms =
        std::max(1, static_cast<int>((wake - now) * 1000.0) + 1);
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    const double after = monotonic_seconds();
    if (rc > 0) {
      for (std::size_t k = 0; k < pfds.size(); ++k) {
        if ((pfds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        const std::size_t sidx = pidx[k];
        Shard& s = shards_[sidx];
        char buf[8192];
        const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
        if (n <= 0) {
          if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          // Reset or EOF: everything outstanding here fails over. A
          // draining shard's socket also ends up here once its daemon
          // finishes — by then it answered all it admitted.
          mark_down(sidx);
          if (s.fd >= 0) {
            ::close(s.fd);
            s.fd = -1;
          }
          continue;
        }
        s.last_heard = after;
        s.dec.feed(buf, static_cast<std::size_t>(n));
        while (true) {
          auto got = s.dec.next(&payload);
          if (!got.is_ok()) {
            mark_down(sidx);  // framing lost — the connection is garbage
            break;
          }
          if (!got.value()) break;
          auto parsed = json::parse(payload);
          if (!parsed.is_ok()) {
            mark_down(sidx);
            break;
          }
          handle_frame(sidx, parsed.value());
        }
      }
    }

    // Wedged-shard detection: a socket with work outstanding that has been
    // silent past the deadline (counted from our last send to it) is as
    // dead as a reset one — SIGSTOP must not hang the campaign.
    if (options_.io_timeout_seconds > 0.0) {
      for (const std::size_t sidx : pidx) {
        Shard& s = shards_[sidx];
        if (s.fd < 0) continue;
        const double idle =
            after - std::max(s.last_heard, s.last_sent);
        if (idle > options_.io_timeout_seconds) {
          mark_down(sidx);
          if (s.fd >= 0) {
            ::close(s.fd);
            s.fd = -1;
          }
        }
      }
    }
  }
  return items;
}

// --- stats ----------------------------------------------------------------

StatusOr<std::string> ServeClient::shard_stats(Shard& s) {
  if (Status st = send_frame(s.fd, "{\"type\":\"stats\"}"); !st.is_ok()) {
    return st;
  }
  std::string payload;
  while (true) {
    if (Status st = read_frame(s.fd, s.dec, &payload,
                               options_.connect_timeout_seconds);
        !st.is_ok()) {
      return st;
    }
    auto parsed = json::parse(payload);
    if (!parsed.is_ok()) return parsed.status();
    if (frame_type(parsed.value()) == "stats_ok") return payload;
    // Anything else on the wire here is unexpected but harmless — skip it.
  }
}

StatusOr<std::string> ServeClient::stats_json() {
  std::lock_guard lock(mu_);
  for (Shard& s : shards_) {
    if (s.alive && s.fd >= 0) return shard_stats(s);
  }
  return Status(StatusCode::kRuntimeFault, "connection dead");
}

std::string ServeClient::fleet_stats_json() {
  std::lock_guard lock(mu_);
  std::string out = "[";
  for (Shard& s : shards_) {
    if (out.size() > 1) out += ',';
    out += "{\"endpoint\":" + tuner::json_quoted(s.endpoint);
    out += ",\"alive\":";
    out += s.alive ? "true" : "false";
    if (s.alive && s.fd >= 0) {
      if (auto stats = shard_stats(s); stats.is_ok()) {
        out += ",\"stats\":" + stats.value();
      }
    }
    out += '}';
  }
  out += ']';
  return out;
}

StatusOr<std::string> query_stats(const std::string& endpoint,
                                  double timeout_seconds) {
  auto fd = connect_endpoint(endpoint, timeout_seconds);
  if (!fd.is_ok()) return fd.status();
  Status sent = send_frame(fd.value(), "{\"type\":\"stats\"}");
  if (!sent.is_ok()) {
    ::close(fd.value());
    return sent;
  }
  FrameDecoder dec;
  std::string payload;
  const Status got = read_frame(fd.value(), dec, &payload, timeout_seconds);
  ::close(fd.value());
  if (!got.is_ok()) return got;
  return payload;
}

}  // namespace prose::serve
