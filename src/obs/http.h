// Minimal embedded HTTP/1.0 server for the observability endpoints.
//
// Just enough HTTP for a scraper or load balancer: GET requests, one
// response, Connection: close. prose_served mounts /metrics (Prometheus text
// exposition) and /healthz (drain-aware: 200 while serving, 503 while
// draining) on it. Requests are handled serially on the accept thread — a
// scrape renders a snapshot in microseconds, and serializing them keeps the
// server a single well-understood loop.
//
// Endpoints use the wire-protocol syntax ("unix:/path", "tcp:host:port", or
// a bare filesystem path), implemented locally so the obs library stays
// below the serve layer in the dependency graph. "tcp:host:0" binds an
// ephemeral port; endpoint() reports the actual address for tests.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "support/status.h"

namespace prose::obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer {
 public:
  /// Called on the accept thread with the request path (query string
  /// stripped). Must not block for long — requests are serial.
  using Handler = std::function<HttpResponse(const std::string& path)>;

  /// Binds, listens, and starts the accept thread.
  static StatusOr<std::unique_ptr<HttpServer>> start(
      const std::string& endpoint, Handler handler);

  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound endpoint — equal to the requested one except for "tcp:…:0",
  /// where it carries the kernel-assigned port.
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }

  /// Stops accepting, joins the accept thread, unlinks a unix socket file.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  HttpServer(int fd, std::string endpoint, Handler handler);
  void accept_loop();
  void handle_connection(int fd);

  int listen_fd_ = -1;
  std::string endpoint_;
  Handler handler_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
};

/// Blocking HTTP GET against an HttpServer-style endpoint (the prose_top
/// scrape path and the serve tests — no curl dependency in tests).
/// Returns the response body; *status_code (optional) gets the HTTP status.
StatusOr<std::string> http_get(const std::string& endpoint,
                               const std::string& path,
                               int* status_code = nullptr);

}  // namespace prose::obs
