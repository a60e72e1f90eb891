// AdminServer (DESIGN.md §5h): a tiny HTTP/1.1 endpoint on the loopback
// interface exposing a live process's telemetry:
//
//   /metrics  Prometheus text exposition of the whole metrics registry
//             (obs/prometheus.h), plus the service's rolling-window
//             latency quantiles (bloc_serve_window_p50_us / _p99_us)
//             when a LocalizationService is attached.
//   /healthz  SLO verdict from serve/health.h over HealthStats() — 200
//             when healthy (or warming up), 503 when degraded. Body is the
//             HealthReport JSON either way.
//   /report   The existing obs::RunReport JSON (same as --metrics-json).
//
// The socket plumbing mirrors net::TcpServer (loopback bind, ephemeral
// port 0 by default, one accept thread, thread-per-connection); the
// protocol here is request/response HTTP instead of the length-prefixed
// frame stream, so the server is separate rather than a MessageSink.
// Connections are Connection: close — scrape clients (curl, Prometheus,
// the soak bench's in-run scraper) reconnect per scrape.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/health.h"
#include "serve/service.h"

namespace bloc::serve {

struct AdminOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it via port()).
  std::uint16_t port = 0;
  /// SLO budgets behind /healthz.
  HealthPolicy health;
};

class AdminServer {
 public:
  /// Starts listening immediately. `service` may be null: /metrics and
  /// /report still work (whole-registry views), /healthz reports healthy
  /// with "service_attached": false. Attach() binds a service later.
  explicit AdminServer(LocalizationService* service = nullptr,
                       AdminOptions options = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Swap the service behind /healthz and the window /metrics series
  /// (nullptr detaches). Safe while scrapers are connected; the soak bench
  /// re-attaches per sweep point.
  void Attach(LocalizationService* service);

  std::uint16_t port() const { return port_; }
  void Stop();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Routes one request path to (status line, content type, body).
  std::string Respond(const std::string& path);

  AdminOptions options_;
  std::mutex service_mutex_;
  LocalizationService* service_ = nullptr;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::mutex mutex_;
  std::vector<std::thread> connection_threads_;
  std::vector<int> connection_fds_;
};

}  // namespace bloc::serve
