#include "serve/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <system_error>

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/report.h"
#include "obs/snapshot.h"

namespace bloc::serve {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // scraper went away; nothing to salvage
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string HttpResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.1 " << status << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return os.str();
}

struct AdminMetrics {
  obs::Counter& requests = obs::GetCounter("serve.admin.requests");
  obs::Counter& not_found = obs::GetCounter("serve.admin.not_found");

  static const AdminMetrics& Get() {
    static const AdminMetrics metrics;
    return metrics;
  }
};

}  // namespace

AdminServer::AdminServer(LocalizationService* service, AdminOptions options)
    : options_(options), service_(service) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    ThrowErrno("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    ::close(listen_fd_);
    ThrowErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    ThrowErrno("listen");
  }
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Attach(LocalizationService* service) {
  std::lock_guard lock(service_mutex_);
  service_ = service;
}

void AdminServer::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(mutex_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  std::lock_guard lock(mutex_);
  for (int fd : connection_fds_) ::close(fd);
  connection_fds_.clear();
}

void AdminServer::AcceptLoop() {
  while (running_) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listening socket closed
    }
    std::lock_guard lock(mutex_);
    if (!running_) {
      ::close(fd);
      break;
    }
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

void AdminServer::HandleConnection(int fd) {
  // One request per connection (Connection: close). Read until the end of
  // the header block; scrapers send no body.
  std::string request;
  char buf[2048];
  bool complete = true;
  while (running_ && request.size() < 16 * 1024 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      complete = false;  // peer closed before finishing the request
      break;
    }
    request.append(buf, static_cast<std::size_t>(n));
  }

  if (running_ && complete) {
    // "GET /path HTTP/1.1" — anything else is a 400/405.
    std::string response;
    const std::size_t sp1 = request.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : request.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      response =
          HttpResponse("400 Bad Request", "text/plain", "bad request\n");
    } else if (request.substr(0, sp1) != "GET") {
      response = HttpResponse("405 Method Not Allowed", "text/plain",
                              "only GET\n");
    } else {
      response = Respond(request.substr(sp1 + 1, sp2 - sp1 - 1));
    }
    SendAll(fd, response);
  }

  // Connection: close — the response ends when the socket does. While the
  // fd is still listed, this thread owns the close; once Stop() has taken
  // the list, Stop() owns it (and this thread must not double-close).
  ::shutdown(fd, SHUT_RDWR);
  std::lock_guard lock(mutex_);
  const auto it =
      std::find(connection_fds_.begin(), connection_fds_.end(), fd);
  if (it != connection_fds_.end()) {
    connection_fds_.erase(it);
    ::close(fd);
  }
}

std::string AdminServer::Respond(const std::string& path) {
  const AdminMetrics& metrics = AdminMetrics::Get();
  metrics.requests.Inc();

  if (path == "/metrics") {
    std::ostringstream body;
    obs::WritePrometheus(body, obs::Snapshot::Capture());
    std::lock_guard lock(service_mutex_);
    if (service_ != nullptr) {
      // The service's rolling-window quantiles behind /healthz; the ring
      // depth and round counters are already registry series above.
      const ServiceHealthStats stats = service_->HealthStats();
      body << "# TYPE bloc_serve_window_p50_us gauge\n"
           << "bloc_serve_window_p50_us " << stats.window_p50_us << "\n"
           << "# TYPE bloc_serve_window_p99_us gauge\n"
           << "bloc_serve_window_p99_us " << stats.window_p99_us << "\n";
    }
    return HttpResponse("200 OK", "text/plain; version=0.0.4", body.str());
  }

  if (path == "/healthz") {
    std::ostringstream body;
    bool healthy = true;
    {
      std::lock_guard lock(service_mutex_);
      if (service_ == nullptr) {
        body << "{\n  \"healthy\": true,\n  \"service_attached\": false\n}\n";
      } else {
        const HealthReport report =
            EvaluateHealth(service_->HealthStats(), options_.health);
        healthy = report.healthy;
        report.WriteJson(body);
      }
    }
    return HttpResponse(healthy ? "200 OK" : "503 Service Unavailable",
                        "application/json", body.str());
  }

  if (path == "/report") {
    std::ostringstream body;
    obs::RunReport::Capture().WriteJson(body);
    return HttpResponse("200 OK", "application/json", body.str());
  }

  metrics.not_found.Inc();
  return HttpResponse("404 Not Found", "text/plain", "unknown endpoint\n");
}

}  // namespace bloc::serve
