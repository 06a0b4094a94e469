#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/span.hpp"

namespace dp::serve {

using Clock = std::chrono::steady_clock;
using obs::JsonValue;

/// One client connection. The write mutex serializes response frames
/// from concurrent workers; `open` flips once on close so a worker whose
/// client vanished mid-request drops the response instead of erroring.
struct Server::Connection {
  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> open{true};
};

/// One admitted request waiting for (or holding) a worker.
struct Server::Job {
  JsonValue request;
  std::shared_ptr<Connection> conn;
  long long id = 0;
  bool has_deadline = false;
  Clock::time_point deadline{};
};

Server::Server(const ServerOptions& options, Service* service,
               obs::MetricsRegistry* metrics)
    : options_(options), service_(service), metrics_(metrics) {}

Server::~Server() {
  initiate_drain();
  wait();
}

bool Server::start(std::string* error) {
  if (started_.load()) {
    if (error) *error = "server already started";
    return false;
  }
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      if (error) {
        *error = "unix socket path too long (limit " +
                 std::to_string(sizeof(addr.sun_path) - 1) + " bytes): " +
                 options_.unix_path;
      }
      return false;
    }
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    ::unlink(options_.unix_path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      if (error) {
        *error = "bind " + options_.unix_path + ": " + std::strerror(errno);
      }
      if (listen_fd_ >= 0) ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
  } else if (options_.tcp_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      if (error) {
        *error = "bind 127.0.0.1:" + std::to_string(options_.tcp_port) +
                 ": " + std::strerror(errno);
      }
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    if (error) *error = "no listen address (set unix_path or tcp_port)";
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    if (error) *error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::pipe(wake_pipe_) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  started_.store(true);
  if (options_.workers == 0) options_.workers = 1;
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void Server::initiate_drain() {
  if (!started_.load()) return;
  if (draining_.exchange(true)) return;  // idempotent
  // Wake the accept poll; readers observe draining_ on their next frame.
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  queue_cv_.notify_all();
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 || draining_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn]() mutable { connection_loop(std::move(conn)); });
    if (metrics_) metrics_->counter("serve.connections").add();
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  std::string payload;
  for (;;) {
    std::string err;
    const ReadStatus st =
        read_frame(conn->fd, &payload, options_.max_frame_bytes, &err);
    if (st != ReadStatus::Ok) {
      // Clean EOF or a framing violation: either way the stream is
      // unusable, so the connection ends here.
      break;
    }
    JsonValue request;
    long long id = 0;
    try {
      request = JsonValue::parse(payload);
      if (request.is_object()) {
        if (const JsonValue* idv = request.find("id");
            idv && idv->is_number()) {
          id = idv->as_int();
        }
      }
    } catch (const obs::JsonError& e) {
      send_response(*conn, make_error_response(
                               0, ErrorCode::BadRequest,
                               std::string("request is not JSON: ") +
                                   e.what()));
      continue;  // frame boundaries are intact; the stream survives
    }

    // "shutdown" acts at the server layer: drain, then acknowledge --
    // this order means a client that has the ack can rely on
    // draining() being observable (the response write path is
    // unaffected by the drain flag).
    if (request.is_object()) {
      if (const JsonValue* t = request.find("type");
          t && t->is_string() && t->as_string() == "shutdown") {
        initiate_drain();
        send_response(*conn, make_ok_response(id, "shutdown"));
        continue;
      }
    }

    if (draining_.load()) {
      if (metrics_) metrics_->counter("serve.rejected.shutting_down").add();
      send_response(*conn,
                    make_error_response(id, ErrorCode::ShuttingDown,
                                        "server is draining"));
      continue;
    }

    Job job;
    job.conn = conn;
    job.id = id;
    std::uint64_t deadline_ms = options_.default_deadline_ms;
    if (request.is_object()) {
      if (const JsonValue* d = request.find("deadline_ms")) {
        if (!d->is_number() || d->as_int() < 0) {
          send_response(*conn, make_error_response(
                                   id, ErrorCode::BadRequest,
                                   "'deadline_ms' must be a non-negative "
                                   "integer"));
          continue;
        }
        deadline_ms = static_cast<std::uint64_t>(d->as_int());
      }
    }
    if (deadline_ms > 0) {
      job.has_deadline = true;
      job.deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
    }
    job.request = std::move(request);

    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      // Re-check under the lock: wait() decides "drained" under this
      // mutex, so checking draining_ here closes the race where a job
      // slips in after the final drained check and never runs.
      if (draining_.load()) {
        if (metrics_) metrics_->counter("serve.rejected.shutting_down").add();
        send_response(*conn,
                      make_error_response(id, ErrorCode::ShuttingDown,
                                          "server is draining"));
        continue;
      }
      if (queue_.size() >= options_.queue_depth) {
        if (metrics_) metrics_->counter("serve.rejected.queue_full").add();
        send_response(*conn,
                      make_error_response(id, ErrorCode::QueueFull,
                                          "admission queue is full"));
        continue;
      }
      queue_.push_back(std::move(job));
      if (metrics_) {
        metrics_->counter("serve.admitted").add();
        metrics_->gauge("serve.queue_high_water")
            .set_max(static_cast<double>(queue_.size()));
      }
    }
    queue_cv_.notify_one();
  }
  conn->open.store(false);
  ::close(conn->fd);
}

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stop_workers_;
      });
      if (queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }

    std::string response;
    if (job.has_deadline && Clock::now() > job.deadline) {
      if (metrics_) metrics_->counter("serve.rejected.deadline").add();
      response = make_error_response(job.id, ErrorCode::DeadlineExceeded,
                                     "deadline expired while queued")
                     .dump(0);
    } else {
      const auto t0 = Clock::now();
      response = service_->handle(job.request);
      if (metrics_) {
        metrics_->timer("serve.request").record(
            std::chrono::duration<double>(Clock::now() - t0).count());
      }
    }
    send_response(*job.conn, response);

    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
    }
  }
}

void Server::send_response(Connection& conn, const JsonValue& response) {
  send_response(conn, response.dump(0));
}

void Server::send_response(Connection& conn, const std::string& frame) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (!conn.open.load()) return;
  std::string err;
  if (!write_frame(conn.fd, frame, &err)) {
    // Client went away; the reader will notice on its next read.
    conn.open.store(false);
  }
}

void Server::wait() {
  if (!started_.load()) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  // Let the workers finish everything already admitted.
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    drained_cv_.wait(lock,
                     [this] { return queue_.empty() && in_flight_ == 0; });
    stop_workers_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Unblock the readers (their clients may still hold the sockets open).
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) {
      if (conn->open.load()) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    readers.swap(conn_threads_);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  }
  if (wake_pipe_[0] >= 0) {
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
  started_.store(false);
}

}  // namespace dp::serve
