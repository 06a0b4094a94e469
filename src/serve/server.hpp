// The dpserved network front end: listener, per-connection reader
// threads, a bounded admission queue, and a worker pool executing
// requests through a shared Service.
//
// Threading model
// ---------------
//   * One accept thread polls the listening socket (TCP on 127.0.0.1 or
//     a Unix-domain socket) plus an internal wakeup pipe.
//   * One reader thread per connection parses frames and ADMITS them:
//     try-push onto the bounded queue; a full queue answers queue_full
//     immediately from the reader (backpressure, never blocking the
//     socket), and a draining server answers shutting_down.
//   * N worker threads pop requests and execute Service::handle. A
//     request whose deadline expired while queued is answered
//     deadline_exceeded WITHOUT executing -- the deadline is checked at
//     dequeue, where staleness is actually decidable.
//   * Responses go back over the requester's connection under a
//     per-connection write mutex, so concurrent workers never interleave
//     frame bytes. Clients pipelining multiple requests on one
//     connection correlate out-of-order responses by "id".
//
// Drain semantics (SIGTERM): initiate_drain() stops accepting
// connections and admitting requests, lets the workers finish every
// request already admitted (queued or executing), answers anything that
// arrives meanwhile with shutting_down, then closes all connections.
// wait() returns once all threads are joined. Nothing in flight is
// dropped -- the acceptance test kills a loaded server and checks every
// admitted request got its response.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace dp::serve {

struct ServerOptions {
  /// Non-empty: listen on this Unix-domain socket path (unlinked first).
  std::string unix_path;
  /// >= 0: listen on 127.0.0.1:port (0 picks an ephemeral port; read the
  /// actual one from tcp_port() after start()).
  int tcp_port = -1;
  std::size_t workers = 1;
  /// Admission-queue capacity; the (workers+1)th .. (workers+depth)th
  /// concurrent requests wait here, anything beyond is rejected.
  std::size_t queue_depth = 64;
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Applied to requests that carry no "deadline_ms"; 0 = no deadline.
  std::uint64_t default_deadline_ms = 0;
};

class Server {
 public:
  Server(const ServerOptions& options, Service* service,
         obs::MetricsRegistry* metrics);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and spawns the accept + worker threads. False (error filled)
  /// when the socket cannot be bound.
  bool start(std::string* error);

  /// Port actually bound (TCP mode), -1 otherwise.
  int tcp_port() const { return bound_port_; }

  /// Begins the drain described above. Idempotent, safe from any thread
  /// (call it from a signal-watcher thread, not a signal handler).
  void initiate_drain();

  /// Blocks until the server is fully drained and every thread joined.
  /// Returns immediately if start() was never called.
  void wait();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

 private:
  struct Connection;
  struct Job;

  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  /// Frames and writes one response; the server's own replies come as
  /// objects, Service::handle's as finished text.
  void send_response(Connection& conn, const obs::JsonValue& response);
  void send_response(Connection& conn, const std::string& frame);

  ServerOptions options_;
  Service* service_;
  obs::MetricsRegistry* metrics_;

  int listen_fd_ = -1;
  int bound_port_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< written by initiate_drain()

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable drained_cv_;
  std::deque<Job> queue_;
  std::size_t in_flight_ = 0;      ///< guarded by queue_mutex_
  bool stop_workers_ = false;      ///< guarded by queue_mutex_

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> conn_threads_;  ///< joined in wait()
};

}  // namespace dp::serve
