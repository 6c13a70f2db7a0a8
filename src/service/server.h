// The lrtd transport: an AF_UNIX stream server delivering framed
// requests to a Service over a worker pool (DESIGN.md §5k).
//
// Threading model:
//  * one listener thread accepts connections;
//  * one reader thread per connection decodes frames and enqueues them.
//    Admission control happens here: when the global pending count is at
//    ServerOptions::max_pending, the reader sheds the request with a
//    typed kUnavailable reply instead of queueing unbounded work;
//  * a fixed pool of workers (support/thread_pool) drains a ready-queue
//    of connections. Each connection is FIFO: at most one of its
//    requests is in flight at a time and responses go back in request
//    order, which is what makes a connection's response bytes
//    independent of the worker count.
//
// Shutdown (the `shutdown` verb or Stop()) is graceful: the listener
// stops accepting, queued requests drain, workers exit, and the socket
// path is unlinked.
#ifndef LRT_SERVICE_SERVER_H_
#define LRT_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/service.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace lrt::service {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX socket; created on Start (an
  /// existing file at the path is replaced) and unlinked on shutdown.
  std::string socket_path;
  /// Worker parallelism (including the dispatcher); 0 picks
  /// std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// Global bound on queued-but-unstarted requests; past it, new frames
  /// are answered with kUnavailable by the reader (load shed, counted as
  /// service.shed).
  std::size_t max_pending = 128;
  ServiceOptions service;
  /// Test hook: when set, a worker calls it with each admitted request
  /// frame just before the service handles it (on the worker thread, no
  /// server lock held). The request stays pending meanwhile, so a gate
  /// that blocks holds its admission slot — how tests pin a request in
  /// flight deterministically instead of racing it.
  std::function<void(std::string_view frame)> admission_gate;
};

class Server {
 public:
  /// Binds the socket and starts the listener and worker threads.
  [[nodiscard]] static Result<std::unique_ptr<Server>> Start(
      ServerOptions options);

  /// Stops (if still running), joins every thread, closes every fd,
  /// unlinks the socket path, frees the service state and hands the
  /// allocator's free pages back to the OS (see the definition).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Begins a graceful shutdown: stop accepting, drain the queue.
  /// Idempotent; returns without waiting.
  void Stop();

  /// Blocks until shutdown completes (triggered by the `shutdown` verb
  /// or Stop()) and joins every thread.
  void Wait();

  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }

 private:
  struct Connection {
    explicit Connection(int connection_fd) : fd(connection_fd) {}
    ~Connection();
    int fd = -1;
    std::mutex write_mutex;       ///< serializes response/shed frames
    std::deque<std::string> queue;  ///< decoded frames awaiting a worker
    bool busy = false;            ///< a worker is handling a request
    bool eof = false;             ///< reader finished
  };

  explicit Server(ServerOptions options);

  [[nodiscard]] Status Bind();
  void listener_loop();
  void reader_loop(const std::shared_ptr<Connection>& connection);
  void worker_loop();
  /// With queue_mutex_ held: completes the drain once stopping and idle.
  void finish_if_drained_locked();
  void remove_if_done_locked(const std::shared_ptr<Connection>& connection);

  ServerOptions options_;
  unsigned threads_ = 1;
  std::optional<Service> service_;  ///< engaged until ~Server

  int listen_fd_ = -1;
  std::atomic<bool> accepting_{true};
  std::thread listener_;
  std::thread dispatcher_;
  std::unique_ptr<ThreadPool> pool_;

  std::mutex queue_mutex_;
  std::condition_variable ready_cv_;  ///< workers: ready_ / workers_done_
  std::condition_variable done_cv_;   ///< Wait(): workers_done_ only
  std::deque<std::shared_ptr<Connection>> ready_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> readers_;
  std::size_t pending_ = 0;  ///< queued + in-flight requests
  bool draining_ = false;
  bool workers_done_ = false;
  bool joined_ = false;
};

}  // namespace lrt::service

#endif  // LRT_SERVICE_SERVER_H_
