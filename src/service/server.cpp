#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <utility>

#include <poll.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/sink.h"
#include "service/frame.h"
#include "service/protocol.h"

namespace lrt::service {

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options)
    : options_(std::move(options)) {
  service_.emplace(options_.service);
  threads_ = options_.threads != 0
                 ? options_.threads
                 : std::max(1u, std::thread::hardware_concurrency());
}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  std::unique_ptr<Server> server(new Server(std::move(options)));
  LRT_RETURN_IF_ERROR(server->Bind());
  server->listener_ = std::thread([raw = server.get()] {
    raw->listener_loop();
  });
  server->pool_ = std::make_unique<ThreadPool>(server->threads_);
  server->dispatcher_ = std::thread([raw = server.get()] {
    raw->pool_->parallel_for(
        static_cast<std::int64_t>(raw->threads_),
        [raw](std::int64_t) { raw->worker_loop(); });
  });
  return server;
}

Status Server::Bind() {
  if (options_.socket_path.empty()) {
    return InvalidArgumentError("ServerOptions::socket_path is required");
  }
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError("socket path '" + options_.socket_path +
                                "' exceeds the AF_UNIX path limit");
  }
  // A worker writing to a client that hung up must see EPIPE, not die.
  std::signal(SIGPIPE, SIG_IGN);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(std::string("socket() failed: ") +
                         std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return InternalError("bind('" + options_.socket_path +
                         "') failed: " + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return InternalError(std::string("listen() failed: ") +
                         std::strerror(errno));
  }
  return Status::Ok();
}

void Server::listener_loop() {
  while (accepting_.load(std::memory_order_relaxed)) {
    pollfd poll_fd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&poll_fd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto connection = std::make_shared<Connection>(fd);
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (draining_) {
        continue;  // Connection destructor closes the fd.
      }
      connections_.push_back(connection);
      readers_.emplace_back([this, connection] { reader_loop(connection); });
    }
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& connection) {
  obs::Sink* sink = obs::resolve_sink(options_.service.sink);
  while (true) {
    Result<std::optional<std::string>> frame = read_frame(connection->fd);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        // Oversized length prefix: the stream is beyond resync; answer
        // once, then drop the connection.
        const std::lock_guard<std::mutex> lock(connection->write_mutex);
        (void)write_frame(connection->fd,
                          make_error_frame(std::nullopt, frame.status()));
      }
      break;
    }
    if (!frame->has_value()) break;  // clean EOF
    std::string payload = std::move(**frame);

    bool shed = false;
    Status shed_status = Status::Ok();
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (draining_) {
        shed = true;
        shed_status = UnavailableError("server is shutting down");
      } else if (pending_ >= options_.max_pending) {
        shed = true;
        shed_status = UnavailableError(
            "server overloaded: " + std::to_string(pending_) +
            " requests pending; retry later");
      } else {
        ++pending_;
        connection->queue.push_back(std::move(payload));
        if (!connection->busy && connection->queue.size() == 1) {
          ready_.push_back(connection);
          ready_cv_.notify_one();
        }
      }
    }
    if (shed) {
      // Reader-side load shed: the request never reaches the service, so
      // the typed reply is written here, before the next read.
      if (sink != nullptr) sink->counter_add("service.shed");
      const std::lock_guard<std::mutex> lock(connection->write_mutex);
      (void)write_frame(connection->fd,
                        make_error_frame(extract_request_id(payload),
                                         shed_status));
    }
  }
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  connection->eof = true;
  remove_if_done_locked(connection);
}

void Server::worker_loop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (true) {
    ready_cv_.wait(lock,
                   [this] { return workers_done_ || !ready_.empty(); });
    if (workers_done_) return;
    const std::shared_ptr<Connection> connection = ready_.front();
    ready_.pop_front();
    connection->busy = true;
    std::string payload = std::move(connection->queue.front());
    connection->queue.pop_front();
    lock.unlock();

    if (options_.admission_gate) options_.admission_gate(payload);
    const ServiceReply reply = service_->handle(payload);
    {
      const std::lock_guard<std::mutex> write_lock(
          connection->write_mutex);
      (void)write_frame(connection->fd, reply.frame);
    }

    lock.lock();
    connection->busy = false;
    --pending_;
    if (!connection->queue.empty()) {
      ready_.push_back(connection);
      ready_cv_.notify_one();
    } else {
      remove_if_done_locked(connection);
    }
    if (reply.shutdown) {
      draining_ = true;
      accepting_.store(false, std::memory_order_relaxed);
    }
    finish_if_drained_locked();
  }
}

void Server::finish_if_drained_locked() {
  if (!draining_ || pending_ != 0 || workers_done_) return;
  workers_done_ = true;
  accepting_.store(false, std::memory_order_relaxed);
  ready_cv_.notify_all();
  done_cv_.notify_all();
  // Unblock every reader parked in read(); they exit via EOF.
  for (const std::shared_ptr<Connection>& connection : connections_) {
    ::shutdown(connection->fd, SHUT_RDWR);
  }
}

void Server::remove_if_done_locked(
    const std::shared_ptr<Connection>& connection) {
  if (!connection->eof || connection->busy || !connection->queue.empty()) {
    return;
  }
  connections_.erase(
      std::remove(connections_.begin(), connections_.end(), connection),
      connections_.end());
}

void Server::Stop() {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  draining_ = true;
  accepting_.store(false, std::memory_order_relaxed);
  finish_if_drained_locked();
}

void Server::Wait() {
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    done_cv_.wait(lock, [this] { return workers_done_; });
    if (joined_) return;
    joined_ = true;
  }
  if (listener_.joinable()) listener_.join();
  if (dispatcher_.joinable()) dispatcher_.join();
  std::vector<std::thread> readers;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    readers.swap(readers_);
  }
  for (std::thread& reader : readers) {
    if (reader.joinable()) reader.join();
  }
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
}

Server::~Server() {
  Stop();
  if (listener_.joinable() || dispatcher_.joinable() || !joined_) {
    Wait();
  }
  // The residents and the replay cache were allocated by the server's
  // threads, so glibc keeps their freed pages in those threads' arenas.
  // The next threads to start take over the arenas in thread-exit order,
  // so a process that starts servers one after another would carry a
  // varying amount of dead memory; trimming after the free returns it.
  service_.reset();
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

}  // namespace lrt::service
