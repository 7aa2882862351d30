#include "mapreduce/transport.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "robust/netfault.h"

namespace m2td::mapreduce::transport {

namespace {

using Clock = std::chrono::steady_clock;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

/// Deadline checks and cancel polls share one slice length with
/// CancelToken::WaitForMillis, so a fired token is observed within 50 ms
/// even mid-poll.
constexpr double kPollSliceMs = 50.0;

int SliceTimeoutMs(double deadline_ms, double elapsed_ms) {
  double slice = kPollSliceMs;
  if (deadline_ms > 0) {
    slice = std::min(slice, std::max(1.0, deadline_ms - elapsed_ms));
  }
  return static_cast<int>(slice);
}

void ConfigureSocket(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

Status SplitHostPort(const std::string& address, std::string* host,
                     std::string* port) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return Status::InvalidArgument("address must be host:port: '" + address +
                                   "'");
  }
  *host = address.substr(0, colon);
  *port = address.substr(colon + 1);
  return Status::OK();
}

std::string SockaddrToString(const sockaddr_storage& addr) {
  char host[NI_MAXHOST], port[NI_MAXSERV];
  if (::getnameinfo(reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                    host, sizeof(host), port, sizeof(port),
                    NI_NUMERICHOST | NI_NUMERICSERV) != 0) {
    return "unknown";
  }
  return std::string(host) + ":" + port;
}

}  // namespace

// -------------------------------------------------------------- Connection

Connection::~Connection() { Close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      peer_(std::move(other.peer_)),
      buffer_(std::move(other.buffer_)),
      last_frame_us_(other.last_frame_us_) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    peer_ = std::move(other.peer_);
    buffer_ = std::move(other.buffer_);
    last_frame_us_ = other.last_frame_us_;
  }
  return *this;
}

Connection Connection::FromSocket(int socket_fd, std::string peer) {
  Connection conn;
  conn.fd_ = socket_fd;
  conn.peer_ = std::move(peer);
  conn.last_frame_us_ = NowUs();
  return conn;
}

void Connection::Close() {
  if (fd_ < 0) return;
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

Status Connection::SetNonBlockingRead() {
  if (fd_ < 0) return Status::IOError("connection not open");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("O_NONBLOCK failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

double Connection::IdleMillis() const {
  return (NowUs() - last_frame_us_) / 1000.0;
}

Status Connection::WriteAllDeadline(const char* data, std::size_t size,
                                    double deadline_ms) {
  const robust::CancelToken token = robust::CurrentCancelToken();
  const double start_us = NowUs();
  std::size_t written = 0;
  while (written < size) {
    // MSG_NOSIGNAL: a closed peer is EPIPE here, not a process-killing
    // SIGPIPE.
    const ssize_t n =
        ::send(fd_, data + written, size - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EINTR && errno != EAGAIN &&
        errno != EWOULDBLOCK) {
      return Status::IOError("frame write to " + peer_ + " failed: " +
                             std::strerror(errno));
    }
    if (n < 0 && errno == EINTR) continue;
    // Kernel buffer full: wait for writability in cancel-aware slices.
    M2TD_RETURN_IF_ERROR(token.CheckCancel());
    const double elapsed_ms = (NowUs() - start_us) / 1000.0;
    if (deadline_ms > 0 && elapsed_ms >= deadline_ms) {
      obs::GetCounter("dist.net.deadline_expiries").Increment();
      return Status::DeadlineExceeded("frame write to " + peer_ +
                                      " exceeded its deadline");
    }
    pollfd pfd{fd_, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, SliceTimeoutMs(deadline_ms, elapsed_ms));
    if (ready < 0 && errno != EINTR) {
      return Status::IOError(std::string("write poll failed: ") +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

Status Connection::WriteFrame(const std::string& payload,
                              double deadline_ms) {
  if (fd_ < 0) return Status::IOError("connection not open");
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());

  const robust::NetFaultDecision fault = robust::ConsultNetFault(peer_);
  switch (fault.action) {
    case robust::NetFaultAction::kNone:
      break;
    case robust::NetFaultAction::kDrop:
      // Vanished on the wire: the caller believes it sent.
      return Status::OK();
    case robust::NetFaultAction::kDelay: {
      const robust::CancelToken token = robust::CurrentCancelToken();
      if (token.CanBeCancelled()) {
        token.WaitForMillis(fault.delay_ms);
        M2TD_RETURN_IF_ERROR(token.CheckCancel());
      } else {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(fault.delay_ms));
      }
      break;
    }
    case robust::NetFaultAction::kCorrupt:
      // An impossible length prefix: detectable on the far side as
      // DataLoss without any change to the frame format.
      len = kMaxFrameBytes + 1 + len;
      break;
    case robust::NetFaultAction::kTruncate: {
      // Write a prefix of the frame, then tear the connection down like
      // a half-open TCP peer would.
      std::string whole(sizeof(len), '\0');
      std::memcpy(whole.data(), &len, sizeof(len));
      whole += payload;
      const std::size_t keep = std::min(fault.truncate_at, whole.size());
      (void)WriteAllDeadline(whole.data(), keep, deadline_ms);
      Close();
      return Status::IOError("connection to " + peer_ +
                             " torn mid-frame (injected truncation)");
    }
  }

  char header[4];
  std::memcpy(header, &len, sizeof(len));
  M2TD_RETURN_IF_ERROR(WriteAllDeadline(header, sizeof(header), deadline_ms));
  M2TD_RETURN_IF_ERROR(
      WriteAllDeadline(payload.data(), payload.size(), deadline_ms));
  obs::GetCounter("dist.net.frames_sent").Increment();
  return Status::OK();
}

/// Pops the first complete frame out of buffer_ into `frame`; `*got`
/// says whether one was ready. kDataLoss on a corrupt length prefix.
Status Connection::ExtractOne(std::string* frame, bool* got) {
  *got = false;
  if (buffer_.size() < 4) return Status::OK();
  std::uint32_t len = 0;
  std::memcpy(&len, buffer_.data(), sizeof(len));
  if (len > kMaxFrameBytes) {
    return Status::DataLoss("corrupt frame length " + std::to_string(len) +
                            " [conn " + peer_ + "]");
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(len)) return Status::OK();
  *frame = buffer_.substr(4, len);
  buffer_.erase(0, 4 + static_cast<std::size_t>(len));
  *got = true;
  last_frame_us_ = NowUs();
  obs::GetCounter("dist.net.frames_received").Increment();
  return Status::OK();
}

Status Connection::DrainBuffer(std::vector<std::string>* frames) {
  while (true) {
    std::string frame;
    bool got = false;
    M2TD_RETURN_IF_ERROR(ExtractOne(&frame, &got));
    if (!got) return Status::OK();
    frames->push_back(std::move(frame));
  }
}

Result<std::string> Connection::ReadFrame(double deadline_ms) {
  if (fd_ < 0) return Status::IOError("connection not open");
  const robust::CancelToken token = robust::CurrentCancelToken();
  const double start_us = NowUs();
  while (true) {
    {
      std::string frame;
      bool got = false;
      M2TD_RETURN_IF_ERROR(ExtractOne(&frame, &got));
      if (got) return frame;
    }
    M2TD_RETURN_IF_ERROR(token.CheckCancel());
    const double elapsed_ms = (NowUs() - start_us) / 1000.0;
    if (deadline_ms > 0 && elapsed_ms >= deadline_ms) {
      obs::GetCounter("dist.net.deadline_expiries").Increment();
      return Status::DeadlineExceeded("frame read from " + peer_ +
                                      " exceeded its deadline");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, SliceTimeoutMs(deadline_ms, elapsed_ms));
    if (ready < 0 && errno != EINTR) {
      return Status::IOError(std::string("read poll failed: ") +
                             std::strerror(errno));
    }
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return Status::IOError("frame read from " + peer_ + " failed: " +
                             std::strerror(errno));
    }
    if (n == 0) {
      if (buffer_.empty()) return Status::NotFound("peer closed");
      return Status::DataLoss("peer closed mid-frame (" +
                              std::to_string(buffer_.size()) +
                              " stray bytes) [conn " + peer_ + "]");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Result<bool> Connection::PollFrames(std::vector<std::string>* frames) {
  if (fd_ < 0) return Status::IOError("connection not open");
  bool open = true;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Status::IOError("frame poll of " + peer_ + " failed: " +
                             std::strerror(errno));
    }
    if (n == 0) {
      open = false;
      break;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  M2TD_RETURN_IF_ERROR(DrainBuffer(frames));
  if (!open && !buffer_.empty()) {
    return Status::DataLoss("peer closed mid-frame (" +
                            std::to_string(buffer_.size()) +
                            " stray bytes) [conn " + peer_ + "]");
  }
  return open;
}

// ---------------------------------------------------------------- Listener

Listener::~Listener() { Close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      bound_address_(std::move(other.bound_address_)) {}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    bound_address_ = std::move(other.bound_address_);
  }
  return *this;
}

void Listener::Close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

Result<Listener> Listener::Listen(const std::string& address) {
  std::string host, port;
  M2TD_RETURN_IF_ERROR(SplitHostPort(address, &host, &port));

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  addrinfo* infos = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &infos);
  if (gai != 0) {
    return Status::IOError("cannot resolve '" + address +
                           "': " + ::gai_strerror(gai));
  }

  int fd = -1;
  std::string error = "no usable address for '" + address + "'";
  for (addrinfo* info = infos; info != nullptr; info = info->ai_next) {
    fd = ::socket(info->ai_family, info->ai_socktype | SOCK_CLOEXEC,
                  info->ai_protocol);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, info->ai_addr, info->ai_addrlen) == 0 &&
        ::listen(fd, 64) == 0) {
      break;
    }
    error = std::string("bind/listen on '") + address +
            "' failed: " + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(infos);
  if (fd < 0) return Status::IOError(error);

  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    ::close(fd);
    return Status::IOError(std::string("getsockname failed: ") +
                           std::strerror(errno));
  }

  Listener listener;
  listener.fd_ = fd;
  listener.bound_address_ = SockaddrToString(bound);
  return listener;
}

Result<Connection> Listener::Accept() {
  if (fd_ < 0) return Status::IOError("listener not open");
  sockaddr_storage remote{};
  socklen_t remote_len = sizeof(remote);
  const int conn_fd =
      ::accept(fd_, reinterpret_cast<sockaddr*>(&remote), &remote_len);
  if (conn_fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::NotFound("no pending connection");
    }
    return Status::IOError(std::string("accept failed: ") +
                           std::strerror(errno));
  }
  ConfigureSocket(conn_fd);
  Connection conn = Connection::FromSocket(conn_fd, SockaddrToString(remote));
  M2TD_RETURN_IF_ERROR(conn.SetNonBlockingRead());
  obs::GetCounter("dist.net.accepts").Increment();
  return conn;
}

// -------------------------------------------------------------------- Dial

Result<Connection> Dial(const std::string& address, std::string peer,
                        double deadline_ms) {
  std::string host, port;
  M2TD_RETURN_IF_ERROR(SplitHostPort(address, &host, &port));

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  addrinfo* infos = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &infos);
  if (gai != 0) {
    return Status::IOError("cannot resolve '" + address +
                           "': " + ::gai_strerror(gai));
  }

  Status error = Status::IOError("no usable address for '" + address + "'");
  for (addrinfo* info = infos; info != nullptr; info = info->ai_next) {
    const int fd =
        ::socket(info->ai_family, info->ai_socktype | SOCK_CLOEXEC,
                 info->ai_protocol);
    if (fd < 0) continue;
    // Non-blocking connect so the deadline holds against a black-holed
    // address, then back to blocking for the frame loop.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, info->ai_addr, info->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int timeout =
          deadline_ms > 0 ? static_cast<int>(deadline_ms) : -1;
      const int ready = ::poll(&pfd, 1, timeout);
      if (ready == 0) {
        ::close(fd);
        ::freeaddrinfo(infos);
        return Status::DeadlineExceeded("connect to '" + address +
                                        "' timed out");
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
      rc = so_error == 0 ? 0 : -1;
      errno = so_error;
    }
    if (rc != 0) {
      error = Status::IOError("connect to '" + address +
                              "' failed: " + std::strerror(errno));
      ::close(fd);
      continue;
    }
    ::fcntl(fd, F_SETFL, flags);
    ConfigureSocket(fd);
    ::freeaddrinfo(infos);
    obs::GetCounter("dist.net.connects").Increment();
    return Connection::FromSocket(fd, std::move(peer));
  }
  ::freeaddrinfo(infos);
  return error;
}

Result<Connection> DialWithBackoff(const std::string& address,
                                   std::string peer,
                                   const robust::RetryPolicy& policy,
                                   double budget_ms,
                                   const robust::CancelToken& token) {
  Rng rng(policy.seed);
  const double start_us = NowUs();
  Status last = Status::IOError("never attempted");
  for (int attempt = 0;; ++attempt) {
    M2TD_RETURN_IF_ERROR(token.CheckCancel());
    const double elapsed_ms = (NowUs() - start_us) / 1000.0;
    const double remaining_ms = budget_ms - elapsed_ms;
    if (remaining_ms <= 0) {
      return Status::DeadlineExceeded(
          "redial budget exhausted for '" + address + "' after " +
          std::to_string(attempt) + " attempts: " + last.ToString());
    }
    if (attempt > 0) obs::GetCounter("dist.net.redials").Increment();
    Result<Connection> conn =
        Dial(address, peer, std::min(remaining_ms, 1000.0));
    if (conn.ok()) return conn;
    last = conn.status();
    const double delay_ms =
        std::min(robust::BackoffMs(policy, attempt, &rng),
                 budget_ms - (NowUs() - start_us) / 1000.0);
    if (delay_ms > 0 && token.WaitForMillis(delay_ms)) {
      return token.CheckCancel();
    }
  }
}

}  // namespace m2td::mapreduce::transport
