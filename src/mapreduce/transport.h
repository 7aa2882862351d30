#ifndef M2TD_MAPREDUCE_TRANSPORT_H_
#define M2TD_MAPREDUCE_TRANSPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "robust/cancel.h"
#include "robust/retry.h"
#include "util/result.h"
#include "util/status.h"

namespace m2td::mapreduce::transport {

/// Hard upper bound on a single frame payload; a length prefix beyond
/// this is treated as stream corruption, not an allocation request.
constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// \brief Frame connection over one stream socket — the coordinator <->
/// worker control channel of the multi-process D-M2TD backend. Every
/// worker, spawned on loopback or remote, attaches over TCP with
/// m2td_worker --connect.
///
/// A frame is a 4-byte little-endian payload length followed by the
/// payload (at most kMaxFrameBytes). What a Connection adds on top:
///
///  - one object per peer covering both directions of one socket (a TCP
///    connection, or one end of a socketpair);
///  - read/write deadlines: every blocking call polls in short slices
///    against both its deadline and the ambient robust::CancelToken, so a
///    half-open peer surfaces as kDeadlineExceeded instead of a hang;
///  - a write to a closed peer is kIOError, never a SIGPIPE;
///  - corruption classification: a torn frame or an impossible length
///    prefix is kDataLoss tagged "[conn <peer>]" — the transport-seam
///    analogue of the shuffle store's "[task <phase>:<m>]" culprit tags;
///  - deterministic fault injection: every outgoing frame consults
///    robust::ConsultNetFault(peer) and honours drop/delay/truncate/
///    corrupt verdicts (see robust/netfault.h for the spec grammar).
///
/// Frames carry small control messages (task assignments, heartbeats,
/// completion reports); bulk intermediate data never rides the
/// connection — it goes through the durable io::ShuffleStore.
class Connection {
 public:
  /// An unconnected placeholder; every operation fails until a factory
  /// assigns a real socket.
  Connection() = default;
  ~Connection();

  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Adopts one bidirectional stream socket, which the Connection owns
  /// and closes.
  static Connection FromSocket(int socket_fd, std::string peer);

  bool connected() const { return fd_ >= 0; }

  /// Human-readable peer label ("worker3", "coordinator",
  /// "127.0.0.1:40213") — the handle culprit tags and the fault
  /// injector's peer= filter match on.
  const std::string& peer() const { return peer_; }
  void set_peer(std::string peer) { peer_ = std::move(peer); }

  /// The descriptor to watch for readability in a poll loop.
  int fd() const { return fd_; }

  /// Writes one frame, honouring an armed net fault first. Blocks at most
  /// `deadline_ms` (<= 0 = no deadline) against a full kernel buffer;
  /// wakes early if the ambient CancelToken fires. A closed or torn peer
  /// is kIOError, a deadline expiry kDeadlineExceeded.
  Status WriteFrame(const std::string& payload, double deadline_ms = 0);

  /// Blocking read of one frame with the same deadline semantics. Clean
  /// EOF between frames is kNotFound ("peer closed"); a torn frame or a
  /// corrupt length prefix is kDataLoss tagged "[conn <peer>]".
  Result<std::string> ReadFrame(double deadline_ms = 0);

  /// Non-blocking drain for poll loops: appends every completed frame,
  /// returns false once the peer has closed cleanly, kDataLoss (tagged)
  /// on a torn tail or corrupt length. The socket must be O_NONBLOCK
  /// (Listener::Accept and SetNonBlockingRead take care of this).
  Result<bool> PollFrames(std::vector<std::string>* frames);

  /// Marks the socket O_NONBLOCK, for PollFrames. Writes stay bounded by
  /// their deadline either way.
  Status SetNonBlockingRead();

  /// Milliseconds since the last successfully received frame (or since
  /// construction). Drives per-connection idle timeouts.
  double IdleMillis() const;

  /// Tears the connection down hard (socket shutdown + close). Idempotent.
  void Close();

 private:
  Status WriteAllDeadline(const char* data, std::size_t size,
                          double deadline_ms);
  Status ExtractOne(std::string* frame, bool* got);
  /// Decodes completed frames out of buffer_; kDataLoss on corruption.
  Status DrainBuffer(std::vector<std::string>* frames);

  int fd_ = -1;
  std::string peer_;
  std::string buffer_;
  /// Steady-clock micros of the last received frame (see IdleMillis).
  double last_frame_us_ = 0.0;
};

/// \brief TCP listener for `m2td_worker --connect` attachment.
///
/// Accepted connections start unlabelled ("<address>" of the remote end);
/// the coordinator rebinds the label after the worker's hello handshake.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on "host:port" (port 0 = ephemeral). The listening
  /// socket is non-blocking and close-on-exec.
  static Result<Listener> Listen(const std::string& address);

  bool listening() const { return fd_ >= 0; }

  /// The actually-bound "ip:port" — what workers dial, what the
  /// coordinator passes to spawned workers as --connect.
  const std::string& bound_address() const { return bound_address_; }

  /// The descriptor to watch for readability in a poll loop.
  int fd() const { return fd_; }

  /// Accepts one pending connection; kNotFound when none is pending
  /// (poll the fd first). Accepted sockets are non-blocking on the read
  /// side, TCP_NODELAY, close-on-exec.
  Result<Connection> Accept();

  void Close();

 private:
  int fd_ = -1;
  std::string bound_address_;
};

/// Dials "host:port" once, blocking at most `deadline_ms` for the connect
/// to complete (kDeadlineExceeded on expiry, kIOError on refusal). The
/// socket is blocking, TCP_NODELAY, close-on-exec.
Result<Connection> Dial(const std::string& address, std::string peer,
                        double deadline_ms);

/// Dials under `policy`'s capped seeded exponential backoff until a
/// connect lands or `budget_ms` is spent; waits between attempts are
/// interruptible via `token`. Increments dist.net.redials once per
/// re-attempt. kDeadlineExceeded once the budget is gone, the token's
/// cancellation Status if it fires first.
Result<Connection> DialWithBackoff(const std::string& address,
                                   std::string peer,
                                   const robust::RetryPolicy& policy,
                                   double budget_ms,
                                   const robust::CancelToken& token);

}  // namespace m2td::mapreduce::transport

#endif  // M2TD_MAPREDUCE_TRANSPORT_H_
