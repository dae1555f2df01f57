// Minimal POSIX TCP plumbing for the serving front end: a listener and a
// frame-oriented connection.
//
// A Connection sends and receives whole frames — u32 little-endian payload
// length, then the payload — retrying short reads/writes internally, so the
// protocol layer above never sees a partial message.  Everything fallible
// returns Status/Result (no exceptions, no aborts on peer misbehaviour);
// a peer that closes cleanly between frames surfaces as NotFound("eof"),
// anything else as IOError.  ShutdownBoth() unblocks a thread parked in
// RecvFrame from another thread.
#ifndef PRIVTREE_SERVER_SOCKET_H_
#define PRIVTREE_SERVER_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "dp/status.h"

namespace privtree::server {

/// One established, frame-oriented TCP connection.  Movable; the fd closes
/// on destruction.  Not thread-safe except for ShutdownBoth().
class Connection {
 public:
  Connection() = default;
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() { Close(); }

  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to `host`:`port` (name resolution via getaddrinfo).
  /// `timeout_millis` bounds the TCP connect (0 = block indefinitely); a
  /// timed-out dial fails with DeadlineExceeded instead of hanging against
  /// a half-open or blackholed peer.
  static Result<Connection> Dial(const std::string& host, std::uint16_t port,
                                 std::int64_t timeout_millis = 0);

  bool ok() const { return fd_ >= 0; }

  /// Bounds every subsequent blocking read (SO_RCVTIMEO); a read that
  /// exceeds it fails with DeadlineExceeded.  0 removes the bound.
  Status SetRecvTimeout(std::int64_t millis);
  /// Send-side counterpart (SO_SNDTIMEO).
  Status SetSendTimeout(std::int64_t millis);

  /// Writes one length-prefixed frame; the payload must fit the protocol's
  /// kMaxFramePayload cap.
  Status SendFrame(std::string_view payload);

  /// Reads one whole frame payload.  NotFound("eof") on a clean close
  /// before the length prefix; IOError on anything torn.
  Result<std::string> RecvFrame();

  /// Half-closes both directions, failing any blocked RecvFrame/SendFrame;
  /// safe to call from another thread while this connection is in use.
  void ShutdownBoth();

  void Close();

  /// The raw descriptor (still owned by this Connection; -1 when closed).
  /// The event loop registers it with epoll and does its own buffered
  /// non-blocking I/O — SendFrame/RecvFrame are for blocking callers only.
  int fd() const { return fd_; }

  /// Switches the socket's O_NONBLOCK flag; IOError on fcntl failure.
  Status SetNonBlocking(bool nonblocking);

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to 127.0.0.1 (the serving protocol carries
/// no authentication; keep it loopback unless you wrap it in one).
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { Close(); }

  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Binds and listens on 127.0.0.1:`port`; `port` 0 picks an ephemeral
  /// port (read it back from port()).
  static Result<ListenSocket> Listen(std::uint16_t port);

  bool ok() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Blocks for the next client.  Fails with Unavailable once the listener
  /// is shut down (the clean-stop signal, not an error).
  Result<Connection> Accept();

  /// Unblocks Accept from another thread; subsequent Accepts fail.
  void Shutdown();

  void Close();

  /// The raw listening descriptor, for epoll registration (-1 when closed).
  int fd() const { return fd_; }

  /// Switches the listener's O_NONBLOCK flag (readiness-loop accepts).
  Status SetNonBlocking(bool nonblocking);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace privtree::server

#endif  // PRIVTREE_SERVER_SOCKET_H_
