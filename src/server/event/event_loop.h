// The epoll readiness loop: production-connection-count serving on one
// thread.
//
// This loop multiplexes every connection over one level-triggered epoll
// instance with non-blocking per-connection read/write buffers, so a client
// costs a buffer, not a thread.  A readable connection is drained into
// its input buffer and parsed into length-prefixed frames; each complete
// frame is handed to the shared Dispatcher, whose completion callback (run
// on an engine pool thread for fit/query frames) posts the reply to a
// completion queue and nudges an eventfd — the loop thread wakes, fills the
// frame's reply slot, and flushes.  Replies keep *request order* per
// connection even though completions arrive out of order, so clients may
// pipeline: send N frames back to back, read N replies.
//
// Robustness against misbehaving peers:
//   * A garbage or oversized length prefix answers ErrorReply and closes
//     after the flush — the stream is unsynchronized beyond that point.
//   * A half-open peer (sent a partial frame header and stalled — the
//     slow-loris shape) is reaped by the idle timeout; connections with
//     in-flight work or unflushed output are never reaped.
//   * The connection table is capacity-capped; accepts past the cap are
//     closed immediately instead of growing without bound.
//
// Shutdown (a Shutdown frame or Stop() from any thread) drains gracefully:
// the listener closes, in-flight requests finish and flush, idle
// connections close, and anything still open when the drain timeout
// expires is force-closed so Run() always returns.
//
// Answers are bit-for-bit in-process ReleaseSession answers because every
// frame goes through the shared Dispatcher — this file contains no
// protocol semantics at all, only readiness plumbing.
#ifndef PRIVTREE_SERVER_EVENT_EVENT_LOOP_H_
#define PRIVTREE_SERVER_EVENT_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string_view>

#include "dp/status.h"
#include "server/dispatcher.h"
#include "server/socket.h"

namespace privtree::server {

struct EventLoopOptions {
  /// A connection with no read/write progress, no in-flight requests and
  /// nothing left to flush for this long is reaped (half-open and
  /// slow-loris peers included).  Zero disables reaping.
  std::chrono::milliseconds idle_timeout{30000};
  /// How long a graceful drain waits for in-flight work to flush before
  /// force-closing the stragglers.
  std::chrono::milliseconds drain_timeout{5000};
  /// Hard cap on concurrently open connections; accepts past it close.
  std::size_t max_connections = 4096;
};

class EventLoop {
 public:
  /// Monotone counters; readable from any thread (tests, telemetry).
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t served_frames = 0;      ///< Frames dispatched.
    std::uint64_t reaped_idle = 0;        ///< Idle-timeout closes.
    std::uint64_t malformed_frames = 0;   ///< Garbage length prefixes.
    std::uint64_t refused_at_capacity = 0;
    std::uint64_t force_closed_in_drain = 0;
    std::uint64_t max_concurrent = 0;     ///< Peak open connections.
  };

  /// `dispatcher` must outlive the loop; the loop takes the listener over.
  EventLoop(Dispatcher& dispatcher, ListenSocket listener,
            EventLoopOptions options = {});

  /// Destroy only after Run has returned (or was never called).
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Runs the readiness loop until a Shutdown frame or Stop() completes a
  /// graceful drain.  Call once, from one thread.
  Status Run();

  /// Requests a graceful drain from any thread; idempotent.
  void Stop();

  Stats stats() const;

 private:
  struct Conn;
  struct CompletionQueue;

  Status Setup();
  void ProcessCompletions();
  void HandleAccept();
  void HandleReadable(Conn& conn);
  void HandleWritable(Conn& conn);
  void ParseFrames(Conn& conn);
  void DispatchFrame(Conn& conn, std::string_view payload);
  /// Moves contiguously-ready reply slots into the output buffer and
  /// writes as much as the socket accepts.
  void FlushConn(Conn& conn);
  /// Closes `conn` if it has nothing left to do and a close is wanted
  /// (peer gone, poisoned stream, or drain); returns true when closed.
  bool CloseIfDone(Conn& conn);
  void CloseConn(std::uint64_t id);
  void ArmWrite(Conn& conn, bool want);
  void BeginDrain();
  void ReapIdle();

  Dispatcher& dispatcher_;
  ListenSocket listener_;
  const EventLoopOptions options_;

  int epoll_fd_ = -1;
  /// Completions cross threads through here; shared_ptr so an engine
  /// callback outliving the loop object posts into freed-safe memory.
  std::shared_ptr<CompletionQueue> queue_;
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 3;  // 1 = listener, 2 = wakeup eventfd.
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};

  /// Counters are atomics so stats() is safe mid-run.
  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> served_frames{0};
    std::atomic<std::uint64_t> reaped_idle{0};
    std::atomic<std::uint64_t> malformed_frames{0};
    std::atomic<std::uint64_t> refused_at_capacity{0};
    std::atomic<std::uint64_t> force_closed_in_drain{0};
    std::atomic<std::uint64_t> max_concurrent{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace privtree::server

#endif  // PRIVTREE_SERVER_EVENT_EVENT_LOOP_H_
