#include "server/event/event_loop.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/byteio.h"
#include "core/sync.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"

namespace privtree::server {

namespace {

constexpr std::uint64_t kListenerId = 1;
constexpr std::uint64_t kWakeupId = 2;

/// Decodes the little-endian u32 frame length prefix.
std::uint32_t FrameLength(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

void BumpMax(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t seen = target.load(std::memory_order_relaxed);
  while (seen < value &&
         !target.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
  }
}

// Registry mirrors of the loop's AtomicStats, bumped at the same sites so
// a GetStats snapshot agrees with stats() without any translation layer.
struct EventCounters {
  obs::Counter& accepted =
      obs::Registry::Global().GetCounter("event.accepted");
  obs::Counter& served_frames =
      obs::Registry::Global().GetCounter("event.served_frames");
  obs::Counter& reaped_idle =
      obs::Registry::Global().GetCounter("event.reaped_idle");
  obs::Counter& malformed_frames =
      obs::Registry::Global().GetCounter("event.malformed_frames");
  obs::Counter& refused_at_capacity =
      obs::Registry::Global().GetCounter("event.refused_at_capacity");
  obs::Counter& force_closed_in_drain =
      obs::Registry::Global().GetCounter("event.force_closed_in_drain");
  obs::Gauge& max_concurrent =
      obs::Registry::Global().GetGauge("event.max_concurrent");
  // The loop's share of a request's spans (obs::Span), histogrammed so
  // GetStats attributes a request without reading traces.
  obs::Histogram& socket_read_us =
      obs::Registry::Global().GetHistogram("server.socket_read_us");
  obs::Histogram& dispatch_us =
      obs::Registry::Global().GetHistogram("server.dispatch_us");
  obs::Histogram& socket_write_us =
      obs::Registry::Global().GetHistogram("server.socket_write_us");
};

EventCounters& Counters() {
  static EventCounters* counters = new EventCounters();
  return *counters;
}

std::int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return us < 0 ? 0 : us;
}

/// The frame whose HandleFrame is running on this thread, if any.  A reply
/// callback that finds its own frame here was called back synchronously,
/// on the loop thread, and lands straight in the frame's slot; pool
/// threads never set it, so their replies take the completion queue.
struct SyncReply {
  std::uint64_t conn_id = 0;
  std::uint64_t slot = 0;
  std::optional<std::string> reply;
};
thread_local SyncReply* sync_reply = nullptr;

}  // namespace

/// One reply on its way back to the loop thread.
struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t slot = 0;
  std::string reply;
};

/// The cross-thread handoff: engine completion callbacks post here and
/// nudge the eventfd; the loop thread drains it.  Lives behind a
/// shared_ptr captured by every in-flight callback, so a completion that
/// lands after the loop object is gone still writes into valid memory.
struct EventLoop::CompletionQueue {
  Mutex mu;
  std::vector<Completion> items GUARDED_BY(mu);
  int wake_fd = -1;

  CompletionQueue() { wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC); }
  ~CompletionQueue() {
    if (wake_fd >= 0) ::close(wake_fd);
  }

  /// Wakes the loop only when the list goes from empty to non-empty: the
  /// loop drains the whole list each turn, so one write covers a batch.
  void Post(Completion completion) {
    bool was_empty = false;
    {
      MutexLock lk(mu);
      was_empty = items.empty();
      items.push_back(std::move(completion));
    }
    if (was_empty) Wake();
  }

  void Wake() {
    if (wake_fd < 0) return;
    const std::uint64_t one = 1;
    // A full eventfd counter still wakes the loop; ignore short writes.
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd, &one, sizeof(one));
  }
};

/// Per-connection state, all owned by the loop thread.
struct EventLoop::Conn {
  /// One reply slot; carries the request's trace so span recording can
  /// finish when (and only when) the reply's bytes reach the socket.
  struct PendingSlot {
    std::optional<std::string> reply;
    obs::TracePtr trace;
  };
  /// A framed reply awaiting transmission: finished once the connection's
  /// lifetime flushed-byte count passes `end_offset`.
  struct InFlightWrite {
    std::uint64_t end_offset = 0;
    std::chrono::steady_clock::time_point framed_at;
    obs::TracePtr trace;
  };

  int fd = -1;
  std::uint64_t id = 0;
  std::string inbuf;
  std::size_t inpos = 0;  ///< Parse offset into inbuf.
  std::string outbuf;
  std::size_t outpos = 0;  ///< Write offset into outbuf.
  /// In-order reply slots: index i holds the reply to the (base_slot+i)-th
  /// dispatched frame once its completion lands; only a contiguous ready
  /// prefix may flush, which is what preserves pipelined request order.
  std::deque<PendingSlot> pending;
  std::deque<InFlightWrite> writes;
  std::uint64_t queued_bytes = 0;   ///< Lifetime bytes framed into outbuf.
  std::uint64_t flushed_bytes = 0;  ///< Lifetime bytes sent to the socket.
  /// Duration of the most recent recv loop; every frame parsed out of that
  /// read inherits it as its socket-read span.
  std::int64_t last_read_us = 0;
  std::uint64_t base_slot = 0;
  std::size_t in_flight = 0;  ///< Dispatched frames awaiting completion.
  std::shared_ptr<ClientSession> session;
  std::chrono::steady_clock::time_point last_activity;
  bool want_write = false;
  bool peer_half_closed = false;
  bool close_after_flush = false;
  bool stop_reading = false;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

EventLoop::EventLoop(Dispatcher& dispatcher, ListenSocket listener,
                     EventLoopOptions options)
    : dispatcher_(dispatcher),
      listener_(std::move(listener)),
      options_(options),
      queue_(std::make_shared<CompletionQueue>()) {}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

EventLoop::Stats EventLoop::stats() const {
  Stats out;
  out.accepted = stats_.accepted.load(std::memory_order_relaxed);
  out.served_frames = stats_.served_frames.load(std::memory_order_relaxed);
  out.reaped_idle = stats_.reaped_idle.load(std::memory_order_relaxed);
  out.malformed_frames =
      stats_.malformed_frames.load(std::memory_order_relaxed);
  out.refused_at_capacity =
      stats_.refused_at_capacity.load(std::memory_order_relaxed);
  out.force_closed_in_drain =
      stats_.force_closed_in_drain.load(std::memory_order_relaxed);
  out.max_concurrent = stats_.max_concurrent.load(std::memory_order_relaxed);
  return out;
}

void EventLoop::Stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  queue_->Wake();
}

Status EventLoop::Setup() {
  if (queue_->wake_fd < 0) {
    return Status::IOError("eventfd: " + std::string(std::strerror(errno)));
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError("epoll_create1: " +
                           std::string(std::strerror(errno)));
  }
  if (Status s = listener_.SetNonBlocking(true); !s.ok()) return s;

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    return Status::IOError("epoll_ctl(listener): " +
                           std::string(std::strerror(errno)));
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeupId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, queue_->wake_fd, &ev) != 0) {
    return Status::IOError("epoll_ctl(eventfd): " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Status EventLoop::Run() {
  if (Status s = Setup(); !s.ok()) return s;

  std::vector<epoll_event> events(256);
  for (;;) {
    ProcessCompletions();
    if (stop_requested_.load(std::memory_order_relaxed) && !draining_) {
      BeginDrain();
    }
    if (draining_) {
      if (conns_.empty()) break;
      if (std::chrono::steady_clock::now() >= drain_deadline_) {
        stats_.force_closed_in_drain.fetch_add(conns_.size(),
                                               std::memory_order_relaxed);
        Counters().force_closed_in_drain.Inc(conns_.size());
        while (!conns_.empty()) CloseConn(conns_.begin()->first);
        break;
      }
    }

    // Wake often enough that idle reaping and the drain deadline stay
    // responsive even when no descriptor fires.
    int timeout_ms = 250;
    if (options_.idle_timeout.count() > 0) {
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          options_.idle_timeout.count() / 4, 10, 250));
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("epoll_wait: " +
                             std::string(std::strerror(errno)));
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      const std::uint32_t mask = events[i].events;
      if (id == kWakeupId) {
        std::uint64_t drained = 0;
        while (::read(queue_->wake_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;  // The queue drains at the top of the loop.
      }
      if (id == kListenerId) {
        if (!draining_) HandleAccept();
        continue;
      }
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // Closed earlier this batch.
      Conn& conn = *it->second;
      if (mask & (EPOLLERR | EPOLLHUP)) {
        // The peer is gone both ways; any unflushed reply is undeliverable.
        CloseConn(id);
        continue;
      }
      if (mask & EPOLLIN) HandleReadable(conn);
      if (conns_.contains(id) && (mask & EPOLLOUT)) HandleWritable(conn);
    }
    ReapIdle();
  }

  ::close(epoll_fd_);
  epoll_fd_ = -1;
  return Status::OK();
}

void EventLoop::ProcessCompletions() {
  std::vector<Completion> items;
  {
    MutexLock lk(queue_->mu);
    items.swap(queue_->items);
  }
  for (Completion& completion : items) {
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // Connection closed meanwhile.
    Conn& conn = *it->second;
    const std::uint64_t index = completion.slot - conn.base_slot;
    if (index >= conn.pending.size()) continue;  // Defensive; cannot happen.
    conn.pending[index].reply.emplace(std::move(completion.reply));
    if (conn.in_flight > 0) --conn.in_flight;
    FlushConn(conn);
  }
}

void EventLoop::HandleAccept() {
  for (;;) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or a transient accept failure.
    }
    if (conns_.size() >= options_.max_connections) {
      stats_.refused_at_capacity.fetch_add(1, std::memory_order_relaxed);
      Counters().refused_at_capacity.Inc();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->session = dispatcher_.NewSession();
    conn->last_activity = std::chrono::steady_clock::now();

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      continue;  // Conn destructor closes the fd.
    }
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    Counters().accepted.Inc();
    conns_.emplace(conn->id, std::move(conn));
    BumpMax(stats_.max_concurrent, conns_.size());
    Counters().max_concurrent.SetMax(conns_.size());
  }
}

void EventLoop::HandleReadable(Conn& conn) {
  const std::uint64_t id = conn.id;
  const auto read_start = std::chrono::steady_clock::now();
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.last_activity = std::chrono::steady_clock::now();
      if (!conn.stop_reading) {
        conn.inbuf.append(buf, static_cast<std::size_t>(n));
      }
      continue;
    }
    if (n == 0) {
      conn.peer_half_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(id);  // Torn connection: nothing left to deliver.
    return;
  }
  conn.last_read_us = MicrosSince(read_start);
  ParseFrames(conn);  // May close the connection via its flush.
  const auto it = conns_.find(id);
  if (it != conns_.end()) CloseIfDone(*it->second);
}

void EventLoop::ParseFrames(Conn& conn) {
  while (!conn.stop_reading) {
    const std::size_t available = conn.inbuf.size() - conn.inpos;
    if (available < 4) break;
    const std::uint32_t length = FrameLength(conn.inbuf.data() + conn.inpos);
    if (length > kMaxFramePayload) {
      // The stream is unsynchronized from here on: answer once, stop
      // reading, close once the error has flushed.
      stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
      Counters().malformed_frames.Inc();
      conn.pending.push_back(Conn::PendingSlot{
          EncodeErrorReply(Status::InvalidArgument(
              "frame length " + std::to_string(length) + " exceeds cap")),
          nullptr});
      conn.stop_reading = true;
      conn.close_after_flush = true;
      break;
    }
    if (available - 4 < length) break;  // Await the rest of the frame.
    const std::string_view payload(conn.inbuf.data() + conn.inpos + 4,
                                   length);
    conn.inpos += 4 + static_cast<std::size_t>(length);
    DispatchFrame(conn, payload);
  }
  if (conn.inpos > 0) {
    conn.inbuf.erase(0, conn.inpos);
    conn.inpos = 0;
  }
  FlushConn(conn);
}

void EventLoop::DispatchFrame(Conn& conn, std::string_view payload) {
  const std::uint64_t slot = conn.base_slot + conn.pending.size();
  // Every frame gets a trace (the dispatcher fills in the client's id if
  // the frame carries one); recording never touches the reply bytes.
  obs::TracePtr trace = obs::StartTrace();
  trace->Record(obs::Span::kSocketRead, conn.last_read_us);
  Counters().socket_read_us.Observe(
      static_cast<std::uint64_t>(conn.last_read_us));
  conn.pending.push_back(Conn::PendingSlot{std::nullopt, trace});
  ++conn.in_flight;
  stats_.served_frames.fetch_add(1, std::memory_order_relaxed);
  Counters().served_frames.Inc();

  bool shutdown = false;
  const std::shared_ptr<CompletionQueue> queue = queue_;
  const std::uint64_t id = conn.id;
  SyncReply sync{id, slot, std::nullopt};
  sync_reply = &sync;
  const auto dispatch_start = std::chrono::steady_clock::now();
  dispatcher_.HandleFrame(payload, conn.session, &shutdown,
                          [queue, id, slot](std::string reply) {
                            SyncReply* target = sync_reply;
                            if (target != nullptr && target->conn_id == id &&
                                target->slot == slot) {
                              target->reply.emplace(std::move(reply));
                              return;
                            }
                            queue->Post({id, slot, std::move(reply)});
                          },
                          trace);
  const std::int64_t dispatch_us = MicrosSince(dispatch_start);
  sync_reply = nullptr;
  trace->Record(obs::Span::kDispatch, dispatch_us);
  Counters().dispatch_us.Observe(static_cast<std::uint64_t>(dispatch_us));
  if (sync.reply.has_value()) {
    // Answered during HandleFrame: the FlushConn that ends ParseFrames
    // sends it, with no completion-queue round trip.
    conn.pending.back().reply = std::move(sync.reply);
    --conn.in_flight;
  }
  if (shutdown) {
    // Serve the ShutdownReply, then drain the whole loop.
    conn.stop_reading = true;
    conn.close_after_flush = true;
    stop_requested_.store(true, std::memory_order_relaxed);
  }
}

void EventLoop::FlushConn(Conn& conn) {
  // Frame the contiguous ready prefix into the output buffer.
  while (!conn.pending.empty() && conn.pending.front().reply.has_value()) {
    Conn::PendingSlot& slot = conn.pending.front();
    const std::string& reply = *slot.reply;
    ByteWriter w(&conn.outbuf);
    w.U32(static_cast<std::uint32_t>(reply.size()));
    conn.outbuf.append(reply);
    conn.queued_bytes += 4 + reply.size();
    if (slot.trace) {
      conn.writes.push_back(Conn::InFlightWrite{
          conn.queued_bytes, std::chrono::steady_clock::now(),
          std::move(slot.trace)});
    }
    conn.pending.pop_front();
    ++conn.base_slot;
  }
  // Write as much as the socket accepts right now.
  while (conn.outpos < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.outpos,
               conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outpos += static_cast<std::size_t>(n);
      conn.flushed_bytes += static_cast<std::uint64_t>(n);
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConn(conn.id);  // Peer reset; replies are undeliverable.
    return;
  }
  // Traces whose reply has fully reached the socket are done: stamp the
  // socket-write span (framed -> sent) and retire them to the ring.
  while (!conn.writes.empty() &&
         conn.writes.front().end_offset <= conn.flushed_bytes) {
    Conn::InFlightWrite& done = conn.writes.front();
    const std::int64_t write_us = MicrosSince(done.framed_at);
    done.trace->Record(obs::Span::kSocketWrite, write_us);
    Counters().socket_write_us.Observe(static_cast<std::uint64_t>(write_us));
    obs::FinishTrace(*done.trace);
    conn.writes.pop_front();
  }
  if (conn.outpos == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outpos = 0;
  } else if (conn.outpos > (1u << 20)) {
    conn.outbuf.erase(0, conn.outpos);
    conn.outpos = 0;
  }
  ArmWrite(conn, conn.outpos < conn.outbuf.size());
  CloseIfDone(conn);
}

void EventLoop::HandleWritable(Conn& conn) { FlushConn(conn); }

bool EventLoop::CloseIfDone(Conn& conn) {
  const bool idle = conn.pending.empty() && conn.in_flight == 0 &&
                    conn.outbuf.empty();
  if (!idle) return false;
  if (conn.close_after_flush || conn.peer_half_closed || draining_) {
    CloseConn(conn.id);
    return true;
  }
  return false;
}

void EventLoop::CloseConn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  // The Conn destructor closes the fd, which also deregisters it from
  // epoll; in-flight completions for this id are dropped on arrival.
  conns_.erase(it);
}

void EventLoop::ArmWrite(Conn& conn, bool want) {
  if (conn.want_write == want) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.want_write = want;
  }
}

void EventLoop::BeginDrain() {
  draining_ = true;
  drain_deadline_ =
      std::chrono::steady_clock::now() + options_.drain_timeout;
  // Refuse new clients immediately; the bound port frees here, not at
  // object destruction.
  if (listener_.fd() >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
  }
  listener_.Close();
  // Existing clients: finish what is in flight, flush, then close.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    conn->stop_reading = true;
    conn->close_after_flush = true;
    ids.push_back(id);
  }
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it != conns_.end()) CloseIfDone(*it->second);
  }
}

void EventLoop::ReapIdle() {
  if (options_.idle_timeout.count() <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> reap;
  for (const auto& [id, conn] : conns_) {
    // Never reap a connection the server still owes bytes: in-flight work
    // and unflushed output reset the clock's meaning, not the peer.
    if (conn->in_flight > 0 || !conn->pending.empty() ||
        !conn->outbuf.empty()) {
      continue;
    }
    if (now - conn->last_activity > options_.idle_timeout) {
      reap.push_back(id);
    }
  }
  for (const std::uint64_t id : reap) {
    stats_.reaped_idle.fetch_add(1, std::memory_order_relaxed);
    Counters().reaped_idle.Inc();
    CloseConn(id);
  }
}

}  // namespace privtree::server
