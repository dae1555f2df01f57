// A bounded FIFO of admitted-but-not-yet-executed serving requests.
//
// The queue is the backpressure point of the async engine: TryPush refuses
// (instead of blocking or growing) once `max_depth` requests are waiting,
// which is what lets the AdmissionController shed load with a clean
// Unavailable error instead of queueing unboundedly.  Each entry carries
// its deadline plus two continuations — `run` executes the request,
// `expire` resolves its future with an error — so the popping executor can
// retire an expired request without ever running it.  The process-wide
// `engine.queue_depth` gauge follows every push and pop.
#ifndef PRIVTREE_SERVER_REQUEST_QUEUE_H_
#define PRIVTREE_SERVER_REQUEST_QUEUE_H_

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>

#include "core/sync.h"
#include "dp/status.h"
#include "server/request.h"

namespace privtree::server {

/// One admitted request, ready to execute or expire.
struct QueuedRequest {
  DeadlineClock::time_point deadline = kNoDeadline;
  std::function<void()> run;            ///< Executes and resolves the future.
  std::function<void(Status)> expire;   ///< Resolves the future with an error.
};

/// Thread-safe bounded FIFO.  Requests must not throw.
class RequestQueue {
 public:
  /// Holds at most `max_depth` pending requests (0 is clamped to 1).
  explicit RequestQueue(std::size_t max_depth);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Enqueues at the back; false (leaving `request` untouched) when full.
  bool TryPush(QueuedRequest& request);

  /// Dequeues the oldest request; false when empty.
  bool TryPop(QueuedRequest* request);

  std::size_t depth() const;
  std::size_t max_depth() const { return max_depth_; }

 private:
  const std::size_t max_depth_;
  mutable Mutex mu_;
  std::deque<QueuedRequest> queue_ GUARDED_BY(mu_);
};

}  // namespace privtree::server

#endif  // PRIVTREE_SERVER_REQUEST_QUEUE_H_
