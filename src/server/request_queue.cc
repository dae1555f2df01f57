#include "server/request_queue.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace privtree::server {

namespace {

// The requests waiting in every engine's queue, summed over the process.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("engine.queue_depth");
  return g;
}

}  // namespace

RequestQueue::RequestQueue(std::size_t max_depth)
    : max_depth_(std::max<std::size_t>(max_depth, 1)) {}

bool RequestQueue::TryPush(QueuedRequest& request) {
  MutexLock lk(mu_);
  if (queue_.size() >= max_depth_) return false;
  queue_.push_back(std::move(request));
  QueueDepthGauge().Add(1);
  return true;
}

bool RequestQueue::TryPop(QueuedRequest* request) {
  MutexLock lk(mu_);
  if (queue_.empty()) return false;
  *request = std::move(queue_.front());
  queue_.pop_front();
  QueueDepthGauge().Sub(1);
  return true;
}

std::size_t RequestQueue::depth() const {
  MutexLock lk(mu_);
  return queue_.size();
}

}  // namespace privtree::server
