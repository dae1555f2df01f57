// Per-request tracing: a TraceContext follows one frame from socket read
// to socket write and records how long each pipeline stage took.
//
// The trace id is a u64 carried in the optional protocol-v5 kTraced frame
// header; when a client does not send one, the server generates a
// process-unique id so every request is still traceable in logs.  Spans
// are recorded as microsecond durations; a span the request never reached
// stays -1 (e.g. kKernel for a Fit, or everything past kAdmission for a
// shed request).
//
// Finished traces land in a fixed-capacity ring (TraceRing::Global()) for
// post-hoc inspection from tests and the slow-request log: when a
// request's total time crosses the --trace-slow-ms threshold, the full
// span breakdown is printed to stderr.  Finishing also feeds the
// "server.request_us" registry histogram, so GetStats snapshots carry the
// end-to-end latency distribution with zero extra bookkeeping.
#ifndef PRIVTREE_OBS_TRACE_H_
#define PRIVTREE_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sync.h"

namespace privtree::obs {

enum class Span : unsigned {
  kSocketRead = 0,  // recv() until the frame was fully buffered
  kDispatch,        // frame decode + handler dispatch
  kAdmission,       // admission control decision (shed/coalesce/admit)
  kQueueWait,       // sitting in the engine queue before a worker ran it
  kFit,             // synopsis fit or cache lookup (see cache_hit)
  kKernel,          // batch-query kernel execution
  kSerialize,       // reply encoding
  kSocketWrite,     // reply framed until the last byte hit the socket
  kCount,
};

inline constexpr std::size_t kSpanCount =
    static_cast<std::size_t>(Span::kCount);

const char* SpanName(Span span);

struct TraceContext {
  TraceContext() { span_us.fill(-1); }

  void Record(Span span, std::int64_t us) {
    span_us[static_cast<std::size_t>(span)] = us;
  }

  std::int64_t span(Span s) const {
    return span_us[static_cast<std::size_t>(s)];
  }

  std::uint64_t trace_id = 0;
  /// True when the id arrived in a kTraced header rather than being
  /// generated server-side.
  bool client_supplied_id = false;
  /// True when the fit stage was answered from the synopsis cache.
  bool cache_hit = false;
  std::array<std::int64_t, kSpanCount> span_us;
  std::int64_t total_us = -1;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
};

using TracePtr = std::shared_ptr<TraceContext>;

/// A process-unique, never-zero trace id (SplitMix64-whitened sequence).
std::uint64_t NextTraceId();

/// New heap trace; id 0 means "generate one".
TracePtr StartTrace(std::uint64_t id = 0);

/// One line per span, e.g. for the slow-request log:
///   trace=0x1234 total=132.4ms cache_miss socket_read=0.1ms ...
std::string FormatTrace(const TraceContext& trace);

/// Fixed-capacity ring of recently finished traces plus the slow-request
/// threshold.  All methods are thread-safe.
class TraceRing {
 public:
  static TraceRing& Global();

  void SetCapacity(std::size_t n);
  /// Requests slower than this print FormatTrace to stderr; 0 disables.
  void SetSlowThresholdMillis(std::int64_t ms);
  std::int64_t slow_threshold_millis() const;

  void Push(const TraceContext& trace);
  std::vector<TraceContext> Recent() const;
  /// Total traces finished since start (or Reset), beyond ring capacity.
  std::uint64_t finished() const;
  void Reset();

 private:
  TraceRing();

  mutable Mutex mu_;
  std::vector<TraceContext> ring_ GUARDED_BY(mu_);
  std::size_t capacity_ GUARDED_BY(mu_);
  std::size_t next_ GUARDED_BY(mu_) = 0;
  std::uint64_t finished_ GUARDED_BY(mu_) = 0;
  std::int64_t slow_threshold_ms_ GUARDED_BY(mu_) = 0;
};

/// Stamps total_us from trace.start, records "server.request_us", pushes
/// onto the global ring, and emits the slow-request log line if due.
void FinishTrace(TraceContext& trace);

}  // namespace privtree::obs

#endif  // PRIVTREE_OBS_TRACE_H_
