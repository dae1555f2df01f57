// The asynchronous serving engine: a bounded request queue with completion
// futures, layered over the shared ThreadPool and SynopsisCache.
//
// One engine binds one dataset — spatial points with their declared
// domain, or a symbol-sequence dataset — and serves many concurrent
// clients.  Every request carries a fit: a Fit (no queries, answered with
// the release's metadata), a box or sequence query batch (answered with
// one double per query), or a Warm fit nobody waits on.  Each takes one
// path: Prepare validates and keys the spec once, Submit passes admission
// control, enqueues the request and returns a Future the caller redeems
// whenever it likes, and one pool-task body runs it — the `engine.fit`
// fault point, the watchdog, the fit through the cache (identical
// in-flight fits collapse onto the cache's single-flight path and are
// counted as coalesced by the AdmissionController), the queue-wait and fit
// spans, and, for a batch, the kernel.  The one exception is a batch of
// exactly one box whose release is already cached and small enough that
// the box's worst case costs about the pool hop: it is answered on the
// calling thread before Submit returns (it never fits there, takes no
// queue slot and is never shed).  Answers are bit-for-bit the answers an
// in-process ReleaseSession with the same seed would produce, because the
// fit path *is* the ParallelRunner fit path (serve::FitSynopsis) and
// queries are pure post-processing.
//
// Overload never queues unboundedly: a full queue or a saturated cache
// writer sheds the request immediately with Status::Unavailable, and a
// request whose deadline passes while it waits is retired with
// Status::DeadlineExceeded without ever executing.
//
// Warm() is the served prefetch path: feed it the fit specs of an observed
// workload (e.g. a replayed request log) and it fills the cache through
// the same admission-controlled queue and body, so a warmup burst cannot
// starve live traffic past the queue bound.
#ifndef PRIVTREE_SERVER_ASYNC_ENGINE_H_
#define PRIVTREE_SERVER_ASYNC_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/sync.h"
#include "dp/status.h"
#include "obs/trace.h"
#include "release/dataset.h"
#include "release/method.h"
#include "release/sequence_query.h"
#include "serve/parallel_runner.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/admission.h"
#include "server/future.h"
#include "server/request.h"
#include "server/request_queue.h"
#include "spatial/box.h"
#include "spatial/point_set.h"

namespace privtree::server {

struct EngineOptions {
  AdmissionOptions admission;
  /// Watchdog scan interval.  A request whose deadline passes while it is
  /// *executing* (a stuck or fault-delayed fit) has its future settled with
  /// DeadlineExceeded by a background watchdog thread instead of wedging
  /// the caller's reply slot forever; the execution itself still runs to
  /// completion (its late result is discarded).  0 disables the watchdog.
  std::uint64_t watchdog_poll_millis = 50;
};

/// A spec that passed the registry's screen (MethodRegistry::CheckFit) for
/// the served dataset, with the cache key it maps to: what a session is
/// charged on and what Submit runs.
struct PreparedSpec {
  FitSpec spec;
  serve::SynopsisKey key;
};

/// One engine per served dataset; safe to call from any number of threads.
class AsyncEngine {
 public:
  /// Everything the engine serves about one dataset and its load state, for
  /// in-process stats (tests, the server's shutdown summary).
  struct StatsSnapshot {
    std::size_t queue_depth = 0;
    std::size_t queue_max_depth = 0;
    /// Running requests the watchdog failed with DeadlineExceeded.
    std::size_t watchdog_fired = 0;
    AdmissionController::Stats admission;
    serve::SynopsisCache::Stats cache;
  };

  /// General form: one engine per served dataset of either kind.  The data
  /// `data` views, `pool` and `cache` must outlive the engine.
  AsyncEngine(release::Dataset data, serve::ThreadPool& pool,
              serve::SynopsisCache& cache, EngineOptions options = {});

  /// Spatial convenience: `points` must outlive the engine.  The domain is
  /// declared by the caller, exactly as in ReleaseSession.
  AsyncEngine(const PointSet& points, Box domain, serve::ThreadPool& pool,
              serve::SynopsisCache& cache, EngineOptions options = {});

  /// Blocks until every outstanding request has resolved.
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Screens `spec` against the served dataset and keys it (KeyFor): the
  /// one check and the one key a request gets.  The screen is
  /// release::MethodRegistry::CheckFit, the one the CLI runs too, so a
  /// hostile socket client never reaches a fitter's aborting contract
  /// check or exhausts the server's memory.  The dispatcher charges the
  /// session on the key, then hands the prepared spec to Submit.
  Result<PreparedSpec> Prepare(FitSpec spec) const;

  /// Runs one prepared request.  A Fit fits (or re-serves from cache) the
  /// release and resolves with its metadata; a batch answers `queries`
  /// against the release, fitting it first if the cache does not hold it.
  /// Boxes must have the dataset's dim and need a spatial served dataset;
  /// sequence queries need a sequence dataset and are screened against the
  /// served alphabet (ValidateSequenceQuery), so a hostile spec resolves
  /// with a clean InvalidArgument.  Shed and screened-out requests resolve
  /// immediately with a non-OK status; one box against a small cached
  /// release resolves before this returns (see the file comment);
  /// everything else runs on the pool.
  ///
  /// `trace` (optional) receives the admission, queue-wait, fit, and (for
  /// a batch) kernel span timings; the same durations feed the registry's
  /// "engine.*_us" histograms whether or not a trace rides along.
  /// Instrumentation never touches the answer path.
  Future<FitResponse> Submit(PreparedSpec prepared,
                             DeadlineClock::time_point deadline = kNoDeadline,
                             obs::TracePtr trace = {});
  Future<QueryBatchResponse> Submit(
      PreparedSpec prepared, std::vector<Box> queries,
      DeadlineClock::time_point deadline = kNoDeadline,
      obs::TracePtr trace = {});
  Future<QueryBatchResponse> Submit(
      PreparedSpec prepared, std::vector<release::SequenceQuery> queries,
      DeadlineClock::time_point deadline = kNoDeadline,
      obs::TracePtr trace = {});

  /// Prepare, then Submit; an invalid spec resolves immediately.
  Future<FitResponse> SubmitFit(
      const FitSpec& spec,
      DeadlineClock::time_point deadline = kNoDeadline,
      obs::TracePtr trace = {});
  Future<QueryBatchResponse> SubmitQueryBatch(
      const FitSpec& spec, std::vector<Box> queries,
      DeadlineClock::time_point deadline = kNoDeadline,
      obs::TracePtr trace = {});
  Future<QueryBatchResponse> SubmitSeqQueryBatch(
      const FitSpec& spec, std::vector<release::SequenceQuery> queries,
      DeadlineClock::time_point deadline = kNoDeadline,
      obs::TracePtr trace = {});

  /// Cache warming from an observed workload: submits a Fit that nobody
  /// waits on per not-yet-cached spec and returns how many were admitted
  /// (invalid, shed, and already-cached specs are skipped).
  /// Fire-and-forget; redeem progress via Stats().
  std::size_t Warm(std::span<const FitSpec> specs);

  StatsSnapshot Stats() const;

  const release::Dataset& data() const { return data_; }
  /// Spatial accessors; abort on sequence engines (kept for the many
  /// spatial call sites).
  const PointSet& points() const { return data_.points(); }
  const Box& domain() const { return data_.domain(); }
  std::uint64_t dataset_fingerprint() const { return dataset_fingerprint_; }
  serve::ThreadPool& pool() const { return pool_; }
  serve::SynopsisCache& cache() const { return cache_; }
  AdmissionController& admission() { return admission_; }

  /// The cache key / fit job a spec maps to (exposed for tests and the
  /// coalescing bookkeeping; the rng derivation matches ReleaseSession).
  serve::SynopsisKey KeyFor(const FitSpec& spec) const;
  static serve::FitJob JobFor(const FitSpec& spec);

 private:
  /// A Fit's query type: a Fit carries no queries.
  struct NoQuery {};

  /// What a request of query type Query resolves with.
  template <typename Query>
  using ResponseTo = std::conditional_t<std::is_same_v<Query, NoQuery>,
                                        FitResponse, QueryBatchResponse>;

  /// One request as its body needs it, on whichever thread runs it.
  template <typename Query>
  struct Job;

  /// Pool task body: pop one request, expire or run it.
  void RunOne();

  /// Admits a prepared request with a fresh promise and returns its
  /// future; an invalid spec (a failed Prepare) resolves it at once.
  template <typename Query>
  Future<ResponseTo<Query>> Start(Result<PreparedSpec> prepared,
                                  std::vector<Query> queries,
                                  DeadlineClock::time_point deadline,
                                  obs::TracePtr trace);

  /// The one submission body: screens the queries, answers an
  /// InlineEligible batch on a cached release right here, and admits and
  /// queues everything else; `promise` settles with the answer or the
  /// refusal.  True when the request was admitted.
  template <typename Query>
  bool Admit(Job<Query> job, DeadlineClock::time_point deadline,
             Promise<ResponseTo<Query>> promise);

  /// Non-OK when `queries` cannot be asked of the served dataset.
  template <typename Query>
  Status Screen(const std::vector<Query>& queries) const;

  /// Whether `queries` against the cached `resident` are answered on the
  /// caller's thread: exactly one box whose worst case fits the inline work
  /// budget (see async_engine.cc).  Sequence batches never are.
  template <typename Query>
  static bool InlineEligible(const std::vector<Query>& queries,
                             const release::Method& resident);

  /// The one execution body, for the pool task and the inline branch
  /// alike (each records its queue wait first): takes the release from
  /// `resident` when non-null, else from FitSynopsis (a fit or a cache
  /// hit), then records the fit span and answers a Fit with the release's
  /// metadata or a batch's queries (kernel span).  Ends watch `watch` (0:
  /// none) once the release is fitted, so the watchdog guards the fit, not
  /// the kernel; when the watchdog has already answered, it returns
  /// without touching the trace or running the kernel.
  template <typename Query>
  ResponseTo<Query> RunJob(const Job<Query>& job,
                           std::shared_ptr<const release::Method> resident,
                           std::uint64_t watch);

  /// Registers an *executing* request with the watchdog: if `deadline`
  /// passes before EndWatch, the watchdog runs `fail` (which settles the
  /// request's promise with DeadlineExceeded; the promise wrapper makes a
  /// later Set from the still-running executor a no-op).  Returns 0 (no
  /// watch) when the watchdog is disabled or the deadline is kNoDeadline.
  std::uint64_t BeginWatch(DeadlineClock::time_point deadline,
                           std::function<void()> fail) EXCLUDES(watch_mu_);
  /// Ends watch `id`: true when the request is still the executor's to
  /// answer (no watch, or the watchdog has not fired), false when the
  /// watchdog already failed it.
  bool EndWatch(std::uint64_t id) EXCLUDES(watch_mu_);
  void RunWatchdog(std::uint64_t poll_millis) EXCLUDES(watch_mu_);

  /// Admission + enqueue for one queued request; on success schedules a
  /// pool task and returns OK.  On failure the caller resolves the future
  /// with the returned status.  `needs_fit` is false when a batch's key is
  /// already cached (it skips the fit-load gate then).  `trace` receives
  /// the admission-decision span when non-null.
  Status Enqueue(QueuedRequest& request, bool needs_fit,
                 const obs::TracePtr& trace = {});

  const release::Dataset data_;
  serve::ThreadPool& pool_;
  serve::SynopsisCache& cache_;
  const std::uint64_t dataset_fingerprint_;
  AdmissionController admission_;
  RequestQueue queue_;

  struct Watched {
    DeadlineClock::time_point deadline;
    std::function<void()> fail;
  };
  mutable Mutex watch_mu_;
  CondVar watch_cv_;
  std::map<std::uint64_t, Watched> watched_ GUARDED_BY(watch_mu_);
  std::uint64_t next_watch_id_ GUARDED_BY(watch_mu_) = 0;
  std::size_t watchdog_fired_ GUARDED_BY(watch_mu_) = 0;
  bool stop_watchdog_ GUARDED_BY(watch_mu_) = false;
  std::thread watchdog_;
};

}  // namespace privtree::server

#endif  // PRIVTREE_SERVER_ASYNC_ENGINE_H_
