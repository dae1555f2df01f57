#include "server/async_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "dp/check.h"
#include "dp/rng.h"
#include "obs/metrics.h"
#include "release/registry.h"

namespace privtree::server {

namespace {

/// An upper bound on the work one box query costs against a release with
/// `meta`, in coordinate reads.  A flat grid (height 0) answers from its
/// prefix-sum lattice in 4^d reads whatever its size; a tree or hierarchy
/// may visit every one of its nodes, d coordinates each.
std::size_t WorstCaseBoxWork(const release::MethodMetadata& meta) {
  if (meta.height != 0) return meta.synopsis_size * meta.dim;
  return meta.dim < 32 ? std::size_t{1} << (2 * meta.dim)
                       : std::numeric_limits<std::size_t>::max();
}

// The work budget of a box answered on the caller's thread.  On a 4-core
// x86-64 VM, the costliest of 60 slab and near-domain boxes against every
// spatial method, at 2-8 dims, took at most 12 µs within this budget (a
// 5-D wavelet grid; trees at most 3.2 µs): about the 9 µs the pool hop
// costs that thread, so an inline box never holds it much longer than the
// hop would.  Past the budget a box takes the pool: one 8-D box on a
// 66k-node privtree took 2.3-3.4 ms.
constexpr std::size_t kInlineBoxWork = 1024;

// Registry handles resolved once per process; recording through them is
// lock-free.  Every engine shares these (the names are per-process, like
// the cache the engines share).
obs::Histogram& QueueWaitHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("engine.queue_wait_us");
  return h;
}

obs::Histogram& FitHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("engine.fit_us");
  return h;
}

obs::Histogram& KernelHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("engine.kernel_us");
  return h;
}

obs::Histogram& AdmissionHistogram() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("engine.admission_us");
  return h;
}

obs::Counter& InlineRequestsCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("engine.inline_requests");
  return c;
}

obs::Counter& WatchdogFiredCounter() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("engine.watchdog_fired");
  return c;
}

std::uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

/// Feeds one request's queue wait to the histogram and to `trace` when
/// non-null.  A queued request records it before its watchdog watch
/// begins: the watch's lock orders the write before any reply the watchdog
/// sends, which finishes the trace.
void RecordQueueWait(const obs::TracePtr& trace, std::uint64_t us) {
  QueueWaitHistogram().Observe(us);
  if (trace) trace->Record(obs::Span::kQueueWait, us);
}

/// Feeds one admission decision, timed from `start`, to the histogram and
/// to `trace` when non-null.
void RecordAdmission(const obs::TracePtr& trace,
                     std::chrono::steady_clock::time_point start) {
  const std::uint64_t us = MicrosSince(start);
  AdmissionHistogram().Observe(us);
  if (trace) trace->Record(obs::Span::kAdmission, us);
}

/// A Promise whose Set is idempotent: the watchdog and the (possibly still
/// running) executor can race to settle one request, and only the first
/// settle lands — Promise::Set itself must be called at most once.
template <typename T>
struct SettleOnce {
  explicit SettleOnce(Promise<T> p) : promise(std::move(p)) {}

  void Set(T value) {
    if (!settled.exchange(true, std::memory_order_acq_rel)) {
      promise.Set(std::move(value));
    }
  }

  Promise<T> promise;
  std::atomic<bool> settled{false};
};

}  // namespace

AsyncEngine::AsyncEngine(release::Dataset data, serve::ThreadPool& pool,
                         serve::SynopsisCache& cache, EngineOptions options)
    : data_(std::move(data)),
      pool_(pool),
      cache_(cache),
      dataset_fingerprint_(data_.Fingerprint()),
      admission_(options.admission, &cache),
      queue_(options.admission.max_queue_depth) {
  if (options.watchdog_poll_millis > 0) {
    watchdog_ = std::thread(&AsyncEngine::RunWatchdog, this,
                            options.watchdog_poll_millis);
  }
}

AsyncEngine::AsyncEngine(const PointSet& points, Box domain,
                         serve::ThreadPool& pool, serve::SynopsisCache& cache,
                         EngineOptions options)
    : AsyncEngine(release::Dataset(points, std::move(domain)), pool, cache,
                  options) {}

AsyncEngine::~AsyncEngine() {
  // Queued requests capture `this`; do not let them outlive the engine.
  pool_.WaitIdle();
  if (watchdog_.joinable()) {
    {
      MutexLock lk(watch_mu_);
      stop_watchdog_ = true;
    }
    watch_cv_.NotifyAll();
    watchdog_.join();
  }
}

std::uint64_t AsyncEngine::BeginWatch(DeadlineClock::time_point deadline,
                                      std::function<void()> fail) {
  if (!watchdog_.joinable() || deadline == kNoDeadline) return 0;
  MutexLock lk(watch_mu_);
  const std::uint64_t id = ++next_watch_id_;
  watched_.emplace(id, Watched{deadline, std::move(fail)});
  return id;
}

bool AsyncEngine::EndWatch(std::uint64_t id) {
  if (id == 0) return true;
  MutexLock lk(watch_mu_);
  return watched_.erase(id) == 1;
}

void AsyncEngine::RunWatchdog(std::uint64_t poll_millis) {
  MutexLock lk(watch_mu_);
  while (!stop_watchdog_) {
    watch_cv_.WaitFor(lk, std::chrono::milliseconds(poll_millis));
    if (stop_watchdog_) return;
    const DeadlineClock::time_point now = DeadlineClock::now();
    std::vector<std::function<void()>> fired;
    for (auto it = watched_.begin(); it != watched_.end();) {
      if (now > it->second.deadline) {
        fired.push_back(std::move(it->second.fail));
        it = watched_.erase(it);
      } else {
        ++it;
      }
    }
    if (fired.empty()) continue;
    watchdog_fired_ += fired.size();
    WatchdogFiredCounter().Inc(fired.size());
    lk.Unlock();  // Settling runs OnReady callbacks; never under watch_mu_.
    for (const auto& fail : fired) fail();
    lk.Lock();
  }
}

serve::FitJob AsyncEngine::JobFor(const FitSpec& spec) {
  // The exact ReleaseSession derivation: the session seeds Rng(seed) and
  // each release consumes one Fork() — so a served answer is the answer an
  // in-process session with the same seed would have produced.
  Rng session_rng(spec.seed);
  return {spec.method, spec.options, spec.epsilon, session_rng.Fork()};
}

serve::SynopsisKey AsyncEngine::KeyFor(const FitSpec& spec) const {
  return {dataset_fingerprint_, spec.method,
          serve::CanonicalOptionsText(spec.method, spec.options),
          spec.epsilon, JobFor(spec).rng.Fingerprint()};
}

Status AsyncEngine::Enqueue(QueuedRequest& request, bool needs_fit,
                            const obs::TracePtr& trace) {
  const auto start = std::chrono::steady_clock::now();
  const auto stamp = [&] { RecordAdmission(trace, start); };
  if (needs_fit) {
    if (Status admitted = admission_.AdmitFitLoad(); !admitted.ok()) {
      stamp();
      return admitted;
    }
  }
  if (!queue_.TryPush(request)) {
    admission_.NoteQueueFull();
    stamp();
    return Status::Unavailable(
               "request queue full (" + std::to_string(queue_.max_depth()) +
               " pending); retry later")
        .WithRetryAfter(admission_.options().retry_after_millis);
  }
  admission_.NoteAdmitted();
  stamp();
  pool_.Submit([this] { RunOne(); });
  return Status::OK();
}

void AsyncEngine::RunOne() {
  QueuedRequest request;
  if (!queue_.TryPop(&request)) return;
  if (DeadlineClock::now() > request.deadline) {
    admission_.NoteExpired();
    request.expire(
        Status::DeadlineExceeded("deadline passed while queued; not run"));
    return;
  }
  request.run();
}

Result<PreparedSpec> AsyncEngine::Prepare(FitSpec spec) const {
  // The screen precedes the key: canonicalizing the options of an
  // unregistered method is a contract violation.
  if (Status valid = release::GlobalMethodRegistry().CheckFit(
          spec.method, spec.options, spec.epsilon, data_.kind(), data_.dim());
      !valid.ok()) {
    return valid;
  }
  serve::SynopsisKey key = KeyFor(spec);
  return PreparedSpec{std::move(spec), std::move(key)};
}

template <typename Query>
struct AsyncEngine::Job {
  PreparedSpec prepared;
  std::vector<Query> queries;
  obs::TracePtr trace;
  /// Counts as fit load: a Fit always, a batch only when its release was
  /// not cached at admission.
  bool needs_fit = true;
};

Future<FitResponse> AsyncEngine::Submit(PreparedSpec prepared,
                                        DeadlineClock::time_point deadline,
                                        obs::TracePtr trace) {
  return Start<NoQuery>(std::move(prepared), {}, deadline, std::move(trace));
}

Future<QueryBatchResponse> AsyncEngine::Submit(
    PreparedSpec prepared, std::vector<Box> queries,
    DeadlineClock::time_point deadline, obs::TracePtr trace) {
  return Start<Box>(std::move(prepared), std::move(queries), deadline,
                    std::move(trace));
}

Future<QueryBatchResponse> AsyncEngine::Submit(
    PreparedSpec prepared, std::vector<release::SequenceQuery> queries,
    DeadlineClock::time_point deadline, obs::TracePtr trace) {
  return Start<release::SequenceQuery>(std::move(prepared), std::move(queries),
                                       deadline, std::move(trace));
}

Future<FitResponse> AsyncEngine::SubmitFit(const FitSpec& spec,
                                           DeadlineClock::time_point deadline,
                                           obs::TracePtr trace) {
  return Start<NoQuery>(Prepare(spec), {}, deadline, std::move(trace));
}

Future<QueryBatchResponse> AsyncEngine::SubmitQueryBatch(
    const FitSpec& spec, std::vector<Box> queries,
    DeadlineClock::time_point deadline, obs::TracePtr trace) {
  return Start(Prepare(spec), std::move(queries), deadline, std::move(trace));
}

Future<QueryBatchResponse> AsyncEngine::SubmitSeqQueryBatch(
    const FitSpec& spec, std::vector<release::SequenceQuery> queries,
    DeadlineClock::time_point deadline, obs::TracePtr trace) {
  return Start(Prepare(spec), std::move(queries), deadline, std::move(trace));
}

std::size_t AsyncEngine::Warm(std::span<const FitSpec> specs) {
  std::size_t accepted = 0;
  for (const FitSpec& spec : specs) {
    Result<PreparedSpec> prepared = Prepare(spec);
    if (!prepared.ok()) continue;
    if (cache_.Lookup(prepared.value().key) != nullptr) continue;  // Warm.
    // A Fit nobody waits on: its promise settles unobserved.
    if (Admit<NoQuery>({std::move(prepared).value(), {}, {}}, kNoDeadline,
                       Promise<FitResponse>())) {
      ++accepted;
    }
  }
  return accepted;
}

template <typename Query>
Future<AsyncEngine::ResponseTo<Query>> AsyncEngine::Start(
    Result<PreparedSpec> prepared, std::vector<Query> queries,
    DeadlineClock::time_point deadline, obs::TracePtr trace) {
  Promise<ResponseTo<Query>> promise;
  Future<ResponseTo<Query>> future = promise.future();
  if (!prepared.ok()) {
    promise.Set({prepared.status(), {}, false});
  } else {
    Admit<Query>(
        {std::move(prepared).value(), std::move(queries), std::move(trace)},
        deadline, std::move(promise));
  }
  return future;
}

template <typename Query>
Status AsyncEngine::Screen(const std::vector<Query>& queries) const {
  if constexpr (std::is_same_v<Query, Box>) {
    // Prepare already rejects spatial methods on a sequence engine,
    // but box queries carry their own shape; keep the message direct.
    if (!data_.is_spatial()) {
      return Status::InvalidArgument(
          "box query batches need a spatial served dataset; this server "
          "serves sequence data (use SeqQueryBatch)");
    }
    for (const Box& q : queries) {
      if (q.dim() != data_.dim()) {
        return Status::InvalidArgument(
            "query box dim " + std::to_string(q.dim()) + " != serving dim " +
            std::to_string(data_.dim()));
      }
    }
  } else if constexpr (std::is_same_v<Query, release::SequenceQuery>) {
    if (!data_.is_sequence()) {
      return Status::InvalidArgument(
          "sequence query batches need a sequence served dataset; this "
          "server serves spatial data");
    }
    for (const release::SequenceQuery& q : queries) {
      if (Status screened = release::ValidateSequenceQuery(q, data_.dim());
          !screened.ok()) {
        return screened;
      }
    }
  }
  return Status::OK();
}

template <typename Query>
bool AsyncEngine::Admit(Job<Query> job, DeadlineClock::time_point deadline,
                        Promise<ResponseTo<Query>> promise) {
  constexpr bool kFit = std::is_same_v<Query, NoQuery>;
  if (Status screened = Screen(job.queries); !screened.ok()) {
    promise.Set({std::move(screened), {}, false});
    return false;
  }
  if constexpr (!kFit) {
    const auto admission_start = std::chrono::steady_clock::now();
    // A box whose worst case costs about the pool hop is answered right
    // here when its release is cached.  The answer comes from the very
    // synopsis the lookup found: a concurrent eviction cannot turn this
    // into a fit on the caller's thread.
    std::shared_ptr<const release::Method> resident =
        cache_.Lookup(job.prepared.key);
    // Queries against a cached synopsis bypass the fit-load gate (they
    // cost no fit); only a query that must fit first counts as fit load.
    job.needs_fit = resident == nullptr;
    if (resident != nullptr && InlineEligible(job.queries, *resident)) {
      cache_.NoteHit();  // The hit FitSynopsis would have counted.
      admission_.NoteAdmitted();
      InlineRequestsCounter().Inc();
      RecordAdmission(job.trace, admission_start);
      if (DeadlineClock::now() > deadline) {
        admission_.NoteExpired();
        promise.Set({Status::DeadlineExceeded("deadline passed before the "
                                              "request ran; not run"),
                     {},
                     false});
      } else {
        RecordQueueWait(job.trace, 0);
        promise.Set(RunJob(job, std::move(resident), /*watch=*/0));
      }
      return true;
    }
  }

  if (job.needs_fit) admission_.BeginFit(job.prepared.key);
  auto shared =
      std::make_shared<SettleOnce<ResponseTo<Query>>>(std::move(promise));
  auto queued = std::make_shared<const Job<Query>>(std::move(job));
  QueuedRequest request;
  request.deadline = deadline;
  request.expire = [this, shared, queued](Status status) {
    if (queued->needs_fit) admission_.EndFit(queued->prepared.key);
    shared->Set({std::move(status), {}, false});
  };
  const auto submitted = std::chrono::steady_clock::now();
  request.run = [this, shared, queued, deadline, submitted] {
    RecordQueueWait(queued->trace, MicrosSince(submitted));
    const std::uint64_t watch = BeginWatch(deadline, [shared] {
      shared->Set({Status::DeadlineExceeded(
                       kFit ? "deadline passed while the fit was running"
                            : "deadline passed while the request was "
                              "running"),
                   {},
                   false});
    });
    shared->Set(RunJob(*queued, nullptr, watch));
  };
  if (Status admitted = Enqueue(request, queued->needs_fit, queued->trace);
      !admitted.ok()) {
    if (queued->needs_fit) admission_.EndFit(queued->prepared.key);
    shared->Set({std::move(admitted), {}, false});
    return false;
  }
  return true;
}

template <typename Query>
bool AsyncEngine::InlineEligible(const std::vector<Query>& queries,
                                 const release::Method& resident) {
  // A sequence query can cost far more than the hop (a TopK walk prunes
  // nothing until it holds k candidates), so only boxes run inline.
  if constexpr (std::is_same_v<Query, Box>) {
    return queries.size() == 1 &&
           WorstCaseBoxWork(resident.Metadata()) <= kInlineBoxWork;
  } else {
    return false;
  }
}

template <typename Query>
AsyncEngine::ResponseTo<Query> AsyncEngine::RunJob(
    const Job<Query>& job, std::shared_ptr<const release::Method> resident,
    std::uint64_t watch) {
  // The fault point stalls or fails a fit; an inline request runs none.
  if (resident == nullptr) {
    if (auto f = PRIVTREE_FAULT("engine.fit"); f && f.MaybeSleep()) {
      EndWatch(watch);
      if (job.needs_fit) admission_.EndFit(job.prepared.key);
      return {f.ToStatus("engine.fit"), {}, false};
    }
  }
  const auto fit_start = std::chrono::steady_clock::now();
  const serve::FitResult fitted =
      resident != nullptr
          ? serve::FitResult{std::move(resident), 0.0, /*cache_hit=*/true}
          : serve::FitSynopsis(data_, dataset_fingerprint_,
                               JobFor(job.prepared.spec), &cache_);
  const std::uint64_t fit_us = MicrosSince(fit_start);
  FitHistogram().Observe(fit_us);
  if (job.needs_fit) admission_.EndFit(job.prepared.key);
  // The watchdog guards the fit.  Once it has answered the request, the
  // event loop may be finishing the trace, and nobody receives this answer:
  // touch neither the trace nor the kernel.
  if (!EndWatch(watch)) {
    return {Status::DeadlineExceeded("answered by the watchdog"), {}, false};
  }
  if (job.trace) {
    job.trace->Record(obs::Span::kFit, fit_us);
    job.trace->cache_hit = fitted.cache_hit;
  }
  if constexpr (std::is_same_v<Query, NoQuery>) {
    return {Status::OK(), fitted.method->Metadata(), fitted.cache_hit};
  } else {
    // The batch runs on this one thread; concurrency comes from many
    // requests in flight, and a fitted Method is safe to query from any
    // number of them at once.
    const auto kernel_start = std::chrono::steady_clock::now();
    std::vector<double> answers = fitted.method->QueryBatch(job.queries);
    const std::uint64_t kernel_us = MicrosSince(kernel_start);
    KernelHistogram().Observe(kernel_us);
    if (job.trace) job.trace->Record(obs::Span::kKernel, kernel_us);
    return {Status::OK(), std::move(answers), fitted.cache_hit};
  }
}

AsyncEngine::StatsSnapshot AsyncEngine::Stats() const {
  std::size_t watchdog_fired = 0;
  {
    MutexLock lk(watch_mu_);
    watchdog_fired = watchdog_fired_;
  }
  return {queue_.depth(), queue_.max_depth(), watchdog_fired,
          admission_.stats(), cache_.stats()};
}

}  // namespace privtree::server
