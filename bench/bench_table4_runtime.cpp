// Table 4: running time of PrivTree (seconds) on all six datasets as a
// function of ε.  The paper's shape to check: road and msnbc are the
// slowest (largest cardinality), and the cost *increases* with ε because a
// smaller ε means a larger bias term and therefore earlier stopping.
//
// Also reports tree sizes next to the noiseless reference |T*| (making the
// Lemma 3.2 bound E[|T|] <= 2|T*| observable), registry-wide build-time
// comparisons for both dataset kinds, and batch-query throughput for every
// backend.  The whole (ε × rep) fit sweep — spatial *and* sequence — is
// sharded through one serve::ParallelRunner over a release::Dataset, so
// there is no per-dataset special case anywhere: every name resolves
// through one descriptor table (unknown names fail loudly), every fit goes
// through the registry, and the released synopses are bit-for-bit
// independent of the thread count (each job carries its own pre-forked
// Rng).
//
//   bench_table4_runtime [--threads=N] [--json[=PATH]] [--datasets=a,b,...]
//                        [--queries=N] [--clients=N] [--chaos]
//                        [--kernels[=PATH]]
//
// PRIVTREE_SOCKET_ROUNDS=<r> overrides the closed-loop requests per
// connection in the socket phase (default 3) — useful for longer, less
// noisy throughput comparisons (e.g. metrics-on vs PRIVTREE_NO_METRICS).
//
// --kernels replaces the sweep with the compression/kernel microbench:
// compressed (v3) vs raw (v2) envelope bytes and decode GB/s per backend,
// batch-query throughput of the reference paths vs the flat scalar and
// SIMD kernels, and a bit-for-bit parity gate over every compressed or
// vectorized served answer (any divergence exits non-zero).  Writes
// BENCH_kernels.json, the committed snapshot CI's smoke step checks.
//
// --chaos replaces the sweep with a resilience run: closed-loop resilient
// clients drive one tenant over the epoll loop while the server loop is
// restarted on the same port mid-run; every client must ride through the
// restart transparently (0 failed requests, answers bit-for-bit identical
// to the pre-restart reference).  Writes BENCH_chaos.json — recovery time,
// retry/reconnect counts, error rate — and exits non-zero on any failure.
//
// The serving phase runs through the *real* serving path for every listed
// dataset — a server::AsyncEngine (request queue + admission control +
// completion futures) over the pool and the shared synopsis cache — boxes
// for the spatial datasets, SequenceQuery frames for mooc/msnbc.  A
// dataset that bypasses the served path is a hard error, not a silent
// skip.
//
// On top of the in-process engine measurements, a *socket* phase hosts
// every dataset as a tenant of one DatasetRegistry behind the epoll
// EventLoop and drives it with --clients=N concurrent TCP connections
// from a single-threaded epoll client driver: each connection runs a
// closed loop of pre-encoded query-batch frames
// (round-robin across the tenants, so spatial and sequence traffic mix),
// and every request's wall-clock latency is recorded for p50/p99.  The
// driver multiplexes all N connections on one thread, so --clients=1000+
// measures connection scaling of the server loop, not of the driver.  The
// phase ends with a parity check: the answers served over the socket must
// be bit-for-bit identical to the in-process AsyncEngine answers.
//
// --clients also sizes the in-process closed loop, capped at 16 threads
// there (that loop measures engine dispatch, not connection scaling — the
// socket phase is the one that takes the full count).
//
// --json writes machine-readable per-dataset and per-method wall-clock so
// successive PRs can track a BENCH_*.json trajectory; a bare --json
// defaults to BENCH_table4.json for the committed repo-root snapshot.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_seq_common.h"
#include "core/byteio.h"
#include "core/codec.h"
#include "core/fault.h"
#include "core/simd.h"
#include "core/tree.h"
#include "eval/table.h"
#include "eval/workload.h"
#include "hist/ag.h"
#include "hist/grid.h"
#include "hist/grid_codec.h"
#include "hist/grid_kernels.h"
#include "obs/metrics.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/sequence_query.h"
#include "release/serialization.h"
#include "release/tree_batch.h"
#include "serve/parallel_runner.h"
#include "serve/thread_pool.h"
#include "server/async_engine.h"
#include "server/client.h"
#include "server/dataset_registry.h"
#include "server/dispatcher.h"
#include "server/event/event_loop.h"
#include "server/protocol.h"
#include "server/request.h"
#include "server/socket.h"
#include "spatial/serialization.h"
#include "spatial/spatial_histogram.h"

namespace privtree {
namespace bench {
namespace {

double Seconds(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// One benchmarked dataset behind the uniform release::Dataset view: the
/// descriptor every phase (fit sweep, serving, registry sweeps) works
/// from, with no per-name branching outside MakeDatasetHolder.
struct DatasetHolder {
  std::string name;
  release::DatasetKind kind = release::DatasetKind::kSpatial;
  std::optional<SpatialCase> spatial;
  std::optional<SequenceCase> sequence;

  release::Dataset View() const {
    return kind == release::DatasetKind::kSpatial
               ? release::Dataset(spatial->points, spatial->domain)
               : release::Dataset(sequence->truncated);
  }
  /// The Table-4 method for this kind: the paper's PrivTree, over points
  /// or over sequences.
  std::string FitMethod() const {
    return kind == release::DatasetKind::kSpatial ? "privtree"
                                                  : "pst_privtree";
  }
  release::MethodOptions FitOptions() const {
    release::MethodOptions options;
    if (kind == release::DatasetKind::kSequence) {
      options.Set("l_top", std::to_string(sequence->l_top));
    }
    return options;
  }
  /// Distinct master seeds per kind (0x7E57 spatial — unchanged from the
  /// pre-registry bench, so spatial rows stay comparable across the JSON
  /// trajectory — and 0x7E58 sequence; the sequence datasets themselves
  /// now come from the shared MakeSequenceCase generator, so their rows
  /// start a fresh trajectory with this PR).
  std::uint64_t FitSeed() const {
    return kind == release::DatasetKind::kSpatial ? 0x7E57 : 0x7E58;
  }
};

const std::vector<std::string>& SpatialNames() {
  static const std::vector<std::string> names = {"road", "gowalla", "nyc",
                                                 "beijing"};
  return names;
}

const std::vector<std::string>& SequenceNames() {
  static const std::vector<std::string> names = {"mooc", "msnbc"};
  return names;
}

/// Resolves a dataset name through the descriptor table; unknown names are
/// a usage error, reported loudly (never a silently skipped row).
DatasetHolder MakeDatasetHolder(const std::string& name) {
  DatasetHolder holder;
  holder.name = name;
  const auto& spatial = SpatialNames();
  const auto& sequences = SequenceNames();
  if (std::find(spatial.begin(), spatial.end(), name) != spatial.end()) {
    holder.kind = release::DatasetKind::kSpatial;
    holder.spatial.emplace(MakeSpatialCase(name, /*queries_per_band=*/0));
    return holder;
  }
  if (std::find(sequences.begin(), sequences.end(), name) !=
      sequences.end()) {
    holder.kind = release::DatasetKind::kSequence;
    holder.sequence.emplace(MakeSequenceCase(name));
    return holder;
  }
  std::fprintf(stderr,
               "error: unknown dataset \"%s\" (spatial: road, gowalla, "
               "nyc, beijing; sequence: mooc, msnbc)\n",
               name.c_str());
  std::exit(2);
}

/// Server-side latency breakdown lifted from the obs metrics registry:
/// one histogram's sample count and nearest-rank quantiles (microseconds,
/// bucket lower bounds — ≤25% below the true value by construction).
struct LatencyBreakdown {
  std::uint64_t count = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
};

LatencyBreakdown SnapshotBreakdown(const char* histogram_name) {
  const obs::Histogram& h =
      obs::Registry::Global().GetHistogram(histogram_name);
  return {h.Count(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999)};
}

/// Per-dataset sweep results, for the tables and the JSON trail.
struct DatasetPerf {
  std::string dataset;
  std::string kind;  // "spatial" or "sequence".
  std::vector<double> fit_seconds;     // Mean per ε, in PaperEpsilons order.
  std::vector<double> synopsis_sizes;  // Mean per ε.
  std::size_t jobs = 0;                // ε grid × reps.
  double wall_seconds = 0.0;           // Aggregate wall clock of the sweep.
  // The served path: this dataset's default method answering a workload
  // through the AsyncEngine (queue + admission + future) and a closed loop
  // of `clients` concurrent clients.
  std::string served_method;
  std::size_t served_queries = 0;
  double async_batch_seconds = 0.0;
  double closed_loop_qps = 0.0;
  // Engine-side breakdown of the served workload, from the metrics
  // registry (reset at the start of this dataset's serving phase).
  LatencyBreakdown queue_wait;
  LatencyBreakdown kernel;
  bool served = false;
};

/// Per-method serving results on one dataset at ε = 1.
struct MethodPerf {
  std::string method;
  double fit_seconds_mean = 0.0;
  double synopsis_size_mean = 0.0;
  std::size_t query_count = 0;
  double batch_query_seconds = 0.0;  // One QueryBatch over the workload.
  double loop_query_seconds = 0.0;   // Spatial only: one Query at a time.
  double async_batch_seconds = 0.0;
  double closed_loop_qps = 0.0;
  bool served = false;  // The AsyncEngine closed loop completed cleanly.
};

/// The Table-4 fit sweep — one code path for both kinds: per-(ε, rep) jobs
/// with pre-forked Rngs, sharded by the runner over the registry method.
DatasetPerf RunFitSweep(serve::ThreadPool& pool, const DatasetHolder& h) {
  const std::size_t reps = Repetitions(3);
  const serve::ParallelRunner runner(pool);  // Uncached: this bench times fits.

  std::vector<serve::FitJob> jobs;
  jobs.reserve(PaperEpsilons().size() * reps);
  for (double epsilon : PaperEpsilons()) {
    Rng master(h.FitSeed());
    for (std::size_t rep = 0; rep < reps; ++rep) {
      jobs.push_back({h.FitMethod(), h.FitOptions(), epsilon, master.Fork()});
    }
  }

  DatasetPerf perf;
  perf.dataset = h.name;
  perf.kind = std::string(release::DatasetKindName(h.kind));
  perf.jobs = jobs.size();
  std::vector<serve::FitResult> results;
  perf.wall_seconds = Seconds([&] {
    results = runner.FitAllTimed(h.View(), std::move(jobs));
  });

  for (std::size_t e = 0; e < PaperEpsilons().size(); ++e) {
    double total_time = 0.0, total_nodes = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const serve::FitResult& r = results[e * reps + rep];
      total_time += r.fit_seconds;
      total_nodes += static_cast<double>(r.method->Metadata().synopsis_size);
    }
    perf.fit_seconds.push_back(total_time / static_cast<double>(reps));
    perf.synopsis_sizes.push_back(total_nodes / static_cast<double>(reps));
  }
  return perf;
}

/// One closed-loop AsyncEngine measurement: submit the workload once for
/// the async-batch column, then `clients` threads × `rounds` back-to-back
/// submissions for aggregate throughput.  `submit` wraps the kind-specific
/// Submit*QueryBatch call; returns false (with a diagnostic) when the
/// served path failed.
bool ClosedLoopServe(
    const std::string& label, std::size_t clients, std::size_t query_count,
    const std::function<server::Future<server::QueryBatchResponse>()>&
        submit,
    double* async_batch_seconds, double* closed_loop_qps) {
  bool ok = true;
  *async_batch_seconds = Seconds([&] {
    const auto response = submit().Get();
    if (!response.status.ok()) {
      std::fprintf(stderr, "error: async serving %s: %s\n", label.c_str(),
                   response.status.ToString().c_str());
      ok = false;
    }
  });
  if (!ok) return false;

  const std::size_t rounds = 3;
  std::size_t answered = 0;
  const double closed_loop_seconds = Seconds([&] {
    std::vector<std::thread> threads;
    std::atomic<std::size_t> total{0};
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        std::size_t mine = 0;
        for (std::size_t r = 0; r < rounds; ++r) {
          const auto response = submit().Get();
          if (response.status.ok()) mine += response.answers.size();
        }
        total.fetch_add(mine, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : threads) t.join();
    answered = total.load();
  });
  *closed_loop_qps =
      closed_loop_seconds > 0.0
          ? static_cast<double>(answered) / closed_loop_seconds
          : 0.0;
  return answered >= query_count * clients * rounds;
}

/// The served path for one dataset: its default method answering a
/// kind-appropriate workload through a real AsyncEngine.  Every listed
/// dataset goes through here; a failure is reported by the caller as a
/// hard error (the closed-loop JSON must never under-report coverage).
void RunServingPhase(serve::ThreadPool& pool, const DatasetHolder& h,
                     std::size_t query_count, std::size_t clients,
                     DatasetPerf* perf) {
  server::AsyncEngine engine(h.View(), pool, serve::SharedSynopsisCache());
  const server::FitSpec spec{h.FitMethod(), h.FitOptions(), /*epsilon=*/1.0,
                             h.FitSeed()};
  perf->served_method = spec.method;

  // Scope the engine's queue-wait and kernel histograms to this dataset's
  // serving phase: datasets run serially, so a Reset here makes the
  // snapshot below a per-dataset breakdown.
  obs::Registry::Global().GetHistogram("engine.queue_wait_us").Reset();
  obs::Registry::Global().GetHistogram("engine.kernel_us").Reset();

  if (h.kind == release::DatasetKind::kSpatial) {
    Rng workload_rng(0xBA7C4);
    std::vector<Box> queries;
    for (const QuerySizeBand& band : kPaperBands) {
      const auto band_queries = GenerateRangeQueries(
          h.spatial->domain, query_count / std::size(kPaperBands), band,
          workload_rng);
      queries.insert(queries.end(), band_queries.begin(),
                     band_queries.end());
    }
    perf->served_queries = queries.size();
    perf->served = ClosedLoopServe(
        h.name + "/" + spec.method, clients, queries.size(),
        [&] { return engine.SubmitQueryBatch(spec, queries); },
        &perf->async_batch_seconds, &perf->closed_loop_qps);
  } else {
    Rng workload_rng(0xBA7C5);
    const std::vector<release::SequenceQuery> queries =
        GenerateSequenceQueries(h.sequence->truncated, query_count,
                                workload_rng);
    perf->served_queries = queries.size();
    perf->served = ClosedLoopServe(
        h.name + "/" + spec.method, clients, queries.size(),
        [&] { return engine.SubmitSeqQueryBatch(spec, queries); },
        &perf->async_batch_seconds, &perf->closed_loop_qps);
  }
  perf->queue_wait = SnapshotBreakdown("engine.queue_wait_us");
  perf->kernel = SnapshotBreakdown("engine.kernel_us");
}

/// Companion sweep: build + serving time of every registered method of the
/// dataset's kind at ε = 1, one row per registry entry, all through the
/// same AsyncEngine closed loop.
std::vector<MethodPerf> RunRegistrySweep(serve::ThreadPool& pool,
                                         const DatasetHolder& h,
                                         std::size_t query_count,
                                         std::size_t clients) {
  const std::size_t reps = Repetitions(3);
  const double epsilon = 1.0;
  const serve::ParallelRunner runner(pool, &serve::SharedSynopsisCache());
  server::AsyncEngine engine(h.View(), pool, serve::SharedSynopsisCache());

  // Kind-appropriate workload, generated once for every method row.
  std::vector<Box> boxes;
  std::vector<release::SequenceQuery> seq_queries;
  if (h.kind == release::DatasetKind::kSpatial) {
    Rng workload_rng(0xBA7C4);
    for (const QuerySizeBand& band : kPaperBands) {
      const auto band_queries = GenerateRangeQueries(
          h.spatial->domain, query_count / std::size(kPaperBands), band,
          workload_rng);
      boxes.insert(boxes.end(), band_queries.begin(), band_queries.end());
    }
  } else {
    Rng workload_rng(0xBA7C5);
    seq_queries = GenerateSequenceQueries(h.sequence->truncated, query_count,
                                          workload_rng);
  }

  const std::vector<MethodSpec> specs =
      h.kind == release::DatasetKind::kSpatial
          ? AllRegisteredSpecs(h.spatial->points.dim(), DiscretizationCells())
          : SequenceSpecs(h.sequence->l_top);

  std::vector<MethodPerf> out;
  for (const MethodSpec& spec : specs) {
    const std::uint64_t seed =
        0x7E59 ^ std::hash<std::string>{}(spec.name);
    Rng master(seed);
    std::vector<serve::FitJob> jobs;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      jobs.push_back({spec.name, spec.options, epsilon, master.Fork()});
    }
    const auto results = runner.FitAllTimed(h.View(), std::move(jobs));

    MethodPerf perf;
    perf.method = spec.name;
    for (const serve::FitResult& r : results) {
      perf.fit_seconds_mean += r.fit_seconds;
      perf.synopsis_size_mean +=
          static_cast<double>(r.method->Metadata().synopsis_size);
    }
    perf.fit_seconds_mean /= static_cast<double>(reps);
    perf.synopsis_size_mean /= static_cast<double>(reps);

    const release::Method& method = *results.front().method;
    // The spec's seed recreates the first rep's randomness (Rng(seed).
    // Fork() — the ReleaseSession derivation), so the engine serves the
    // already-cached synopsis and the measurement isolates the queue +
    // dispatch + query cost.
    const server::FitSpec fit_spec{spec.name, spec.options, epsilon, seed};
    if (h.kind == release::DatasetKind::kSpatial) {
      perf.query_count = boxes.size();
      std::vector<double> batch_answers;
      perf.batch_query_seconds =
          Seconds([&] { batch_answers = method.QueryBatch(boxes); });
      double loop_total = 0.0;
      perf.loop_query_seconds = Seconds([&] {
        for (const Box& q : boxes) loop_total += method.Query(q);
      });
      // Keep the loop honest: the sum depends on every Query call.
      if (loop_total == 0.0 && !batch_answers.empty()) {
        std::fprintf(stderr, "(workload sum exactly zero on %s)\n",
                     spec.name.c_str());
      }
      perf.served = ClosedLoopServe(
          h.name + "/" + spec.name, clients, boxes.size(),
          [&] { return engine.SubmitQueryBatch(fit_spec, boxes); },
          &perf.async_batch_seconds, &perf.closed_loop_qps);
    } else {
      perf.query_count = seq_queries.size();
      perf.batch_query_seconds = Seconds(
          // lint-ok: discarded-status — timing-only pass; answers unused.
          [&] { (void)method.QueryBatch(std::span(seq_queries)); });
      // Sequence methods have no per-box Query; the batch is the only
      // client-visible path.
      perf.loop_query_seconds = 0.0;
      perf.served = ClosedLoopServe(
          h.name + "/" + spec.name, clients, seq_queries.size(),
          [&] { return engine.SubmitSeqQueryBatch(fit_spec, seq_queries); },
          &perf.async_batch_seconds, &perf.closed_loop_qps);
    }
    out.push_back(perf);
  }
  return out;
}

/// Socket-phase results: the epoll loop serving every dataset as a
/// tenant, driven by `clients` concurrent connections.
struct SocketPerf {
  std::size_t clients = 0;     // Concurrent connections.
  std::size_t rounds = 0;      // Closed-loop requests per connection.
  std::size_t batch = 0;       // Queries per request frame.
  std::size_t requests = 0;    // Completed request/reply pairs.
  std::size_t failed = 0;      // Connections that errored or stalled.
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;
  double queries_per_second = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t peak_connections = 0;  // Epoll loop's max_concurrent.
  // Server-side breakdown of the closed-loop traffic, from the metrics
  // registry (reset after warm-up, so counts cover exactly the loop).
  LatencyBreakdown queue_wait;
  LatencyBreakdown kernel;
  LatencyBreakdown request;  // End-to-end per-frame.
  // The GetStats-over-the-wire consistency gate: counters the server
  // reports must agree bit-for-bit with this driver's own accounting.
  std::uint64_t stats_admitted = 0;
  std::uint64_t stats_shed = 0;
  bool stats_consistent = false;
  bool parity = false;  // Socket answers == in-process answers.
  bool ok = false;
};

/// The integer right after `"name":` in a JSON snapshot (searching from
/// `from`, so histogram sub-objects can be scoped); 0 when absent.
std::uint64_t JsonUintField(const std::string& json, const std::string& name,
                            std::size_t from = 0) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

/// Latency percentile over the recorded per-request samples (nearest-rank
/// on the sorted vector; sorts in place).
double PercentileMs(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const double rank = q * static_cast<double>(samples->size() - 1);
  const std::size_t idx = static_cast<std::size_t>(rank + 0.5);
  return (*samples)[std::min(idx, samples->size() - 1)];
}

/// Raises RLIMIT_NOFILE towards `want` descriptors (driver + server ends
/// of every connection live in this one process); best effort.
void EnsureFdHeadroom(std::size_t want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  const rlim_t target = static_cast<rlim_t>(want);
  if (rl.rlim_cur >= target) return;
  rl.rlim_cur =
      rl.rlim_max == RLIM_INFINITY ? target : std::min(target, rl.rlim_max);
  ::setrlimit(RLIMIT_NOFILE, &rl);
}

/// Single-threaded epoll client driver: `clients` concurrent non-blocking
/// connections, each a closed loop of `rounds` pre-framed requests (peer i
/// replays wires[i % wires.size()], so traffic round-robins the tenants).
/// Per-request latency — first request byte to last reply byte — lands in
/// `latencies_ms`.  Returns true when every connection completed all its
/// rounds with well-formed QueryBatchReply frames.
bool DriveSocketClosedLoop(std::uint16_t port,
                           const std::vector<std::string>& wires,
                           std::size_t clients, std::size_t rounds,
                           std::vector<double>* latencies_ms,
                           std::size_t* failed) {
  struct Peer {
    int fd = -1;
    const std::string* wire = nullptr;
    std::size_t sent = 0;
    std::string reply;
    std::size_t rounds_done = 0;
    bool connecting = true;
    bool done = false;
    std::chrono::steady_clock::time_point start;
  };
  const auto read_u32 = [](const char* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;  // Wire scalars are little-endian; so is every target here.
  };

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  std::vector<Peer> peers(clients);
  std::size_t active = 0;
  const auto fail_peer = [&](Peer& p, const char* why) {
    if (*failed < 5 && !p.done) {
      std::fprintf(stderr,
                   "warning: socket client failed: %s (errno=%d, "
                   "completed rounds=%zu)\n",
                   why, errno, p.rounds_done);
    }
    if (p.fd >= 0) {
      ::close(p.fd);  // close() drops the epoll registration with the fd.
      p.fd = -1;
    }
    if (!p.done) {
      p.done = true;
      ++*failed;
      --active;
    }
  };
  const auto start_round = [&](Peer& p, std::uint64_t idx) {
    p.sent = 0;
    p.reply.clear();
    p.start = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = idx;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, p.fd, &ev);
  };

  for (std::size_t i = 0; i < clients; ++i) {
    Peer& p = peers[i];
    p.wire = &wires[i % wires.size()];
    p.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (p.fd < 0) {
      p.done = true;
      ++*failed;
      continue;
    }
    int one = 1;
    ::setsockopt(p.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int rc =
        ::connect(p.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(p.fd);
      p.fd = -1;
      p.done = true;
      ++*failed;
      continue;
    }
    p.connecting = rc != 0;
    ++active;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = i;
    if (::epoll_ctl(ep, EPOLL_CTL_ADD, p.fd, &ev) != 0) {
      fail_peer(p, "ctl-add");
      continue;
    }
    if (!p.connecting) start_round(p, i);
  }

  epoll_event events[256];
  while (active > 0) {
    const int n = ::epoll_wait(ep, events, 256, 30000);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // 30 s of total silence: the loop under test hung.
    for (int e = 0; e < n; ++e) {
      const std::uint64_t idx = events[e].data.u64;
      Peer& p = peers[idx];
      if (p.done) continue;
      if ((events[e].events & (EPOLLERR | EPOLLHUP)) != 0) {
        fail_peer(p, "err/hup");
        continue;
      }
      if ((events[e].events & EPOLLOUT) != 0) {
        if (p.connecting) {
          int err = 0;
          socklen_t len = sizeof(err);
          if (::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
              err != 0) {
            fail_peer(p, "connect");
            continue;
          }
          p.connecting = false;
          start_round(p, idx);
        }
        bool dead = false;
        while (p.sent < p.wire->size()) {
          const ssize_t w =
              ::send(p.fd, p.wire->data() + p.sent, p.wire->size() - p.sent,
                     MSG_NOSIGNAL);
          if (w > 0) {
            p.sent += static_cast<std::size_t>(w);
            continue;
          }
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          fail_peer(p, "send");
          dead = true;
          break;
        }
        if (dead) continue;
        if (p.sent == p.wire->size()) {
          epoll_event ev{};  // Level-triggered: stop polling writability.
          ev.events = EPOLLIN;
          ev.data.u64 = idx;
          ::epoll_ctl(ep, EPOLL_CTL_MOD, p.fd, &ev);
        }
      }
      if ((events[e].events & EPOLLIN) == 0 || p.connecting) continue;
      bool dead = false;
      while (true) {
        char buf[65536];
        const ssize_t r = ::recv(p.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          p.reply.append(buf, static_cast<std::size_t>(r));
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fail_peer(p, "recv");  // 0 = server closed mid-conversation: a failure.
        dead = true;
        break;
      }
      if (dead) continue;
      if (p.reply.size() < 4) continue;
      const std::uint32_t frame_len = read_u32(p.reply.data());
      if (p.reply.size() < 4 + static_cast<std::size_t>(frame_len)) continue;
      if (p.reply.size() != 4 + static_cast<std::size_t>(frame_len) ||
          frame_len < 4 ||
          read_u32(p.reply.data() + 4) !=
              static_cast<std::uint32_t>(
                  server::MessageType::kQueryBatchReply)) {
        fail_peer(p, "reply");  // ErrorReply or garbage: the served path failed.
        continue;
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - p.start)
                            .count();
      latencies_ms->push_back(ms);
      if (++p.rounds_done == rounds) {
        ::close(p.fd);
        p.fd = -1;
        p.done = true;
        --active;
      } else {
        start_round(p, idx);
      }
    }
  }
  for (Peer& p : peers) {
    if (!p.done) fail_peer(p, "leftover");
  }
  ::close(ep);
  return *failed == 0;
}

/// One tenant's socket-phase material: its registry fingerprint, the warm
/// spec, the pre-encoded request frame and the decoded workload for the
/// parity check.
struct TenantTraffic {
  std::uint64_t fingerprint = 0;
  server::FitSpec spec;
  std::string payload;  // Encoded QueryBatch/SeqQueryBatch frame payload.
  std::vector<Box> boxes;
  std::vector<release::SequenceQuery> seq_queries;
};

/// Fetches every tenant's workload answers through one blocking client on
/// `port`; clears *ok on any failure.
std::vector<std::vector<double>> FetchSocketAnswers(
    std::uint16_t port, const std::vector<TenantTraffic>& traffic, bool* ok) {
  std::vector<std::vector<double>> out;
  auto client = server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    *ok = false;
    return out;
  }
  for (const TenantTraffic& t : traffic) {
    client.value().SelectDataset(t.fingerprint);
    auto answers =
        t.boxes.empty()
            ? client.value().SeqQueryBatch(t.spec, t.seq_queries)
            : client.value().QueryBatch(t.spec, t.boxes);
    if (!answers.ok()) {
      std::fprintf(stderr, "error: socket parity fetch: %s\n",
                   answers.status().ToString().c_str());
      *ok = false;
      return out;
    }
    out.push_back(std::move(answers.value()));
  }
  return out;
}

/// The socket serving phase: every dataset registered as a tenant of one
/// DatasetRegistry, served by the epoll loop, load-tested by the epoll
/// client driver, then parity-checked against the in-process engines.
SocketPerf RunSocketPhase(serve::ThreadPool& pool,
                          const std::vector<DatasetHolder>& holders,
                          std::size_t clients) {
  SocketPerf perf;
  perf.clients = clients;
  perf.rounds = 3;
  if (const char* value = std::getenv("PRIVTREE_SOCKET_ROUNDS")) {
    const long parsed = std::strtol(value, nullptr, 10);
    if (parsed > 0) perf.rounds = static_cast<std::size_t>(parsed);
  }
  perf.batch = 16;
  EnsureFdHeadroom(2 * clients + 256);

  // A deployment sized for N concurrent connections provisions its request
  // queue for N in-flight requests — otherwise admission control correctly
  // sheds the burst (that behaviour has its own tests; this phase measures
  // sustained serving, so every request must be admitted).
  server::DatasetRegistryOptions registry_options;
  registry_options.engine.admission.max_queue_depth =
      std::max<std::size_t>(256, 2 * clients);
  server::DatasetRegistry registry(pool, serve::SharedSynopsisCache(),
                                   registry_options);
  server::Dispatcher dispatcher(registry);
  std::vector<TenantTraffic> traffic;
  std::vector<std::string> wires;
  for (const DatasetHolder& h : holders) {
    const auto fingerprint = registry.Register(h.name, h.View());
    if (!fingerprint.ok()) {
      std::fprintf(stderr, "error: registering %s: %s\n", h.name.c_str(),
                   fingerprint.status().ToString().c_str());
      return perf;
    }
    TenantTraffic t;
    t.fingerprint = fingerprint.value();
    t.spec = {h.FitMethod(), h.FitOptions(), /*epsilon=*/1.0, h.FitSeed()};
    if (h.kind == release::DatasetKind::kSpatial) {
      Rng workload_rng(0xBA7C6);
      t.boxes = GenerateRangeQueries(h.spatial->domain, perf.batch,
                                     kPaperBands[0], workload_rng);
      t.payload = server::EncodeQueryBatch(
          {t.spec, /*deadline=*/0, t.fingerprint, t.boxes});
    } else {
      Rng workload_rng(0xBA7C7);
      t.seq_queries = GenerateSequenceQueries(h.sequence->truncated,
                                              perf.batch, workload_rng);
      t.payload = server::EncodeSeqQueryBatch(
          {t.spec, /*deadline=*/0, t.fingerprint, t.seq_queries});
    }
    std::string wire;
    const std::uint32_t len = static_cast<std::uint32_t>(t.payload.size());
    wire.append(reinterpret_cast<const char*>(&len), sizeof(len));
    wire += t.payload;
    wires.push_back(std::move(wire));
    traffic.push_back(std::move(t));
  }

  auto listener = server::ListenSocket::Listen(0);
  if (!listener.ok()) {
    std::fprintf(stderr, "error: socket phase listen: %s\n",
                 listener.status().ToString().c_str());
    return perf;
  }
  server::EventLoop event_loop(dispatcher, std::move(listener).value());
  const std::uint16_t port = event_loop.port();
  // lint-ok: discarded-status — a failed loop shows up as failed client
  // requests in the closed loop below.
  std::thread server_thread([&] { (void)event_loop.Run(); });
  const auto stop_server = [&] {
    event_loop.Stop();
    server_thread.join();
  };

  // Warm every tenant's ε=1 synopsis through the wire, so the load test
  // measures serving (queue + dispatch + query), not first-fit cost.
  {
    auto warm = server::Client::Connect("127.0.0.1", port);
    if (!warm.ok()) {
      std::fprintf(stderr, "error: socket phase warm connect: %s\n",
                   warm.status().ToString().c_str());
      stop_server();
      return perf;
    }
    for (const TenantTraffic& t : traffic) {
      warm.value().SelectDataset(t.fingerprint);
      const auto fit = warm.value().Fit(t.spec);
      if (!fit.ok()) {
        std::fprintf(stderr, "error: warming %s: %s\n",
                     t.spec.method.c_str(), fit.status().ToString().c_str());
        stop_server();
        return perf;
      }
    }
  }

  // Zero the registry so its counters cover exactly the closed loop.  The
  // admission / engine / served-frame increments all land strictly before
  // their reply bytes — which this thread has already received — so none
  // of the warm traffic can trickle in after the Reset.  (The one
  // exception: the final warm request's *trace* finishes after its reply
  // flushes, so "server.request_us" may carry one stray sample; no
  // consistency check below leans on it.)
  obs::Registry::Global().Reset();

  std::vector<double> latencies_ms;
  latencies_ms.reserve(clients * perf.rounds);
  const double wall = Seconds([&] {
    perf.ok = DriveSocketClosedLoop(port, wires, clients, perf.rounds,
                                    &latencies_ms, &perf.failed);
  });
  perf.requests = latencies_ms.size();
  perf.wall_seconds = wall;
  perf.requests_per_second =
      wall > 0.0 ? static_cast<double>(perf.requests) / wall : 0.0;
  perf.queries_per_second =
      perf.requests_per_second * static_cast<double>(perf.batch);
  perf.p50_ms = PercentileMs(&latencies_ms, 0.50);
  perf.p99_ms = PercentileMs(&latencies_ms, 0.99);
  perf.queue_wait = SnapshotBreakdown("engine.queue_wait_us");
  perf.kernel = SnapshotBreakdown("engine.kernel_us");
  perf.request = SnapshotBreakdown("server.request_us");

  // GetStats over the wire — fetched *before* the parity traffic below
  // adds requests: the snapshot's admission and engine counters must agree
  // bit-for-bit with this driver's closed-loop accounting.  Every driver
  // frame is one admitted request, one queue wait, and one kernel batch;
  // the shed counters must read zero (the queue was provisioned for
  // 2x clients above).  Served frames additionally equal the driver's
  // requests plus this client's Hello and the GetStats frame itself.
#ifdef PRIVTREE_NO_METRICS
  // Nothing to compare: the registry is compiled out and GetStats
  // truthfully reports empty sections.  The gate passes vacuously so the
  // metrics-off build still runs end to end for throughput comparison.
  perf.stats_consistent = true;
#else
  if (perf.ok) {
    auto stats_client = server::Client::Connect("127.0.0.1", port);
    if (!stats_client.ok()) {
      std::fprintf(stderr, "error: GetStats connect: %s\n",
                   stats_client.status().ToString().c_str());
      perf.ok = false;
    } else {
      const auto json = stats_client.value().GetStatsJson();
      if (!json.ok()) {
        std::fprintf(stderr, "error: GetStats fetch: %s\n",
                     json.status().ToString().c_str());
        perf.ok = false;
      } else {
        const std::string& snapshot = json.value();
        perf.stats_admitted = JsonUintField(snapshot, "admission.admitted");
        perf.stats_shed =
            JsonUintField(snapshot, "admission.shed_queue_full") +
            JsonUintField(snapshot, "admission.shed_cache_saturated");
        const std::size_t queue_at =
            snapshot.find("\"engine.queue_wait_us\":");
        const std::size_t kernel_at = snapshot.find("\"engine.kernel_us\":");
        const std::uint64_t queue_count =
            queue_at == std::string::npos
                ? 0
                : JsonUintField(snapshot, "count", queue_at);
        const std::uint64_t kernel_count =
            kernel_at == std::string::npos
                ? 0
                : JsonUintField(snapshot, "count", kernel_at);
        const std::uint64_t served_frames =
            JsonUintField(snapshot, "event.served_frames");
        perf.stats_consistent =
            perf.stats_admitted == perf.requests && perf.stats_shed == 0 &&
            queue_count == perf.requests && kernel_count == perf.requests &&
            served_frames == perf.requests + 2;
        if (!perf.stats_consistent) {
          std::fprintf(stderr,
                       "error: GetStats counters disagree with the driver: "
                       "admitted=%llu shed=%llu queue_wait=%llu "
                       "kernel=%llu vs %zu driver requests\n",
                       static_cast<unsigned long long>(perf.stats_admitted),
                       static_cast<unsigned long long>(perf.stats_shed),
                       static_cast<unsigned long long>(queue_count),
                       static_cast<unsigned long long>(kernel_count),
                       perf.requests);
          perf.ok = false;
        }
      }
    }
  }
#endif  // PRIVTREE_NO_METRICS

  // Parity: the answers this loop serves vs. the in-process AsyncEngine
  // answers for the same (spec, fingerprint, workload).
  bool parity = true;
  const auto socket_answers = FetchSocketAnswers(port, traffic, &parity);
  std::vector<std::vector<double>> local_answers;
  for (const TenantTraffic& t : traffic) {
    server::AsyncEngine* engine = registry.Find(t.fingerprint);
    if (engine == nullptr) {
      parity = false;
      break;
    }
    auto response = t.boxes.empty()
                        ? engine->SubmitSeqQueryBatch(t.spec, t.seq_queries)
                              .Get()
                        : engine->SubmitQueryBatch(t.spec, t.boxes).Get();
    if (!response.status.ok()) {
      parity = false;
      break;
    }
    local_answers.push_back(std::move(response.answers));
  }
  parity = parity && socket_answers == local_answers;
  perf.parity = parity;
  perf.ok = perf.ok && parity;

  perf.peak_connections = event_loop.stats().max_concurrent;
  stop_server();
  return perf;
}

// ── Chaos phase (--chaos) ─────────────────────────────────────────────────
//
// A closed-loop resilience run instead of the Table-4 sweep: N resilient
// server::Clients hammer one tenant over the epoll loop, the server loop is
// torn down and restarted on the same port mid-run, and every client must
// ride through the restart via its reconnect + retry discipline with zero
// failed requests and answers bit-for-bit identical to the pre-restart
// reference.  The committed BENCH_chaos.json tracks recovery time, retry
// counts, and the error rate across PRs.

struct ChaosPerf {
  std::size_t clients = 0;
  std::size_t rounds_per_phase = 0;   // Requests per client per phase.
  std::size_t requests = 0;           // Completed request/reply pairs.
  std::size_t failed = 0;             // Requests that exhausted retries.
  std::size_t mismatches = 0;         // Served answers != reference bits.
  std::uint64_t retries = 0;          // Summed client telemetry.
  std::uint64_t reconnects = 0;
  double recovery_millis = 0.0;       // Restart start -> first served reply.
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;
  bool ok = false;
};

ChaosPerf RunChaosPhase(serve::ThreadPool& pool, const DatasetHolder& holder,
                        std::size_t clients) {
  ChaosPerf perf;
  perf.clients = std::max<std::size_t>(2, std::min<std::size_t>(clients, 16));
  perf.rounds_per_phase = 40;

  server::DatasetRegistry registry(pool, serve::SharedSynopsisCache());
  server::Dispatcher dispatcher(registry);
  const auto fingerprint = registry.Register(holder.name, holder.View());
  if (!fingerprint.ok()) {
    std::fprintf(stderr, "error: chaos registering %s: %s\n",
                 holder.name.c_str(),
                 fingerprint.status().ToString().c_str());
    return perf;
  }
  const server::FitSpec spec{holder.FitMethod(), holder.FitOptions(),
                             /*epsilon=*/1.0, holder.FitSeed()};
  Rng workload_rng(0xBA7C6);
  const std::vector<Box> boxes =
      GenerateRangeQueries(holder.spatial->domain, 16, kPaperBands[0],
                           workload_rng);

  auto listener = server::ListenSocket::Listen(0);
  if (!listener.ok()) {
    std::fprintf(stderr, "error: chaos listen: %s\n",
                 listener.status().ToString().c_str());
    return perf;
  }
  const std::uint16_t port = listener.value().port();
  auto loop = std::make_unique<server::EventLoop>(
      dispatcher, std::move(listener).value());
  std::thread serving([&loop] { (void)loop->Run(); });

  server::ClientOptions options;
  options.max_attempts = 10;
  options.base_backoff_millis = 10;
  options.max_backoff_millis = 500;

  // The reference bits every later answer must reproduce exactly (the fit
  // is deterministic in the spec, and the synopsis cache outlives the
  // server-loop restart).
  std::vector<double> reference;
  {
    auto warm = server::Client::Connect("127.0.0.1", port, options);
    if (!warm.ok()) {
      std::fprintf(stderr, "error: chaos warm connect: %s\n",
                   warm.status().ToString().c_str());
      loop->Stop();
      serving.join();
      return perf;
    }
    warm.value().SelectDataset(fingerprint.value());
    auto answers = warm.value().QueryBatch(spec, boxes);
    if (!answers.ok()) {
      std::fprintf(stderr, "error: chaos warm query: %s\n",
                   answers.status().ToString().c_str());
      loop->Stop();
      serving.join();
      return perf;
    }
    reference = std::move(answers).value();
  }

  // Two phases per worker with a barrier between: every client finishes
  // phase 1, the server restarts while all of them hold live (now dead)
  // connections, then phase 2 forces each one through reconnect + resend.
  std::atomic<std::size_t> at_barrier{0};
  std::atomic<bool> barrier_open{false};
  std::atomic<std::size_t> requests{0}, failed{0}, mismatches{0};
  std::atomic<std::uint64_t> retries{0}, reconnects{0};
  const auto worker = [&](std::uint64_t index) {
    server::ClientOptions worker_options = options;
    worker_options.backoff_seed = 0xC4A05 + index;
    auto connected = server::Client::Connect("127.0.0.1", port,
                                             worker_options);
    if (!connected.ok()) {
      failed += 2 * perf.rounds_per_phase;
      ++at_barrier;
      return;
    }
    server::Client client = std::move(connected).value();
    client.SelectDataset(fingerprint.value());
    const auto run_phase = [&] {
      for (std::size_t r = 0; r < perf.rounds_per_phase; ++r) {
        auto answers = client.QueryBatch(spec, boxes);
        ++requests;
        if (!answers.ok()) {
          ++failed;
        } else if (answers.value() != reference) {
          ++mismatches;
        }
      }
    };
    run_phase();
    ++at_barrier;
    while (!barrier_open.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    run_phase();
    retries += client.telemetry().retries;
    reconnects += client.telemetry().reconnects;
  };

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < perf.clients; ++i) {
    workers.emplace_back(worker, i);
  }
  while (at_barrier.load() < perf.clients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The restart: tear the loop down and bring a fresh one up on the same
  // port.  Recovery time is restart initiation to the first served reply.
  const auto restart_start = std::chrono::steady_clock::now();
  loop->Stop();
  serving.join();
  auto relisten = server::ListenSocket::Listen(port);
  if (!relisten.ok()) {
    std::fprintf(stderr, "error: chaos re-listen: %s\n",
                 relisten.status().ToString().c_str());
    barrier_open.store(true, std::memory_order_release);
    for (std::thread& t : workers) t.join();
    return perf;
  }
  loop = std::make_unique<server::EventLoop>(dispatcher,
                                             std::move(relisten).value());
  serving = std::thread([&loop] { (void)loop->Run(); });
  {
    auto probe = server::Client::Connect("127.0.0.1", port, options);
    if (probe.ok()) {
      probe.value().SelectDataset(fingerprint.value());
      auto answers = probe.value().QueryBatch(spec, boxes);
      if (answers.ok()) {
        perf.recovery_millis =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - restart_start)
                .count();
        if (answers.value() != reference) ++mismatches;
      }
    }
    if (perf.recovery_millis == 0.0) {
      std::fprintf(stderr, "error: chaos recovery probe never served\n");
    }
  }
  barrier_open.store(true, std::memory_order_release);
  for (std::thread& t : workers) t.join();
  perf.wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();

  loop->Stop();
  serving.join();

  perf.requests = requests.load();
  perf.failed = failed.load();
  perf.mismatches = mismatches.load();
  perf.retries = retries.load();
  perf.reconnects = reconnects.load();
  perf.requests_per_second =
      perf.wall_seconds > 0.0
          ? static_cast<double>(perf.requests) / perf.wall_seconds
          : 0.0;
  perf.ok = perf.failed == 0 && perf.mismatches == 0 &&
            perf.recovery_millis > 0.0 &&
            perf.requests == 2 * perf.clients * perf.rounds_per_phase;
  return perf;
}

void WriteChaosJson(const std::string& path, std::size_t threads,
                    const std::string& dataset, const ChaosPerf& chaos) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return;
  }
  const double error_rate =
      chaos.requests > 0
          ? static_cast<double>(chaos.failed) /
                static_cast<double>(chaos.requests)
          : 1.0;
  std::fprintf(
      f,
      "{\n  \"threads\": %zu,\n  \"dataset\": \"%s\",\n"
      "  \"clients\": %zu,\n  \"rounds_per_phase\": %zu,\n"
      "  \"server_restarts\": 1,\n  \"requests\": %zu,\n"
      "  \"failed\": %zu,\n  \"error_rate\": %.6g,\n"
      "  \"parity_mismatches\": %zu,\n  \"retries\": %llu,\n"
      "  \"reconnects\": %llu,\n  \"recovery_millis\": %.6g,\n"
      "  \"wall_seconds\": %.6g,\n  \"requests_per_second\": %.6g,\n",
      threads, dataset.c_str(), chaos.clients, chaos.rounds_per_phase,
      chaos.requests, chaos.failed, error_rate, chaos.mismatches,
      static_cast<unsigned long long>(chaos.retries),
      static_cast<unsigned long long>(chaos.reconnects),
      chaos.recovery_millis, chaos.wall_seconds, chaos.requests_per_second);
  // Which fault-injection points actually fired (armed via
  // PRIVTREE_FAULTS; empty object on a fault-free run) — so a chaos
  // snapshot records not just that the run survived, but what it survived.
  auto fault_stats = fault::Injector::Global().AllStats();
  std::sort(fault_stats.begin(), fault_stats.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::fprintf(f, "  \"faults\": {");
  for (std::size_t i = 0; i < fault_stats.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"hits\": %llu, \"fired\": %llu}",
                 i ? ", " : "", fault_stats[i].first.c_str(),
                 static_cast<unsigned long long>(fault_stats[i].second.hits),
                 static_cast<unsigned long long>(fault_stats[i].second.fired));
  }
  std::fprintf(f, "},\n  \"ok\": %s\n}\n", chaos.ok ? "true" : "false");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/// One registry-histogram breakdown as an inline JSON object (no trailing
/// separator): {"count":N,"p50_us":a,"p99_us":b,"p999_us":c}.
void WriteBreakdownJson(std::FILE* f, const char* name,
                        const LatencyBreakdown& b) {
  std::fprintf(f,
               "\"%s\": {\"count\": %llu, \"p50_us\": %llu, "
               "\"p99_us\": %llu, \"p999_us\": %llu}",
               name, static_cast<unsigned long long>(b.count),
               static_cast<unsigned long long>(b.p50_us),
               static_cast<unsigned long long>(b.p99_us),
               static_cast<unsigned long long>(b.p999_us));
}

void WriteMethodsJson(std::FILE* f, const std::vector<MethodPerf>& methods) {
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const MethodPerf& m = methods[i];
    std::fprintf(
        f,
        "    {\"method\": \"%s\", \"fit_seconds_mean\": %.6g, "
        "\"synopsis_size_mean\": %.6g, \"queries\": %zu, "
        "\"batch_query_seconds\": %.6g, \"loop_query_seconds\": %.6g, "
        "\"async_batch_seconds\": %.6g, \"closed_loop_qps\": %.6g}%s\n",
        m.method.c_str(), m.fit_seconds_mean, m.synopsis_size_mean,
        m.query_count, m.batch_query_seconds, m.loop_query_seconds,
        m.async_batch_seconds, m.closed_loop_qps,
        i + 1 < methods.size() ? "," : "");
  }
}

void WriteJson(const std::string& path, std::size_t threads, std::size_t reps,
               std::size_t clients, const std::vector<DatasetPerf>& datasets,
               const std::string& sweep_dataset,
               const std::vector<MethodPerf>& methods,
               const std::string& seq_sweep_dataset,
               const std::vector<MethodPerf>& seq_methods,
               const SocketPerf& socket) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"threads\": %zu,\n  \"reps\": %zu,\n", threads, reps);
  std::fprintf(f, "  \"clients\": %zu,\n", clients);
  std::fprintf(f, "  \"paper_scale\": %s,\n", PaperScale() ? "true" : "false");
  std::fprintf(f, "  \"table4\": [\n");
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const DatasetPerf& d = datasets[i];
    std::fprintf(f, "    {\"dataset\": \"%s\", \"kind\": \"%s\",\n",
                 d.dataset.c_str(), d.kind.c_str());
    std::fprintf(f, "     \"epsilons\": [");
    for (std::size_t e = 0; e < PaperEpsilons().size(); ++e) {
      std::fprintf(f, "%s%g", e ? ", " : "", PaperEpsilons()[e]);
    }
    std::fprintf(f, "],\n     \"fit_seconds_mean\": [");
    for (std::size_t e = 0; e < d.fit_seconds.size(); ++e) {
      std::fprintf(f, "%s%.6g", e ? ", " : "", d.fit_seconds[e]);
    }
    std::fprintf(f, "],\n     \"synopsis_size_mean\": [");
    for (std::size_t e = 0; e < d.synopsis_sizes.size(); ++e) {
      std::fprintf(f, "%s%.6g", e ? ", " : "", d.synopsis_sizes[e]);
    }
    std::fprintf(f,
                 "],\n     \"fit_jobs\": %zu, \"fit_wall_seconds\": %.6g, "
                 "\"fits_per_second\": %.6g,\n",
                 d.jobs, d.wall_seconds,
                 d.wall_seconds > 0.0
                     ? static_cast<double>(d.jobs) / d.wall_seconds
                     : 0.0);
    std::fprintf(f,
                 "     \"served\": %s, \"served_method\": \"%s\", "
                 "\"served_queries\": %zu, \"async_batch_seconds\": %.6g, "
                 "\"closed_loop_qps\": %.6g,\n     ",
                 d.served ? "true" : "false", d.served_method.c_str(),
                 d.served_queries, d.async_batch_seconds, d.closed_loop_qps);
    WriteBreakdownJson(f, "queue_wait_us", d.queue_wait);
    std::fprintf(f, ", ");
    WriteBreakdownJson(f, "kernel_us", d.kernel);
    std::fprintf(f, "}%s\n", i + 1 < datasets.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"registry_sweep\": {\"dataset\": \"%s\", "
                  "\"epsilon\": 1, \"methods\": [\n",
               sweep_dataset.c_str());
  WriteMethodsJson(f, methods);
  std::fprintf(f, "  ]},\n  \"sequence_sweep\": {\"dataset\": \"%s\", "
                  "\"epsilon\": 1, \"methods\": [\n",
               seq_sweep_dataset.c_str());
  WriteMethodsJson(f, seq_methods);
  std::fprintf(
      f,
      "  ]},\n  \"socket\": {\"clients\": %zu, "
      "\"rounds\": %zu, \"batch\": %zu,\n"
      "    \"requests\": %zu, \"failed\": %zu, \"wall_seconds\": %.6g, "
      "\"requests_per_second\": %.6g,\n"
      "    \"served_qps\": %.6g, \"p50_ms\": %.6g, \"p99_ms\": %.6g, "
      "\"peak_connections\": %llu, \"parity\": %s,\n    ",
      socket.clients, socket.rounds, socket.batch,
      socket.requests, socket.failed, socket.wall_seconds,
      socket.requests_per_second, socket.queries_per_second, socket.p50_ms,
      socket.p99_ms,
      static_cast<unsigned long long>(socket.peak_connections),
      socket.parity ? "true" : "false");
  WriteBreakdownJson(f, "queue_wait_us", socket.queue_wait);
  std::fprintf(f, ", ");
  WriteBreakdownJson(f, "kernel_us", socket.kernel);
  std::fprintf(f, ", ");
  WriteBreakdownJson(f, "request_us", socket.request);
  std::fprintf(
      f,
      ",\n    \"stats\": {\"admitted\": %llu, \"shed\": %llu, "
      "\"consistent\": %s}}\n",
      static_cast<unsigned long long>(socket.stats_admitted),
      static_cast<unsigned long long>(socket.stats_shed),
      socket.stats_consistent ? "true" : "false");
  const serve::SynopsisCache::Stats cache = serve::SharedSynopsisCache().stats();
  std::fprintf(
      f,
      "  , \"cache\": {\"resident_bytes\": %zu, \"spill_writes\": %zu, "
      "\"spill_bytes_written\": %zu, \"spill_hits\": %zu, "
      "\"spill_bytes_read\": %zu, \"spill_scan_bytes\": %zu}\n",
      cache.resident_bytes, cache.spill_writes, cache.spill_bytes_written,
      cache.spill_hits, cache.spill_bytes_read, cache.spill_scan_bytes);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

// ── --kernels: compression + batch-kernel microbench ───────────────────────
//
// Measures the v3 (compressed) synopsis envelopes against their transcoded
// v2 (raw-payload) form, times envelope decode, and races the batch-query
// kernels against their reference implementations — all under a
// bit-for-bit parity gate: any divergence between compressed/vectorized
// served answers and the originals fails the phase (exit 1).  Writes
// BENCH_kernels.json, the committed snapshot CI's smoke step regenerates.

/// Runs `body` repeatedly until the measurement is long enough to trust on
/// a busy CI box; returns elapsed seconds and the rep count.
double TimedReps(std::size_t* reps_out, const std::function<void()>& body) {
  std::size_t reps = 0;
  double elapsed = 0.0;
  const auto start = std::chrono::steady_clock::now();
  do {
    body();
    ++reps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < 0.25 || reps < 3);
  *reps_out = reps;
  return elapsed;
}

struct KernelParity {
  bool ok = true;
  void Check(bool condition, const std::string& what) {
    if (!condition) {
      ok = false;
      std::fprintf(stderr, "kernels: PARITY FAILURE: %s\n", what.c_str());
    }
  }
};

std::string SaveMethodToString(const release::Method& method) {
  std::ostringstream out;
  PRIVTREE_CHECK(method.Save(out).ok());
  return std::move(out).str();
}

/// The v3 envelope pulled apart (header checked, body fields parsed,
/// per-backend payload kept raw) so the kernel bench can re-wrap the same
/// synopsis as a v2 envelope and compare sizes honestly.
struct ParsedSynopsis {
  release::MethodMetadata metadata;
  std::string options_text;
  std::string payload;
};

constexpr std::size_t kEnvelopeV3HeaderSize = 36;

ParsedSynopsis ParseV3Envelope(const std::string& bytes) {
  ParsedSynopsis parsed;
  PRIVTREE_CHECK(bytes.size() >= kEnvelopeV3HeaderSize);
  ByteReader body(std::string_view(bytes).substr(kEnvelopeV3HeaderSize));
  std::uint64_t dim = 0, synopsis_size = 0;
  std::int32_t height = 0;
  PRIVTREE_CHECK(body.Str(&parsed.metadata.method));
  PRIVTREE_CHECK(body.Str(&parsed.options_text));
  PRIVTREE_CHECK(body.U64(&dim));
  PRIVTREE_CHECK(body.F64(&parsed.metadata.epsilon_spent));
  PRIVTREE_CHECK(body.U64(&synopsis_size));
  PRIVTREE_CHECK(body.I32(&height));
  parsed.metadata.dim = static_cast<std::size_t>(dim);
  parsed.metadata.synopsis_size = static_cast<std::size_t>(synopsis_size);
  parsed.metadata.height = height;
  parsed.payload = bytes.substr(bytes.size() - body.remaining());
  return parsed;
}

/// Re-encodes a v3 compressed payload as the raw v2 payload the previous
/// format stored, through the public codecs.
std::string TranscodePayloadToV2(const ParsedSynopsis& env) {
  const std::string& name = env.metadata.method;
  ByteReader in(env.payload);
  std::string v2;
  ByteWriter out(&v2);
  if (name == "privtree" || name == "simpletree") {
    DecompTree<SpatialCell> tree;
    std::vector<double> counts;
    PRIVTREE_CHECK(
        ReadSpatialTreeBodyCompressed(in, env.metadata.dim, &tree, &counts)
            .ok());
    WriteSpatialTreeBody(out, tree, counts);
  } else if (name == "kdtree") {
    DecompTree<Box> tree;
    std::vector<double> counts;
    PRIVTREE_CHECK(
        ReadBoxTreeBodyCompressed(in, env.metadata.dim, &tree, &counts).ok());
    WriteBoxTreeBody(out, tree, counts);
  } else if (name == "ag") {
    auto grid = ReadAdaptiveGridBodyCompressed(in);
    PRIVTREE_CHECK(grid.ok());
    out.I64(grid.value().level1_granularity());
    WriteBox(out, grid.value().domain());
    out.F64Span(grid.value().level1_counts());
    for (const GridHistogram& sub : grid.value().level2()) {
      WriteGridHistogram(out, sub);
    }
  } else if (name == "pst_privtree" || name == "ngram") {
    std::uint64_t n = 0;
    std::string packed;
    std::vector<NodeId> parents;
    PRIVTREE_CHECK(in.U64(&n));
    PRIVTREE_CHECK(in.Str(&packed));
    PRIVTREE_CHECK(UnpackDeltaI32(packed, n, &parents));
    out.U64(n);
    if (name == "pst_privtree") {
      const std::size_t beta = env.metadata.dim + 1;  // dim = alphabet size.
      for (std::uint64_t i = 0; i < n; ++i) {
        std::vector<double> hist;
        PRIVTREE_CHECK(in.F64Vec(beta, &hist));
        out.I32(parents[i]);
        out.F64Span(hist);
      }
    } else {
      std::vector<double> counts;
      PRIVTREE_CHECK(in.F64Vec(n, &counts));
      for (std::uint64_t i = 0; i < n; ++i) {
        out.I32(parents[i]);
        out.F64(counts[i]);
      }
    }
  } else {
    // Grid-family payloads are unchanged in v3 (noisy doubles don't pack).
    v2 = env.payload;
    return v2;
  }
  PRIVTREE_CHECK(in.AtEnd());
  return v2;
}

struct EnvelopeRow {
  std::string method;
  std::size_t v3_bytes = 0;
  std::size_t v2_bytes = 0;
  double decode_gbps = 0.0;
};

struct BatchRow {
  std::string path;
  std::size_t queries = 0;
  double reference_qps = 0.0;
  double scalar_qps = 0.0;  ///< 0 when the path has no separate scalar form.
  double simd_qps = 0.0;    ///< The production kernel (simd where compiled).
};

int RunKernelPhase(std::string json_path) {
  if (json_path.empty() || json_path == "BENCH_table4.json") {
    json_path = "BENCH_kernels.json";  // The committed repo-root snapshot.
  }
  KernelParity parity;

  // One skewed 2-d dataset for everything spatial (same shape the tests
  // pin), one mildly-Markovian sequence set for the sequence envelopes.
  const std::size_t point_count = privtree::PaperScale() ? 200000 : 40000;
  Rng data_rng(0x5EED);
  PointSet points(2);
  {
    std::vector<double> p(2);
    for (std::size_t i = 0; i < point_count; ++i) {
      p[0] = data_rng.NextDouble() * data_rng.NextDouble();
      p[1] = data_rng.NextDouble();
      points.Add(p);
    }
  }
  const Box domain = Box::UnitCube(2);
  SequenceDataset sequences(4);
  {
    Rng rng(0x5EC7E57);
    std::vector<Symbol> s;
    for (std::size_t i = 0; i < 1000; ++i) {
      s.clear();
      Symbol last = static_cast<Symbol>(rng.NextBounded(4));
      for (std::size_t j = 0; j <= rng.NextBounded(13); ++j) {
        last = static_cast<Symbol>(rng.NextDouble() < 0.6 ? last
                                                          : rng.NextBounded(4));
        s.push_back(last);
      }
      sequences.Add(s);
    }
    sequences = sequences.Truncate(12);
  }

  Rng query_rng(0xBEEF);
  const std::size_t query_count = privtree::PaperScale() ? 20000 : 4000;
  const std::vector<Box> queries =
      GenerateRangeQueries(domain, query_count, kMediumQueries, query_rng);
  std::vector<release::SequenceQuery> seq_queries;
  seq_queries.push_back(release::SequenceQuery::Frequency({0}));
  seq_queries.push_back(release::SequenceQuery::Frequency({1, 2}));
  seq_queries.push_back(release::SequenceQuery::PrefixCount({0, 1}));
  seq_queries.push_back(release::SequenceQuery::TopK(5, 3));

  // Envelope sweep: size v3 vs v2, decode throughput, and the served-answer
  // parity CI's smoke step relies on (compressed round-trip vs the fit).
  struct EnvelopeCase {
    std::string name;
    release::MethodOptions options;
  };
  const std::vector<EnvelopeCase> cases = {
      {"privtree", {}},        {"simpletree", {{"height", "6"}}},
      {"kdtree", {}},          {"ag", {}},
      {"ug", {}},              {"pst_privtree", {{"l_top", "12"}}},
      {"ngram", {{"l_top", "12"}}},
  };
  std::vector<EnvelopeRow> envelope_rows;
  std::uint64_t seed = 17;
  for (const EnvelopeCase& c : cases) {
    const auto& entry = release::GlobalMethodRegistry().Get(c.name);
    const bool sequence_kind = entry.kind == release::DatasetKind::kSequence;
    auto method = release::GlobalMethodRegistry().Create(c.name, c.options);
    PrivacyBudget budget(1.0);
    Rng rng(seed++);
    if (sequence_kind) {
      method->Fit(release::Dataset(sequences), budget, rng);
    } else {
      method->Fit(points, domain, budget, rng);
    }

    EnvelopeRow row;
    row.method = c.name;
    const std::string v3 = SaveMethodToString(*method);
    row.v3_bytes = v3.size();
    const ParsedSynopsis env = ParseV3Envelope(v3);
    std::ostringstream v2_out;
    PRIVTREE_CHECK(release::WriteSynopsis(v2_out, env.metadata,
                                          env.options_text,
                                          TranscodePayloadToV2(env),
                                          release::kSynopsisFormatVersionV2)
                       .ok());
    row.v2_bytes = std::move(v2_out).str().size();

    // Decode throughput over the compressed envelope.
    std::size_t reps = 0;
    std::shared_ptr<const release::Method> loaded;
    const double secs = TimedReps(&reps, [&] {
      std::istringstream in(v3);
      auto result = release::LoadMethod(in);
      PRIVTREE_CHECK(result.ok());
      loaded = std::move(result.value());
    });
    row.decode_gbps =
        static_cast<double>(v3.size()) * static_cast<double>(reps) / secs / 1e9;

    // Compressed-vs-uncompressed served answers, bit for bit.
    if (sequence_kind) {
      const auto want = method->QueryBatch(std::span(seq_queries));
      const auto got = loaded->QueryBatch(std::span(seq_queries));
      parity.Check(want == got, c.name + ": loaded sequence answers diverge");
    } else {
      const auto want = method->QueryBatch(queries);
      const auto got = loaded->QueryBatch(queries);
      parity.Check(want == got, c.name + ": loaded answers diverge");
    }
    envelope_rows.push_back(row);
  }

  // Batch-kernel races.  Grid: reference vs flat scalar vs SIMD.
  std::vector<BatchRow> batch_rows;
  {
    GridHistogram grid =
        GridHistogram::FromPoints(points, domain, {256, 256});
    Rng noise(0xF00D);
    grid.AddLaplaceNoise(2.0, noise);
    grid.BuildPrefixSums();
    const Grid2DView view = grid.KernelView2D();
    std::vector<double> scalar(queries.size()), simd(queries.size());
    const std::vector<double> reference = grid.QueryBatchReference(queries);
    GridQueryBatch2DScalar(view, queries, scalar.data());
    GridQueryBatch2DSimd(view, queries, simd.data());
    parity.Check(reference == scalar, "grid scalar kernel diverges");
    parity.Check(reference == simd, "grid simd kernel diverges");
    parity.Check(reference == grid.QueryBatch(queries),
                 "grid QueryBatch diverges");

    BatchRow row;
    row.path = "grid_256x256";
    row.queries = queries.size();
    std::size_t reps = 0;
    double secs = TimedReps(&reps, [&] { grid.QueryBatchReference(queries); });
    row.reference_qps =
        static_cast<double>(queries.size()) * static_cast<double>(reps) / secs;
    secs = TimedReps(&reps,
                     [&] { GridQueryBatch2DScalar(view, queries,
                                                  scalar.data()); });
    row.scalar_qps =
        static_cast<double>(queries.size()) * static_cast<double>(reps) / secs;
    secs = TimedReps(
        &reps, [&] { GridQueryBatch2DSimd(view, queries, simd.data()); });
    row.simd_qps =
        static_cast<double>(queries.size()) * static_cast<double>(reps) / secs;
    batch_rows.push_back(row);
  }
  // AG: the reference is the pre-kernel serving path — per query, every
  // overlapped level-1 cell answered through the sub-grid's generic scalar
  // code (GridHistogram::QueryReference), no summed-area table, no kernel
  // views.  The scalar column is QueryBatchReference (SAT interior +
  // GridHistogram::Query boundary, the parity oracle); the kernel column
  // is QueryBatch.  The baseline sums cells in its own order, so it is
  // timing-only; bitwise parity is checked oracle-vs-kernel.
  {
    Rng fit_rng(0xA6);
    const AdaptiveGrid grid(points, domain, 1.0, {}, fit_rng);
    const std::vector<double> reference = grid.QueryBatchReference(queries);
    parity.Check(reference == grid.QueryBatch(queries),
                 "ag QueryBatch diverges");
    const std::int64_t m1 = grid.level1_granularity();
    const Box& ag_domain = grid.domain();
    std::vector<double> naive(queries.size());
    const auto naive_batch = [&] {
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const Box& q = queries[qi];
        std::int64_t lo_cell[2], hi_cell[2];
        bool overlaps = true;
        for (std::size_t j = 0; j < 2; ++j) {
          const double width =
              ag_domain.Width(j) / static_cast<double>(m1);
          const double rel_lo = (q.lo(j) - ag_domain.lo(j)) / width;
          const double rel_hi = (q.hi(j) - ag_domain.lo(j)) / width;
          lo_cell[j] = std::clamp<std::int64_t>(
              static_cast<std::int64_t>(std::floor(rel_lo)), 0, m1 - 1);
          hi_cell[j] = std::clamp<std::int64_t>(
              static_cast<std::int64_t>(std::ceil(rel_hi)) - 1, 0, m1 - 1);
          if (rel_hi <= 0.0 || rel_lo >= static_cast<double>(m1)) {
            overlaps = false;
          }
        }
        double ans = 0.0;
        if (overlaps) {
          for (std::int64_t cx = lo_cell[0]; cx <= hi_cell[0]; ++cx) {
            for (std::int64_t cy = lo_cell[1]; cy <= hi_cell[1]; ++cy) {
              const GridHistogram& sub =
                  grid.level2()[static_cast<std::size_t>(cx * m1 + cy)];
              if (q.Intersects(sub.domain())) ans += sub.QueryReference(q);
            }
          }
        }
        naive[qi] = ans;
      }
    };
    BatchRow row;
    row.path = "ag_sat";
    row.queries = queries.size();
    std::size_t reps = 0;
    double secs = TimedReps(&reps, naive_batch);
    row.reference_qps =
        static_cast<double>(queries.size()) * static_cast<double>(reps) / secs;
    secs = TimedReps(&reps, [&] { grid.QueryBatchReference(queries); });
    row.scalar_qps =
        static_cast<double>(queries.size()) * static_cast<double>(reps) / secs;
    secs = TimedReps(&reps, [&] { grid.QueryBatch(queries); });
    row.simd_qps =
        static_cast<double>(queries.size()) * static_cast<double>(reps) / secs;
    batch_rows.push_back(row);
  }
  // Tree: the template sweep (reference) vs the SoA TreeBatchIndex.
  {
    Rng fit_rng(0x7EE);
    const SpatialHistogram hist =
        BuildPrivTreeHistogram(points, domain, 1.0, {}, fit_rng);
    const auto box_of = [](const SpatialCell& c) -> const Box& {
      return c.box;
    };
    const release::TreeBatchIndex index(hist.tree, hist.count, box_of);
    const std::vector<double> reference = release::BatchQueryTree(
        hist.tree, hist.count, std::span<const Box>(queries), box_of);
    parity.Check(reference == index.Query(queries),
                 "tree SoA batch index diverges");
    BatchRow row;
    row.path = "privtree_tree";
    row.queries = queries.size();
    std::size_t reps = 0;
    double secs = TimedReps(&reps, [&] {
      release::BatchQueryTree(hist.tree, hist.count,
                              std::span<const Box>(queries), box_of);
    });
    row.reference_qps =
        static_cast<double>(queries.size()) * static_cast<double>(reps) / secs;
    secs = TimedReps(&reps, [&] { index.Query(queries); });
    row.simd_qps =
        static_cast<double>(queries.size()) * static_cast<double>(reps) / secs;
    batch_rows.push_back(row);
  }

  // Console report.
  std::printf("Kernel/compression microbench (%s kernels)\n",
              privtree::SimdKernelName());
  TablePrinter envelope_table(
      "Synopsis envelopes: compressed (v3) vs raw (v2) bytes + decode",
      "method", {"v3 bytes", "v2 bytes", "ratio", "decode GB/s"});
  bool size_target_met = true;
  for (const EnvelopeRow& row : envelope_rows) {
    const double ratio = row.v3_bytes > 0 ? static_cast<double>(row.v2_bytes) /
                                                static_cast<double>(row.v3_bytes)
                                          : 0.0;
    envelope_table.AddRow(row.method,
                          {static_cast<double>(row.v3_bytes),
                           static_cast<double>(row.v2_bytes), ratio,
                           row.decode_gbps});
    if ((row.method == "privtree" || row.method == "simpletree" ||
         row.method == "kdtree") &&
        row.v2_bytes < 2 * row.v3_bytes) {
      size_target_met = false;
    }
  }
  envelope_table.Print();
  TablePrinter batch_table(
      "Batch-query kernels: queries/second (reference vs kernels)", "path",
      {"queries", "reference q/s", "scalar q/s", "kernel q/s", "speedup"});
  bool throughput_target_met = true;
  for (const BatchRow& row : batch_rows) {
    const double speedup =
        row.reference_qps > 0.0 ? row.simd_qps / row.reference_qps : 0.0;
    batch_table.AddRow(row.path,
                       {static_cast<double>(row.queries), row.reference_qps,
                        row.scalar_qps, row.simd_qps, speedup});
    if ((row.path == "grid_256x256" || row.path == "ag_sat") &&
        speedup < 2.0) {
      throughput_target_met = false;
    }
  }
  batch_table.Print();
  std::printf("parity (compressed + vectorized vs originals): %s\n",
              parity.ok ? "bit-for-bit identical" : "MISMATCH");
  std::printf("targets: tree envelopes >= 2x smaller: %s; grid/SAT batch "
              ">= 2x faster: %s\n",
              size_target_met ? "met" : "MISSED",
              throughput_target_met ? "met" : "MISSED");

  // JSON snapshot.
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"simd_kernel\": \"%s\",\n",
               privtree::SimdKernelName());
  std::fprintf(f, "  \"paper_scale\": %s,\n",
               privtree::PaperScale() ? "true" : "false");
  std::fprintf(f, "  \"envelopes\": [\n");
  for (std::size_t i = 0; i < envelope_rows.size(); ++i) {
    const EnvelopeRow& row = envelope_rows[i];
    std::fprintf(
        f,
        "    {\"method\": \"%s\", \"v3_bytes\": %zu, \"v2_bytes\": %zu, "
        "\"compression_ratio\": %.4g, \"decode_gbps\": %.4g}%s\n",
        row.method.c_str(), row.v3_bytes, row.v2_bytes,
        row.v3_bytes > 0 ? static_cast<double>(row.v2_bytes) /
                               static_cast<double>(row.v3_bytes)
                         : 0.0,
        row.decode_gbps, i + 1 < envelope_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"batch_query\": [\n");
  for (std::size_t i = 0; i < batch_rows.size(); ++i) {
    const BatchRow& row = batch_rows[i];
    std::fprintf(
        f,
        "    {\"path\": \"%s\", \"queries\": %zu, \"reference_qps\": %.6g, "
        "\"scalar_qps\": %.6g, \"kernel_qps\": %.6g, \"speedup\": %.4g}%s\n",
        row.path.c_str(), row.queries, row.reference_qps, row.scalar_qps,
        row.simd_qps,
        row.reference_qps > 0.0 ? row.simd_qps / row.reference_qps : 0.0,
        i + 1 < batch_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"parity\": %s,\n  \"size_target_met\": %s,\n"
               "  \"throughput_target_met\": %s\n}\n",
               parity.ok ? "true" : "false",
               size_target_met ? "true" : "false",
               throughput_target_met ? "true" : "false");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return parity.ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace privtree

int main(int argc, char** argv) {
  using privtree::FormatCell;
  using privtree::TablePrinter;
  using privtree::bench::DatasetHolder;
  using privtree::bench::DatasetPerf;
  using privtree::bench::MethodPerf;

  std::size_t threads = privtree::serve::DefaultThreadCount();
  std::string json_path;
  std::vector<std::string> datasets = {"road", "gowalla", "nyc",
                                       "beijing", "mooc", "msnbc"};
  std::size_t query_count = privtree::PaperScale() ? 10000 : 2000;
  std::size_t clients = 1;
  bool chaos = false;
  bool kernels = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--kernels") {
      kernels = true;
    } else if (arg.rfind("--kernels=", 0) == 0) {
      kernels = true;
      json_path = arg.substr(std::strlen("--kernels="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<std::size_t>(
          std::atol(arg.c_str() + std::strlen("--threads=")));
    } else if (arg.rfind("--clients=", 0) == 0) {
      clients = static_cast<std::size_t>(
          std::atol(arg.c_str() + std::strlen("--clients=")));
      if (clients == 0) clients = 1;
    } else if (arg == "--json") {
      json_path = "BENCH_table4.json";  // The committed repo-root snapshot.
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
    } else if (arg.rfind("--queries=", 0) == 0) {
      query_count = static_cast<std::size_t>(
          std::atol(arg.c_str() + std::strlen("--queries=")));
    } else if (arg.rfind("--datasets=", 0) == 0) {
      datasets.clear();
      std::string rest = arg.substr(std::strlen("--datasets="));
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        datasets.push_back(rest.substr(0, comma));
        if (comma == std::string::npos) break;
        rest.erase(0, comma + 1);
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads=N] [--json[=PATH]] "
                   "[--datasets=a,b,...] [--queries=N] [--clients=N] "
                   "[--chaos] [--kernels[=PATH]]\n",
                   argv[0]);
      return 2;
    }
  }
  privtree::serve::SetDefaultThreadCount(threads);
  privtree::serve::ThreadPool pool(threads);

  if (kernels) {
    // Compression + batch-kernel microbench instead of the Table-4 sweep:
    // envelope sizes and decode rate, kernel races, bit-for-bit parity
    // gate.  Writes BENCH_kernels.json (or the --kernels=PATH override).
    return privtree::bench::RunKernelPhase(json_path);
  }

  if (chaos) {
    // Resilience run instead of the Table-4 sweep: restart the serving
    // loop under closed-loop load and require zero failed requests.  The
    // first listed spatial dataset carries the traffic.
    std::string chaos_dataset;
    for (const std::string& name : datasets) {
      const DatasetHolder holder = privtree::bench::MakeDatasetHolder(name);
      if (holder.kind != privtree::release::DatasetKind::kSpatial) continue;
      chaos_dataset = name;
      const privtree::bench::ChaosPerf perf =
          privtree::bench::RunChaosPhase(pool, holder, clients);
      std::printf(
          "chaos: %zu clients x 2x%zu rounds across one server restart: "
          "%zu requests, %zu failed, %zu parity mismatches,\n"
          "       %llu retries, %llu reconnects, recovery %.1f ms, "
          "%.0f req/s — %s\n",
          perf.clients, perf.rounds_per_phase, perf.requests, perf.failed,
          perf.mismatches, static_cast<unsigned long long>(perf.retries),
          static_cast<unsigned long long>(perf.reconnects),
          perf.recovery_millis, perf.requests_per_second,
          perf.ok ? "survived transparently" : "FAILED");
      if (json_path.empty() || json_path == "BENCH_table4.json") {
        json_path = "BENCH_chaos.json";  // The committed chaos snapshot.
      }
      privtree::bench::WriteChaosJson(json_path, pool.worker_count(),
                                      chaos_dataset, perf);
      return perf.ok ? 0 : 1;
    }
    std::fprintf(stderr, "error: --chaos needs a spatial dataset\n");
    return 2;
  }

  std::printf(
      "Reproduction of Table 4 (PrivTree, SIGMOD 2016): PrivTree running\n"
      "time in seconds; larger epsilon => deeper trees => more time.\n"
      "Fit sweep sharded across %zu thread(s); every dataset — spatial and\n"
      "sequence — fits through the release registry and serves through an\n"
      "AsyncEngine.\n",
      pool.worker_count());

  std::vector<std::string> columns;
  for (double epsilon : privtree::PaperEpsilons()) {
    columns.push_back("eps=" + FormatCell(epsilon));
  }
  TablePrinter time_table("Table 4: PrivTree running time (seconds)",
                          "dataset", columns);
  TablePrinter size_table("Companion: mean output tree size (nodes)",
                          "dataset", columns);
  // The in-process AsyncEngine closed loop spawns one std::thread per
  // client, so it takes a capped count; the socket phase below takes the
  // full --clients (its driver multiplexes them on one thread).
  const std::size_t engine_clients = std::min<std::size_t>(clients, 16);
  TablePrinter agg_table(
      "Companion: aggregate fit throughput + served workload (" +
          std::to_string(engine_clients) + " closed-loop client" +
          (engine_clients == 1 ? "" : "s") + ")",
      "dataset", {"jobs", "wall s", "fits/s", "async q s", "qps"});

  std::vector<DatasetHolder> holders;
  holders.reserve(datasets.size());
  for (const std::string& name : datasets) {
    holders.push_back(privtree::bench::MakeDatasetHolder(name));
  }

  std::vector<DatasetPerf> perfs;
  std::string sweep_dataset, seq_sweep_dataset;
  std::vector<MethodPerf> methods, seq_methods;
  for (const DatasetHolder& holder : holders) {
    const std::string& name = holder.name;
    DatasetPerf perf = privtree::bench::RunFitSweep(pool, holder);
    privtree::bench::RunServingPhase(pool, holder, query_count,
                                     engine_clients, &perf);
    time_table.AddRow(name, perf.fit_seconds);
    size_table.AddRow(name, perf.synopsis_sizes);
    agg_table.AddRow(name,
                     {static_cast<double>(perf.jobs), perf.wall_seconds,
                      perf.wall_seconds > 0.0
                          ? static_cast<double>(perf.jobs) / perf.wall_seconds
                          : 0.0,
                      perf.async_batch_seconds, perf.closed_loop_qps});
    // One registry sweep per kind, on the first dataset of that kind.
    const bool spatial =
        holder.kind == privtree::release::DatasetKind::kSpatial;
    if (spatial && sweep_dataset.empty()) {
      sweep_dataset = name;
      methods = privtree::bench::RunRegistrySweep(pool, holder, query_count,
                                                  engine_clients);
    } else if (!spatial && seq_sweep_dataset.empty()) {
      seq_sweep_dataset = name;
      seq_methods = privtree::bench::RunRegistrySweep(
          pool, holder, query_count, engine_clients);
    }
    perfs.push_back(std::move(perf));
  }
  time_table.Print();
  size_table.Print();
  agg_table.Print();

  const auto print_sweep = [&](const std::string& dataset,
                               const std::vector<MethodPerf>& rows) {
    if (dataset.empty()) return;
    TablePrinter sweep_table(
        "Companion: registry sweep on " + dataset +
            " (eps=1): fit + serving a " + std::to_string(query_count) +
            "-query workload (async columns via AsyncEngine, " +
            std::to_string(engine_clients) + " closed-loop client" +
            (engine_clients == 1 ? "" : "s") + ")",
        "method",
        {"fit s", "synopsis", "batch q s", "loop q s", "async q s", "qps"});
    for (const MethodPerf& m : rows) {
      sweep_table.AddRow(m.method,
                         {m.fit_seconds_mean, m.synopsis_size_mean,
                          m.batch_query_seconds, m.loop_query_seconds,
                          m.async_batch_seconds, m.closed_loop_qps});
    }
    sweep_table.Print();
  };
  print_sweep(sweep_dataset, methods);
  print_sweep(seq_sweep_dataset, seq_methods);

  // The socket phase: every dataset a tenant of one registry behind the
  // epoll loop, --clients concurrent connections, p50/p99 per
  // request, and a bit-for-bit parity check against the in-process
  // engines.
  const privtree::bench::SocketPerf socket_perf =
      privtree::bench::RunSocketPhase(pool, holders, clients);
  TablePrinter socket_table(
      "Companion: socket serving (epoll loop, " +
          std::to_string(socket_perf.clients) + " connection" +
          (socket_perf.clients == 1 ? "" : "s") + " x " +
          std::to_string(socket_perf.rounds) + " rounds, " +
          std::to_string(socket_perf.batch) + "-query frames)",
      "loop",
      {"requests", "wall s", "req/s", "qps", "p50 ms", "p99 ms", "peak"});
  socket_table.AddRow(
      "epoll",
      {static_cast<double>(socket_perf.requests), socket_perf.wall_seconds,
       socket_perf.requests_per_second, socket_perf.queries_per_second,
       socket_perf.p50_ms, socket_perf.p99_ms,
       static_cast<double>(socket_perf.peak_connections)});
  socket_table.Print();
  std::printf("socket parity (epoll vs in-process): %s\n",
              socket_perf.parity ? "bit-for-bit identical" : "MISMATCH");
  std::printf(
      "socket GetStats: admitted=%llu shed=%llu vs %zu driver requests "
      "(queue-wait p50/p99 %llu/%llu us, kernel p50/p99 %llu/%llu us) — "
      "%s\n",
      static_cast<unsigned long long>(socket_perf.stats_admitted),
      static_cast<unsigned long long>(socket_perf.stats_shed),
      socket_perf.requests,
      static_cast<unsigned long long>(socket_perf.queue_wait.p50_us),
      static_cast<unsigned long long>(socket_perf.queue_wait.p99_us),
      static_cast<unsigned long long>(socket_perf.kernel.p50_us),
      static_cast<unsigned long long>(socket_perf.kernel.p99_us),
      socket_perf.stats_consistent ? "bit-consistent" : "MISMATCH");

  // The closed-loop JSON must never under-report serving coverage: every
  // listed dataset — sequence ones included — and every sweep method row
  // goes through the AsyncEngine path, or this bench fails.
  bool all_served = true;
  for (const DatasetPerf& perf : perfs) {
    if (!perf.served) {
      std::fprintf(stderr,
                   "error: dataset \"%s\" bypassed the AsyncEngine serving "
                   "phase\n",
                   perf.dataset.c_str());
      all_served = false;
    }
  }
  for (const auto& [dataset, rows] :
       {std::make_pair(sweep_dataset, &methods),
        std::make_pair(seq_sweep_dataset, &seq_methods)}) {
    for (const MethodPerf& m : *rows) {
      if (!m.served) {
        std::fprintf(stderr,
                     "error: sweep method %s/%s failed the AsyncEngine "
                     "closed loop\n",
                     dataset.c_str(), m.method.c_str());
        all_served = false;
      }
    }
  }
  if (!socket_perf.ok) {
    std::fprintf(stderr,
                 "error: socket phase failed (%zu failed connections, "
                 "parity %s)\n",
                 socket_perf.failed, socket_perf.parity ? "ok" : "broken");
    all_served = false;
  }
  if (!all_served) return 1;

  if (!json_path.empty()) {
    privtree::bench::WriteJson(json_path, pool.worker_count(),
                               privtree::Repetitions(3), clients, perfs,
                               sweep_dataset, methods, seq_sweep_dataset,
                               seq_methods, socket_perf);
  }
  return 0;
}
