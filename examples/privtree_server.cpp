// privtree_server — serve DP synopses of one or more datasets over a
// socket.
//
//   privtree_server <data.csv> <dim|seq:alphabet> [flags]
//   privtree_server --data=<name>:<path>:<dim|seq:alphabet> [--data=...]
//                   [flags]
//
// Flags: [--port=N] [--threads=N] [--cache=N] [--max-queue=N]
//        [--max-pending-spills=N] [--spill-dir=PATH]
//        [--idle-timeout-ms=N] [--drain-timeout-ms=N]
//        [--max-connections=N]
//        [--session-budget=EPS] [--no-uploads]
//        [--stats-file=PATH] [--stats-interval-ms=N] [--trace-slow-ms=N]
//
// A plain <dim> loads a spatial point CSV (domain: the unit cube — rescale
// your data; a data-derived bounding box would leak); `seq:<alphabet>`
// loads a sequence dataset (one whitespace-separated symbol row per line)
// and serves the sequence-kind methods (pst_privtree, ngram) through
// SeqQueryBatch frames instead of box batches.  Repeated --data flags host
// several tenants in one process: each dataset gets its own AsyncEngine
// behind a shared ThreadPool and SynopsisCache, keyed by its fingerprint
// (clients select tenants per request; the first --data is the default).
// Clients may also upload datasets at runtime via RegisterDataset frames
// unless --no-uploads.
//
// One epoll EventLoop multiplexes every connection; frames route through
// one Dispatcher, so served answers equal in-process ReleaseSession
// answers for the same seed bit-for-bit.  --session-budget caps each
// connection's total ε across its fits (0 = unlimited).  The process runs
// until a client sends Shutdown (`privtree_cli shutdown --connect=...`) or
// it is signalled.
//
// Observability: --stats-file=PATH snapshots the whole metrics registry
// (the same JSON a GetStats frame returns) to PATH every
// --stats-interval-ms (default 1000), atomically via rename, plus one
// final snapshot at exit; --trace-slow-ms=N logs the full span breakdown
// of any request slower than N milliseconds to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.h"
#include "data/csv.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "release/dataset.h"
#include "seq/sequence.h"
#include "serve/parallel_runner.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/dataset_registry.h"
#include "server/dispatcher.h"
#include "server/event/event_loop.h"
#include "server/socket.h"
#include "spatial/box.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <data.csv> <dim|seq:alphabet> [flags]\n"
      "       %s --data=<name>:<path>:<dim|seq:alphabet> [--data=...] "
      "[flags]\n"
      "flags: [--port=N] [--threads=N] [--cache=N] [--max-queue=N]\n"
      "       [--max-pending-spills=N] [--spill-dir=PATH]\n"
      "       [--idle-timeout-ms=N] [--drain-timeout-ms=N]\n"
      "       [--max-connections=N]\n"
      "       [--session-budget=EPS] [--no-uploads]\n"
      "       [--stats-file=PATH] [--stats-interval-ms=N] "
      "[--trace-slow-ms=N]\n",
      argv0, argv0);
  return 2;
}

/// Snapshots the metrics registry to `path` every `interval_ms` until
/// Stop(), plus once more on the way out (so a short-lived server still
/// leaves its final numbers behind).
class StatsFileWriter {
 public:
  StatsFileWriter(std::string path, std::size_t interval_ms)
      : path_(std::move(path)), interval_ms_(interval_ms) {
    writer_ = std::thread([this] { Run(); });
  }

  ~StatsFileWriter() { Stop(); }

  void Stop() {
    {
      privtree::MutexLock lk(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.NotifyAll();
    writer_.join();
    privtree::obs::WriteStatsFile(path_);  // The final snapshot.
  }

 private:
  void Run() {
    privtree::MutexLock lk(mu_);
    while (!stopped_) {
      cv_.WaitFor(lk, std::chrono::milliseconds(interval_ms_));
      if (stopped_) break;
      lk.Unlock();
      if (!privtree::obs::WriteStatsFile(path_)) {
        std::fprintf(stderr,
                     "privtree_server: stats snapshot to %s failed\n",
                     path_.c_str());
      }
      lk.Lock();
    }
  }

  const std::string path_;
  const std::size_t interval_ms_;
  privtree::Mutex mu_;
  privtree::CondVar cv_;
  bool stopped_ GUARDED_BY(mu_) = false;
  std::thread writer_;
};

struct DataSpec {
  std::string name;
  std::string path;
  bool sequence = false;
  std::size_t dim = 0;  ///< Spatial dim or alphabet size.
};

struct ServerFlags {
  std::uint16_t port = 7311;
  std::size_t threads = privtree::serve::DefaultThreadCount();
  std::size_t cache_capacity = 64;
  std::size_t max_queue = 256;
  std::size_t max_pending_spills = 128;
  std::string spill_dir;
  std::size_t idle_timeout_ms = 30000;
  std::size_t drain_timeout_ms = 5000;
  std::size_t max_connections = 4096;
  double session_budget = 0.0;
  bool allow_uploads = true;
  std::string stats_file;
  std::size_t stats_interval_ms = 1000;
  std::size_t trace_slow_ms = 0;
};

bool ParseSizeFlag(const std::string& arg, const char* name,
                   std::size_t* out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  const long parsed = std::atol(arg.c_str() + prefix.size());
  if (parsed < 0) {
    std::fprintf(stderr, "error: %s needs a non-negative integer\n", name);
    std::exit(2);
  }
  *out = static_cast<std::size_t>(parsed);
  return true;
}

/// Parses "<dim>" or "seq:<alphabet>" into (sequence, dim); 0 on failure.
bool ParseDimSpec(const char* text, bool* sequence, std::size_t* dim) {
  *sequence = std::strncmp(text, "seq:", 4) == 0;
  *dim = static_cast<std::size_t>(
      std::atol(*sequence ? text + 4 : text));
  return *dim != 0 &&
         *dim <= (*sequence ? privtree::kMaxAlphabetSize : std::size_t{8});
}

/// Parses "--data=<name>:<path>:<dimspec>".  The name is everything before
/// the first ':'.  The dimspec is either the piece after the last ':' (a
/// spatial dim) or — since a sequence dimspec "seq:<alphabet>" carries a
/// ':' of its own — a trailing ":seq:<alphabet>"; the path, which may
/// itself contain ':', is everything in between.
bool ParseDataFlag(const std::string& arg, DataSpec* out) {
  if (arg.rfind("--data=", 0) != 0) return false;
  const std::string body = arg.substr(std::strlen("--data="));
  const std::size_t first = body.find(':');
  if (first == std::string::npos) {
    std::fprintf(stderr, "error: --data needs <name>:<path>:<dimspec>\n");
    std::exit(2);
  }
  out->name = body.substr(0, first);
  const std::string rest = body.substr(first + 1);
  const std::size_t seq = rest.rfind(":seq:");
  std::size_t split = std::string::npos;  // Path/dimspec boundary.
  if (seq != std::string::npos &&
      ParseDimSpec(rest.c_str() + seq + 1, &out->sequence, &out->dim)) {
    split = seq;
  } else {
    const std::size_t last = rest.rfind(':');
    if (last != std::string::npos &&
        ParseDimSpec(rest.c_str() + last + 1, &out->sequence, &out->dim)) {
      split = last;
    }
  }
  if (split == std::string::npos) {
    std::fprintf(stderr, "error: bad --data spec '%s'\n", body.c_str());
    std::exit(2);
  }
  out->path = rest.substr(0, split);
  if (out->name.empty() || out->path.empty()) {
    std::fprintf(stderr, "error: bad --data spec '%s'\n", body.c_str());
    std::exit(2);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<DataSpec> data;
  int flag_start = 1;
  // Legacy positional form: <data.csv> <dim|seq:alphabet> first.
  if (argc >= 3 && argv[1][0] != '-') {
    DataSpec spec;
    spec.name = "default";
    spec.path = argv[1];
    if (!ParseDimSpec(argv[2], &spec.sequence, &spec.dim)) {
      return Usage(argv[0]);
    }
    data.push_back(std::move(spec));
    flag_start = 3;
  }

  ServerFlags flags;
  for (int i = flag_start; i < argc; ++i) {
    const std::string arg = argv[i];
    std::size_t port_value = 0;
    DataSpec data_spec;
    if (ParseDataFlag(arg, &data_spec)) {
      data.push_back(std::move(data_spec));
    } else if (ParseSizeFlag(arg, "--port", &port_value)) {
      if (port_value > 65535) {
        std::fprintf(stderr, "error: --port out of range\n");
        return 2;
      }
      flags.port = static_cast<std::uint16_t>(port_value);
    } else if (ParseSizeFlag(arg, "--threads", &flags.threads) ||
               ParseSizeFlag(arg, "--cache", &flags.cache_capacity) ||
               ParseSizeFlag(arg, "--max-queue", &flags.max_queue) ||
               ParseSizeFlag(arg, "--max-pending-spills",
                             &flags.max_pending_spills) ||
               ParseSizeFlag(arg, "--idle-timeout-ms",
                             &flags.idle_timeout_ms) ||
               ParseSizeFlag(arg, "--drain-timeout-ms",
                             &flags.drain_timeout_ms) ||
               ParseSizeFlag(arg, "--max-connections",
                             &flags.max_connections) ||
               ParseSizeFlag(arg, "--stats-interval-ms",
                             &flags.stats_interval_ms) ||
               ParseSizeFlag(arg, "--trace-slow-ms",
                             &flags.trace_slow_ms)) {
    } else if (arg.rfind("--stats-file=", 0) == 0) {
      flags.stats_file = arg.substr(std::strlen("--stats-file="));
    } else if (arg.rfind("--spill-dir=", 0) == 0) {
      flags.spill_dir = arg.substr(std::strlen("--spill-dir="));
    } else if (arg.rfind("--session-budget=", 0) == 0) {
      flags.session_budget =
          std::atof(arg.c_str() + std::strlen("--session-budget="));
      if (flags.session_budget < 0) {
        std::fprintf(stderr, "error: --session-budget must be >= 0\n");
        return 2;
      }
    } else if (arg == "--no-uploads") {
      flags.allow_uploads = false;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (data.empty()) return Usage(argv[0]);

  privtree::serve::SetDefaultThreadCount(flags.threads);
  privtree::serve::ThreadPool pool(flags.threads);
  auto cache =
      flags.spill_dir.empty()
          ? std::make_unique<privtree::serve::SynopsisCache>(
                flags.cache_capacity)
          : std::make_unique<privtree::serve::SynopsisCache>(
                flags.cache_capacity,
                privtree::serve::SpillOptions{flags.spill_dir, 256});

  privtree::server::DatasetRegistryOptions registry_options;
  registry_options.engine.admission.max_queue_depth = flags.max_queue;
  registry_options.engine.admission.max_pending_spills =
      flags.max_pending_spills;
  privtree::server::DatasetRegistry registry(pool, *cache,
                                             registry_options);

  // Load every dataset into the registry; the registry owns the storage.
  for (DataSpec& spec : data) {
    privtree::Result<std::uint64_t> registered =
        privtree::Status::Internal("unreachable");
    if (spec.sequence) {
      auto loaded = privtree::LoadSequencesCsv(spec.path, spec.dim);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s: %s\n", spec.path.c_str(),
                     loaded.status().ToString().c_str());
        return 1;
      }
      registered = registry.Register(spec.name, std::move(loaded).value());
    } else {
      auto loaded = privtree::LoadPointsCsv(spec.path, spec.dim);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s: %s\n", spec.path.c_str(),
                     loaded.status().ToString().c_str());
        return 1;
      }
      registered =
          registry.Register(spec.name, std::move(loaded).value(),
                            privtree::Box::UnitCube(spec.dim));
    }
    if (!registered.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", spec.name.c_str(),
                   registered.status().ToString().c_str());
      return 1;
    }
  }

  privtree::server::DispatcherOptions dispatch_options;
  dispatch_options.session_budget = flags.session_budget;
  dispatch_options.allow_uploads = flags.allow_uploads;
  privtree::server::Dispatcher dispatcher(registry, dispatch_options);

  if (flags.trace_slow_ms > 0) {
    privtree::obs::TraceRing::Global().SetSlowThresholdMillis(
        static_cast<std::int64_t>(flags.trace_slow_ms));
  }
  std::unique_ptr<StatsFileWriter> stats_writer;
  if (!flags.stats_file.empty()) {
    stats_writer = std::make_unique<StatsFileWriter>(
        flags.stats_file, std::max<std::size_t>(1, flags.stats_interval_ms));
  }

  auto listener = privtree::server::ListenSocket::Listen(flags.port);
  if (!listener.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 listener.status().ToString().c_str());
    return 1;
  }

  privtree::server::EventLoopOptions loop_options;
  loop_options.idle_timeout = std::chrono::milliseconds(flags.idle_timeout_ms);
  loop_options.drain_timeout =
      std::chrono::milliseconds(flags.drain_timeout_ms);
  loop_options.max_connections = flags.max_connections;
  privtree::server::EventLoop loop(dispatcher, std::move(listener).value(),
                                   loop_options);
  std::fprintf(stderr,
               "privtree_server listening on 127.0.0.1:%u "
               "(epoll, %zu tenant%s, %zu worker%s, cache %zu)\n",
               loop.port(), registry.size(), registry.size() == 1 ? "" : "s",
               pool.worker_count(), pool.worker_count() == 1 ? "" : "s",
               flags.cache_capacity);
  std::fflush(stderr);
  const privtree::Status served = loop.Run();
  const auto loop_stats = loop.stats();
  std::fprintf(stderr,
               "privtree_server event loop: %llu accepted, %llu frames, "
               "%llu reaped idle, %llu malformed, %llu refused\n",
               static_cast<unsigned long long>(loop_stats.accepted),
               static_cast<unsigned long long>(loop_stats.served_frames),
               static_cast<unsigned long long>(loop_stats.reaped_idle),
               static_cast<unsigned long long>(loop_stats.malformed_frames),
               static_cast<unsigned long long>(
                   loop_stats.refused_at_capacity));
  if (stats_writer) stats_writer->Stop();
  if (!served.ok()) {
    std::fprintf(stderr, "error: %s\n", served.ToString().c_str());
    return 1;
  }
  const auto stats =
      registry.Find(registry.default_fingerprint())->Stats();
  std::fprintf(stderr,
               "privtree_server stopped: %zu admitted, %zu shed "
               "(queue), %zu shed (cache), %zu expired, %zu coalesced\n",
               stats.admission.admitted, stats.admission.shed_queue_full,
               stats.admission.shed_cache_saturated, stats.admission.expired,
               stats.admission.coalesced_fits);
  return 0;
}
