// privtree_cli — build and query released synopses from the command line.
//
//   privtree_cli list
//   privtree_cli run <data.csv> <dim> <epsilon> --method=<name>
//                    [--options=k=v,...] [--threads=N]
//                    (queries on stdin)
//   privtree_cli build <data.csv> <dim> <epsilon> <synopsis.out>
//                    [--method=<name>] [--options=k=v,...]
//   privtree_cli query <synopsis.out>           (queries on stdin)
//   privtree_cli query --connect=<host:port> <epsilon> [--method=<name>]
//                    [--options=k=v,...] [--deadline-ms=N]
//                    [--dataset=<name|fingerprint>]
//                    (queries on stdin)
//   privtree_cli datasets --connect=<host:port>
//   privtree_cli stats --connect=<host:port>
//   privtree_cli shutdown --connect=<host:port>
//
// <dim> selects the dataset kind: a plain integer loads a spatial point
// CSV of that dimensionality; `seq:<alphabet>` loads a sequence dataset
// (one whitespace-separated row of integer symbols per line) over that
// alphabet and defaults --method to pst_privtree.
//
// `list` prints every method in the release registry.  `run` fits any
// registered method through the serving layer — a serve::ParallelRunner
// backed by the process synopsis cache — and answers the stdin query boxes
// with a QueryBatch sharded across --threads workers (default 1, or
// PRIVTREE_THREADS); the synopsis lives only in memory.  The answers are
// identical at any thread count.  `build` fits through the same serving
// path and persists the synopsis — *any* registered method — in the
// universal envelope format (release/serialization.h); `query` re-loads it
// and answers without ever touching the data (persisting a released
// synopsis is pure post-processing, free under DP).  `build` and `run` fit
// with the same deterministic seed, so the on-disk answers match an
// in-memory `run` bit for bit.  A file in any other format (e.g. the
// retired v1 text formats) is refused with InvalidArgument.
//
// `query --connect` answers through a running privtree_server instead: the
// boxes travel over the serving protocol (src/server/protocol.h) and the
// fit happens server-side with the same seed `run` uses, so remote answers
// diff clean against local ones (the CI smoke relies on this).  A
// multi-tenant server (protocol v3) hosts several datasets; `datasets
// --connect` lists them and `query --dataset=<name|fingerprint>` selects
// which tenant answers (default: the first registered).  `shutdown
// --connect` asks that server to exit cleanly.
//
// Spatial query lines are "lo_1 hi_1 ... lo_d hi_d"; sequence query lines
// are "freq s1 s2 ...", "prefix s1 s2 ..." or "topk <k> <max_len>" (see
// release/sequence_query.h).  The answer is printed per line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "dp/rng.h"
#include "release/builtin_methods.h"
#include "release/dataset.h"
#include "release/options.h"
#include "release/registry.h"
#include "release/sequence_query.h"
#include "release/serialization.h"
#include "seq/sequence.h"
#include "serve/parallel_runner.h"
#include "serve/thread_pool.h"
#include "server/client.h"
#include "server/request.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s list\n"
      "  %s run <data.csv> <dim|seq:alphabet> <epsilon> --method=<name> "
      "[--options=k=v,...] [--threads=N]\n"
      "  %s build <data.csv> <dim|seq:alphabet> <epsilon> <synopsis.out> "
      "[--method=<name>] [--options=k=v,...]\n"
      "  %s query <synopsis.out>   (queries on stdin)\n"
      "  %s query --connect=<host:port> <epsilon> [--method=<name>] "
      "[--options=k=v,...] [--deadline-ms=N] [--dataset=<name|fp>]\n"
      "  %s datasets --connect=<host:port>\n"
      "  %s stats --connect=<host:port>\n"
      "  %s shutdown --connect=<host:port>\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// What the <dim|seq:alphabet> positional selected.
struct InputKind {
  bool sequence = false;
  std::size_t dim = 0;  ///< Spatial dim, or the sequence alphabet size.
};

/// Parses "<dim>" (1..8) or "seq:<alphabet>" (1..4096); false on anything
/// else.
bool ParseDimArg(const char* arg, InputKind* out) {
  if (std::strncmp(arg, "seq:", 4) == 0) {
    const long alphabet = std::atol(arg + 4);
    if (alphabet < 1 ||
        alphabet > static_cast<long>(privtree::kMaxAlphabetSize)) {
      return false;
    }
    out->sequence = true;
    out->dim = static_cast<std::size_t>(alphabet);
    return true;
  }
  const long dim = std::atol(arg);
  if (dim < 1 || dim > 8) return false;
  out->sequence = false;
  out->dim = static_cast<std::size_t>(dim);
  return true;
}

/// Flags accepted after the positional arguments.
struct CliFlags {
  std::string method = "privtree";
  privtree::release::MethodOptions options;
  std::size_t threads = privtree::serve::DefaultThreadCount();
  std::int64_t deadline_ms = 0;  ///< Remote-request deadline; 0 = none.
  std::string dataset;  ///< Remote tenant (name or fingerprint); "" = default.
};

/// Parses trailing --method=/--options= flags; returns false (after a
/// diagnostic) on an unknown flag or malformed options text, and on any
/// spec the server would refuse too: the method, options and `epsilon` go
/// through the registry's one screen (MethodRegistry::CheckFit) for the
/// input's kind and dimensionality.
bool ParseFlags(int argc, char** argv, int first_flag, InputKind input,
                double epsilon, CliFlags* flags) {
  if (input.sequence) flags->method = "pst_privtree";
  for (int i = first_flag; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--method=", 0) == 0) {
      flags->method = arg.substr(std::strlen("--method="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      const long parsed = std::atol(arg.c_str() + std::strlen("--threads="));
      if (parsed < 1) {
        std::fprintf(stderr, "error: --threads needs a positive integer\n");
        return false;
      }
      flags->threads = static_cast<std::size_t>(parsed);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      flags->deadline_ms = std::atol(arg.c_str() +
                                     std::strlen("--deadline-ms="));
      if (flags->deadline_ms < 0) {
        std::fprintf(stderr, "error: --deadline-ms needs a non-negative "
                             "integer\n");
        return false;
      }
    } else if (arg.rfind("--dataset=", 0) == 0) {
      flags->dataset = arg.substr(std::strlen("--dataset="));
    } else if (arg.rfind("--options=", 0) == 0) {
      std::string error;
      if (!privtree::release::MethodOptions::TryParse(
              arg.substr(std::strlen("--options=")), &flags->options,
              &error)) {
        std::fprintf(stderr, "error: --options: %s\n", error.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (privtree::Status screened =
          privtree::release::GlobalMethodRegistry().CheckFit(
              flags->method, flags->options, epsilon,
              input.sequence ? privtree::release::DatasetKind::kSequence
                             : privtree::release::DatasetKind::kSpatial,
              input.dim);
      !screened.ok()) {
    std::fprintf(stderr, "error: %s\n", screened.message().c_str());
    return false;
  }
  return true;
}

int RunList() {
  const auto& registry = privtree::release::GlobalMethodRegistry();
  for (const std::string& name : registry.Names()) {
    std::printf("%-12s %s\n", name.c_str(),
                registry.Description(name).c_str());
  }
  return 0;
}

/// Reads "lo_1 hi_1 ... lo_d hi_d" lines from stdin until EOF.  Invalid
/// boxes (lo > hi) are skipped with a diagnostic; a non-numeric token or a
/// truncated final record stops reading with a warning so the caller can
/// tell the workload was cut short.
std::vector<privtree::Box> ReadQueryBoxes(std::size_t dim) {
  std::vector<privtree::Box> out;
  std::vector<double> bounds(2 * dim);
  while (true) {
    bool stop = false;
    for (std::size_t j = 0; j < 2 * dim; ++j) {
      if (std::scanf("%lf", &bounds[j]) != 1) {
        if (!std::feof(stdin)) {
          std::fprintf(stderr,
                       "warning: non-numeric query input after %zu boxes; "
                       "ignoring the rest\n",
                       out.size());
        } else if (j > 0) {
          std::fprintf(stderr,
                       "warning: truncated final query record (%zu of %zu "
                       "coordinates); ignoring it\n",
                       j, 2 * dim);
        }
        stop = true;
        break;
      }
    }
    if (stop) return out;
    std::vector<double> lo(dim), hi(dim);
    bool valid = true;
    for (std::size_t j = 0; j < dim; ++j) {
      lo[j] = bounds[2 * j];
      hi[j] = bounds[2 * j + 1];
      valid = valid && lo[j] <= hi[j];
    }
    if (!valid) {
      std::fprintf(stderr, "warning: skipping box with lo > hi\n");
      continue;
    }
    out.emplace_back(std::move(lo), std::move(hi));
  }
}

/// Reads sequence query lines from stdin until EOF:
///   freq s1 s2 ...      estimated occurrences of the string
///   prefix s1 s2 ...    estimated sequences beginning with the string
///   topk <k> <max_len>  estimated frequency of the k-th most frequent
///                       string of length <= max_len
/// Invalid lines are skipped with a diagnostic (same spirit as the box
/// reader: a typo must not silently shift the answer rows).
std::vector<privtree::release::SequenceQuery> ReadSequenceQueries(
    std::size_t alphabet_size) {
  using privtree::release::SequenceQuery;
  std::vector<SequenceQuery> out;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string verb;
    if (!(in >> verb)) continue;  // Blank line.
    SequenceQuery query;
    if (verb == "freq" || verb == "prefix") {
      query.kind = verb == "freq"
                       ? privtree::release::SequenceQueryKind::kFrequency
                       : privtree::release::SequenceQueryKind::kPrefixCount;
      long symbol = 0;
      while (in >> symbol) {
        if (symbol < 0 || symbol > 0xFFFF) {
          query.symbols.clear();
          break;
        }
        query.symbols.push_back(static_cast<privtree::Symbol>(symbol));
      }
      // A non-numeric trailing token must not silently shorten the query
      // (the answer row would belong to a different question).
      if (!in.eof()) query.symbols.clear();
    } else if (verb == "topk") {
      query.kind = privtree::release::SequenceQueryKind::kTopK;
      long k = 0, max_len = 0;
      std::string extra;
      // Exactly two positive integers; a trailing token must not silently
      // reshape the query (same contract as the freq/prefix branch).
      if (in >> k >> max_len && k > 0 && max_len > 0 && !(in >> extra)) {
        query.k = static_cast<std::uint32_t>(k);
        query.max_len = static_cast<std::uint32_t>(max_len);
      }
    } else {
      std::fprintf(stderr, "warning: skipping query line \"%s\"\n",
                   line.c_str());
      continue;
    }
    if (auto s = privtree::release::ValidateSequenceQuery(query,
                                                          alphabet_size);
        !s.ok()) {
      std::fprintf(stderr, "warning: skipping query line \"%s\": %s\n",
                   line.c_str(), s.message().c_str());
      continue;
    }
    out.push_back(std::move(query));
  }
  return out;
}

/// Loads the CSV; returns nullptr after printing a diagnostic.
std::unique_ptr<privtree::PointSet> LoadPoints(const char* path,
                                               std::size_t dim) {
  auto points = privtree::LoadPointsCsv(path, dim);
  if (!points.ok()) {
    std::fprintf(stderr, "error: %s\n", points.status().ToString().c_str());
    return nullptr;
  }
  if (points.value().empty()) {
    std::fprintf(stderr, "error: %s is empty\n", path);
    return nullptr;
  }
  return std::make_unique<privtree::PointSet>(std::move(points.value()));
}

/// Fits `flags.method` on the CSV through the serving layer (ParallelRunner
/// over the process cache), deriving the release randomness exactly as a
/// ReleaseSession(seed=0xC11) would, so `run` and `build` release the same
/// synopsis.  For spatial input the declared domain is the unit cube;
/// rescale your data accordingly (a data-derived bounding box would leak
/// information).  Sequence input loads one symbol row per line over the
/// declared alphabet.
std::shared_ptr<const privtree::release::Method> FitFromCsv(
    const char* csv_path, InputKind input, double epsilon,
    const CliFlags& flags, privtree::serve::ThreadPool& pool) {
  const privtree::serve::ParallelRunner runner(
      pool, &privtree::serve::SharedSynopsisCache());
  privtree::Rng session_rng(0xC11);
  privtree::serve::FitJob job{flags.method, flags.options, epsilon,
                              session_rng.Fork()};
  std::shared_ptr<const privtree::release::Method> method;
  if (input.sequence) {
    auto sequences = privtree::LoadSequencesCsv(csv_path, input.dim);
    if (!sequences.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   sequences.status().ToString().c_str());
      return nullptr;
    }
    if (sequences.value().empty()) {
      std::fprintf(stderr, "error: %s is empty\n", csv_path);
      return nullptr;
    }
    auto fitted = runner.FitAll(
        privtree::release::Dataset(sequences.value()), {std::move(job)});
    method = std::move(fitted.front());
  } else {
    const auto points = LoadPoints(csv_path, input.dim);
    if (points == nullptr) return nullptr;
    const privtree::Box domain = privtree::Box::UnitCube(input.dim);
    auto fitted = runner.FitAll(*points, domain, {std::move(job)});
    method = std::move(fitted.front());
  }
  const auto metadata = method->Metadata();
  std::fprintf(stderr,
               "fitted %s: synopsis size %zu, epsilon %.4g (%zu thread%s)\n",
               metadata.method.c_str(), metadata.synopsis_size,
               metadata.epsilon_spent, pool.worker_count(),
               pool.worker_count() == 1 ? "" : "s");
  return method;
}

int RunRun(int argc, char** argv) {
  if (argc < 5) return Usage(argv[0]);
  InputKind input;
  if (!ParseDimArg(argv[3], &input)) return Usage(argv[0]);
  const double epsilon = std::atof(argv[4]);
  CliFlags flags;
  if (!ParseFlags(argc, argv, 5, input, epsilon, &flags)) return 2;
  if (!flags.dataset.empty()) {
    std::fprintf(stderr, "error: --dataset only applies to --connect\n");
    return 2;
  }

  privtree::serve::SetDefaultThreadCount(flags.threads);
  privtree::serve::ThreadPool pool(flags.threads);
  const auto method = FitFromCsv(argv[2], input, epsilon, flags, pool);
  if (method == nullptr) return 1;

  if (input.sequence) {
    // One unsharded batch, exactly as the serving engine answers it: the
    // batch-level top-k memo then runs each distinct (k, max_len) mining
    // pass once instead of once per shard.
    const auto queries = ReadSequenceQueries(input.dim);
    for (const double answer : method->QueryBatch(std::span(queries))) {
      std::printf("%.2f\n", answer);
    }
    return 0;
  }
  const std::vector<privtree::Box> queries = ReadQueryBoxes(input.dim);
  for (const double answer :
       privtree::serve::ParallelQueryBatch(pool, *method, queries)) {
    std::printf("%.2f\n", answer);
  }
  return 0;
}

int RunBuild(int argc, char** argv) {
  if (argc < 6) return Usage(argv[0]);
  InputKind input;
  if (!ParseDimArg(argv[3], &input)) return Usage(argv[0]);
  const double epsilon = std::atof(argv[4]);
  const std::string out_path = argv[5];
  CliFlags flags;
  if (!ParseFlags(argc, argv, 6, input, epsilon, &flags)) return 2;
  if (!flags.dataset.empty()) {
    std::fprintf(stderr, "error: --dataset only applies to --connect\n");
    return 2;
  }

  // Every registered method persists through the universal synopsis
  // envelope; the fit is identical to `run` with the same arguments.
  privtree::serve::SetDefaultThreadCount(flags.threads);
  privtree::serve::ThreadPool pool(flags.threads);
  const auto method = FitFromCsv(argv[2], input, epsilon, flags, pool);
  if (method == nullptr) return 1;

  if (auto s = privtree::release::SaveMethodToFile(*method, out_path);
      !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  const auto metadata = method->Metadata();
  std::fprintf(stderr,
               "wrote %s: method %s, synopsis size %zu, height %d, "
               "epsilon %.4g\n",
               out_path.c_str(), metadata.method.c_str(),
               metadata.synopsis_size, metadata.height,
               metadata.epsilon_spent);
  return 0;
}

/// Splits "--connect=host:port"; false (after a diagnostic) when malformed.
bool ParseConnect(const std::string& arg, std::string* host,
                  std::uint16_t* port) {
  const std::string value = arg.substr(std::strlen("--connect="));
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == value.size()) {
    std::fprintf(stderr, "error: --connect needs host:port (got \"%s\")\n",
                 value.c_str());
    return false;
  }
  const long parsed = std::atol(value.c_str() + colon + 1);
  if (parsed <= 0 || parsed > 65535) {
    std::fprintf(stderr, "error: --connect port out of range\n");
    return false;
  }
  *host = value.substr(0, colon);
  *port = static_cast<std::uint16_t>(parsed);
  return true;
}

/// The CLI's remote calls ride the resilient client: a few retries with
/// short backoff absorb transient resets and server restarts, while the
/// client itself keeps non-idempotent frames (Shutdown) single-shot.
privtree::server::ClientOptions ResilientClientOptions() {
  privtree::server::ClientOptions options;
  options.max_attempts = 4;
  options.base_backoff_millis = 25;
  options.max_backoff_millis = 1000;
  return options;
}

/// Resolves a --dataset selector (tenant name, or a fingerprint in decimal
/// or 0x-hex) against the Hello tenant table; false after a diagnostic.
bool ResolveTenant(const privtree::server::HelloReply& info,
                   const std::string& selector,
                   privtree::server::DatasetInfo* out) {
  for (const auto& dataset : info.datasets) {
    if (dataset.name == selector) {
      *out = dataset;
      return true;
    }
  }
  char* end = nullptr;
  const unsigned long long parsed =
      std::strtoull(selector.c_str(), &end, 0);
  if (end != nullptr && *end == '\0' && !selector.empty()) {
    for (const auto& dataset : info.datasets) {
      if (dataset.fingerprint == parsed) {
        *out = dataset;
        return true;
      }
    }
  }
  std::fprintf(stderr,
               "error: server hosts no dataset \"%s\" (see `privtree_cli "
               "datasets --connect=...`)\n",
               selector.c_str());
  return false;
}

/// `query --connect=<host:port> <epsilon> [--method=...]`: fit + query
/// through a running privtree_server.  The fit seed is the one `run` and
/// `build` use (0xC11), so the remote answers diff clean against local
/// execution on the same data.
int RunRemoteQuery(int argc, char** argv) {
  if (argc < 4) return Usage(argv[0]);
  std::string host;
  std::uint16_t port = 0;
  if (!ParseConnect(argv[2], &host, &port)) return 2;
  const double epsilon = std::atof(argv[3]);

  auto connected = privtree::server::Client::Connect(host, port,
                                                  ResilientClientOptions());
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  privtree::server::Client client = std::move(connected).value();
  // The Hello handshake tells the client what is served: the dataset kind
  // picks the query frame, and dim is the spatial dim or the alphabet.
  // --dataset switches those to the selected tenant's shape, so scan for
  // it before validating the method against the input kind.
  InputKind input;
  input.sequence =
      client.info().kind == privtree::release::DatasetKind::kSequence;
  input.dim = static_cast<std::size_t>(client.info().dim);
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dataset=", 0) != 0) continue;
    privtree::server::DatasetInfo tenant;
    if (!ResolveTenant(client.info(),
                       arg.substr(std::strlen("--dataset=")), &tenant)) {
      return 2;
    }
    client.SelectDataset(tenant.fingerprint);
    input.sequence =
        tenant.kind == privtree::release::DatasetKind::kSequence;
    input.dim = static_cast<std::size_t>(tenant.dim);
  }
  CliFlags flags;
  if (!ParseFlags(argc, argv, 4, input, epsilon, &flags)) return 2;

  const privtree::server::FitSpec spec{flags.method, flags.options, epsilon,
                                       /*seed=*/0xC11};
  const auto fitted = client.Fit(spec, flags.deadline_ms);
  if (!fitted.ok()) {
    std::fprintf(stderr, "error: %s\n", fitted.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "fitted %s on %s:%u: synopsis size %zu, epsilon %.4g%s\n",
               fitted.value().metadata.method.c_str(), host.c_str(), port,
               fitted.value().metadata.synopsis_size,
               fitted.value().metadata.epsilon_spent,
               fitted.value().cache_hit ? " (cache hit)" : "");

  privtree::Result<std::vector<double>> answers =
      privtree::Status::Internal("unreachable");
  if (input.sequence) {
    const auto queries = ReadSequenceQueries(input.dim);
    answers = client.SeqQueryBatch(spec, queries, flags.deadline_ms);
  } else {
    const std::vector<privtree::Box> queries = ReadQueryBoxes(input.dim);
    answers = client.QueryBatch(spec, queries, flags.deadline_ms);
  }
  if (!answers.ok()) {
    std::fprintf(stderr, "error: %s\n", answers.status().ToString().c_str());
    return 1;
  }
  for (const double answer : answers.value()) {
    std::printf("%.2f\n", answer);
  }
  return 0;
}

/// `datasets --connect=<host:port>`: list every tenant the server hosts,
/// plus this session's ε budget when the server enforces one.
int RunDatasets(int argc, char** argv) {
  if (argc != 3 || std::strncmp(argv[2], "--connect=", 10) != 0) {
    return Usage(argv[0]);
  }
  std::string host;
  std::uint16_t port = 0;
  if (!ParseConnect(argv[2], &host, &port)) return 2;
  auto connected = privtree::server::Client::Connect(host, port,
                                                  ResilientClientOptions());
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  const privtree::server::HelloReply& info = connected.value().info();
  std::printf("%-16s %-8s %6s %10s  %s\n", "name", "kind", "dim", "records",
              "fingerprint");
  for (std::size_t i = 0; i < info.datasets.size(); ++i) {
    const auto& dataset = info.datasets[i];
    std::printf("%-16s %-8s %6llu %10llu  0x%016llx%s\n",
                dataset.name.c_str(),
                std::string(privtree::release::DatasetKindName(dataset.kind))
                    .c_str(),
                static_cast<unsigned long long>(dataset.dim),
                static_cast<unsigned long long>(dataset.point_count),
                static_cast<unsigned long long>(dataset.fingerprint),
                i == 0 ? "  (default)" : "");
  }
  if (info.budget_total > 0) {
    std::printf("session budget: %.4g of %.4g epsilon spent\n",
                info.budget_spent, info.budget_total);
  }
  return 0;
}

/// `stats --connect=<host:port>`: print the server's live observability
/// snapshot — the whole metrics registry plus trace-ring and fault-point
/// sections — as one JSON object (protocol v5 GetStats).
int RunStats(int argc, char** argv) {
  if (argc != 3 || std::strncmp(argv[2], "--connect=", 10) != 0) {
    return Usage(argv[0]);
  }
  std::string host;
  std::uint16_t port = 0;
  if (!ParseConnect(argv[2], &host, &port)) return 2;
  auto connected = privtree::server::Client::Connect(host, port,
                                                  ResilientClientOptions());
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  auto json = connected.value().GetStatsJson();
  if (!json.ok()) {
    std::fprintf(stderr, "error: %s\n", json.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", json.value().c_str());
  return 0;
}

int RunShutdown(int argc, char** argv) {
  if (argc != 3 || std::strncmp(argv[2], "--connect=", 10) != 0) {
    return Usage(argv[0]);
  }
  std::string host;
  std::uint16_t port = 0;
  if (!ParseConnect(argv[2], &host, &port)) return 2;
  auto connected = privtree::server::Client::Connect(host, port,
                                                  ResilientClientOptions());
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  if (privtree::Status s = connected.value().Shutdown(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "asked %s:%u to shut down\n", host.c_str(), port);
  return 0;
}

int RunQuery(int argc, char** argv) {
  if (argc >= 3 && std::strncmp(argv[2], "--connect=", 10) == 0) {
    return RunRemoteQuery(argc, argv);
  }
  if (argc != 3) return Usage(argv[0]);
  auto method = privtree::release::LoadMethodFromFile(argv[2]);
  if (!method.ok()) {
    std::fprintf(stderr, "error: %s\n", method.status().ToString().c_str());
    return 1;
  }
  const auto metadata = method.value()->Metadata();
  const bool sequence =
      privtree::release::GlobalMethodRegistry().Kind(metadata.method) ==
      privtree::release::DatasetKind::kSequence;
  std::fprintf(stderr,
               "loaded %s: method %s, %s %zu, synopsis size %zu, "
               "epsilon %.4g\n",
               argv[2], metadata.method.c_str(),
               sequence ? "alphabet" : "dim", metadata.dim,
               metadata.synopsis_size, metadata.epsilon_spent);
  if (sequence) {
    const auto queries = ReadSequenceQueries(metadata.dim);
    for (const double answer :
         method.value()->QueryBatch(std::span(queries))) {
      std::printf("%.2f\n", answer);
    }
    return 0;
  }
  const std::vector<privtree::Box> queries = ReadQueryBoxes(metadata.dim);
  for (const double answer : method.value()->QueryBatch(queries)) {
    std::printf("%.2f\n", answer);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  if (std::strcmp(argv[1], "list") == 0) return RunList();
  if (std::strcmp(argv[1], "run") == 0) return RunRun(argc, argv);
  if (std::strcmp(argv[1], "build") == 0) return RunBuild(argc, argv);
  if (std::strcmp(argv[1], "query") == 0) return RunQuery(argc, argv);
  if (std::strcmp(argv[1], "datasets") == 0) return RunDatasets(argc, argv);
  if (std::strcmp(argv[1], "stats") == 0) return RunStats(argc, argv);
  if (std::strcmp(argv[1], "shutdown") == 0) return RunShutdown(argc, argv);
  return Usage(argv[0]);
}
