// Table 4: running time of PrivTree (seconds) on all six datasets as a
// function of ε, with the mean output tree size as a companion table.  The
// paper's shape to check: road and msnbc are the slowest (largest
// cardinality), and the cost *increases* with ε because a smaller ε means
// a larger bias term and therefore earlier stopping.
//
// The whole (ε × rep) fit sweep — spatial *and* sequence — is sharded
// through one serve::ParallelRunner over a release::Dataset: every name
// resolves through one descriptor table (unknown names fail loudly), every
// fit goes through the registry, and the released synopses are bit-for-bit
// independent of the thread count (each job carries its own pre-forked
// Rng).  A spatial dataset's Morton index is shared by every tree fit over
// it, so it is built once before the timed sweep and reported on its own
// (`index_build_s`) rather than charged to whichever ε happens to fit
// first.
//
//   bench_table4_runtime [--threads=N] [--json[=PATH]] [--datasets=a,b,...]
//
// The time table prints the median fit time per ε over the repetitions
// (PRIVTREE_REPS, default 5).  --json writes the median and quartiles per
// ε, the mean tree size and an environment block (commit, build type,
// nproc, CPU); a bare --json writes BENCH_table4.json, the committed
// repo-root snapshot.  The bench exits 1 when that file cannot be written.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_seq_common.h"
#include "eval/table.h"
#include "release/dataset.h"
#include "serve/parallel_runner.h"
#include "serve/thread_pool.h"

namespace privtree {
namespace bench {
namespace {

/// One benchmarked dataset behind the uniform release::Dataset view, with
/// no per-name branching outside MakeDatasetHolder.
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
  /// Distinct master seeds per kind, unchanged across the JSON trajectory.
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

/// Median and quartiles of one ε column's fit times.
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

/// Linear-interpolation quantile of an ascending, non-empty sample.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Spread SpreadOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {Quantile(samples, 0.5), Quantile(samples, 0.25),
          Quantile(samples, 0.75)};
}

/// Per-dataset sweep results, for the tables and the JSON trail.
struct DatasetPerf {
  std::string dataset;
  std::string kind;  // "spatial" or "sequence".
  // Seconds to build the shared Morton index; NaN for sequence data.
  double index_build_seconds = std::nan("");
  std::vector<Spread> fit_seconds;     // Per ε, in PaperEpsilons order.
  std::vector<double> synopsis_sizes;  // Mean per ε.
  std::size_t jobs = 0;                // ε grid × reps.
  double wall_seconds = 0.0;           // Wall clock of the whole sweep.
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The Table-4 fit sweep — one code path for both kinds: per-(ε, rep) jobs
/// with pre-forked Rngs, sharded by the runner over the registry method.
DatasetPerf RunFitSweep(serve::ThreadPool& pool, const DatasetHolder& h,
                        std::size_t reps) {
  const serve::ParallelRunner runner(pool);  // Uncached: this bench times fits.
  // Every copy of `data` shares one lazily built Morton index; building it
  // here keeps it out of the first timed fit.
  const release::Dataset data = h.View();
  DatasetPerf perf;
  perf.dataset = h.name;
  perf.kind = std::string(release::DatasetKindName(h.kind));
  if (h.kind == release::DatasetKind::kSpatial) {
    const auto start = std::chrono::steady_clock::now();
    data.morton_index();
    perf.index_build_seconds = SecondsSince(start);
  }

  std::vector<serve::FitJob> jobs;
  jobs.reserve(PaperEpsilons().size() * reps);
  for (double epsilon : PaperEpsilons()) {
    Rng master(h.FitSeed());
    for (std::size_t rep = 0; rep < reps; ++rep) {
      jobs.push_back({h.FitMethod(), h.FitOptions(), epsilon, master.Fork()});
    }
  }
  perf.jobs = jobs.size();
  const auto start = std::chrono::steady_clock::now();
  const std::vector<serve::FitResult> results =
      runner.FitAllTimed(data, std::move(jobs));
  perf.wall_seconds = SecondsSince(start);

  for (std::size_t e = 0; e < PaperEpsilons().size(); ++e) {
    std::vector<double> times;
    double total_nodes = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const serve::FitResult& r = results[e * reps + rep];
      times.push_back(r.fit_seconds);
      total_nodes += static_cast<double>(r.method->Metadata().synopsis_size);
    }
    perf.fit_seconds.push_back(SpreadOf(std::move(times)));
    perf.synopsis_sizes.push_back(total_nodes / static_cast<double>(reps));
  }
  return perf;
}

/// The snapshot's environment block.  The commit is read with git from the
/// source tree the bench was configured from, suffixed "-dirty" when that
/// tree has uncommitted changes.
std::string EnvironmentJson() {
  std::string commit = "unknown";
  if (std::FILE* git = popen("git -C '" PRIVTREE_SOURCE_DIR
                             "' describe --always --dirty --abbrev=40 "
                             "2>/dev/null",
                             "r")) {
    char line[128] = {};
    if (std::fgets(line, sizeof(line), git) != nullptr) {
      commit.assign(line, std::strcspn(line, "\r\n"));
    }
    pclose(git);
  }
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  return "{\"commit\": \"" + commit + "\", \"build_type\": \"" +
         PRIVTREE_BUILD_TYPE + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + cpu + "\"}";
}

/// Writes one JSON array of `values[i].*field` (or of plain doubles).
template <typename T, typename Get>
void WriteArray(std::FILE* f, const std::vector<T>& values, Get get) {
  std::fprintf(f, "[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.6g", i ? ", " : "", get(values[i]));
  }
  std::fprintf(f, "]");
}

/// Returns false (after a diagnostic) when `path` cannot be written.
bool WriteJson(const std::string& path, std::size_t threads, std::size_t reps,
               const std::vector<DatasetPerf>& datasets) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"environment\": %s,\n", EnvironmentJson().c_str());
  std::fprintf(f, "  \"threads\": %zu,\n  \"reps\": %zu,\n", threads, reps);
  std::fprintf(f, "  \"paper_scale\": %s,\n  \"epsilons\": ",
               PaperScale() ? "true" : "false");
  WriteArray(f, PaperEpsilons(), [](double v) { return v; });
  std::fprintf(f, ",\n  \"table4\": [\n");
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    const DatasetPerf& d = datasets[i];
    std::fprintf(f, "    {\"dataset\": \"%s\", \"kind\": \"%s\", ",
                 d.dataset.c_str(), d.kind.c_str());
    if (std::isnan(d.index_build_seconds)) {
      std::fprintf(f, "\"index_build_s\": null,\n");
    } else {
      std::fprintf(f, "\"index_build_s\": %.6g,\n", d.index_build_seconds);
    }
    std::fprintf(f, "     \"fit_seconds_median\": ");
    WriteArray(f, d.fit_seconds, [](const Spread& s) { return s.median; });
    std::fprintf(f, ",\n     \"fit_seconds_q1\": ");
    WriteArray(f, d.fit_seconds, [](const Spread& s) { return s.q1; });
    std::fprintf(f, ",\n     \"fit_seconds_q3\": ");
    WriteArray(f, d.fit_seconds, [](const Spread& s) { return s.q3; });
    std::fprintf(f, ",\n     \"synopsis_size_mean\": ");
    WriteArray(f, d.synopsis_sizes, [](double v) { return v; });
    std::fprintf(f,
                 ",\n     \"fit_jobs\": %zu, \"fit_wall_seconds\": %.6g}%s\n",
                 d.jobs, d.wall_seconds, i + 1 < datasets.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace privtree

int main(int argc, char** argv) {
  using privtree::FormatCell;
  using privtree::TablePrinter;
  using privtree::bench::DatasetPerf;

  std::size_t threads = privtree::serve::DefaultThreadCount();
  std::string json_path;
  std::vector<std::string> datasets = {"road", "gowalla", "nyc",
                                       "beijing", "mooc", "msnbc"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<std::size_t>(
          std::atol(arg.c_str() + std::strlen("--threads=")));
    } else if (arg == "--json") {
      json_path = "BENCH_table4.json";  // The committed repo-root snapshot.
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json="));
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
                   "[--datasets=a,b,...]\n",
                   argv[0]);
      return 2;
    }
  }
  privtree::serve::SetDefaultThreadCount(threads);
  privtree::serve::ThreadPool pool(threads);
  const std::size_t reps = privtree::Repetitions(5);

  std::printf(
      "Reproduction of Table 4 (PrivTree, SIGMOD 2016): PrivTree running\n"
      "time in seconds; larger epsilon => deeper trees => more time.\n"
      "Fit sweep sharded across %zu thread(s), median of %zu rep(s); the\n"
      "shared Morton index of a spatial dataset is built once, before the\n"
      "sweep, and timed on its own (\"index\").\n",
      pool.worker_count(), reps);

  std::vector<std::string> columns;
  for (double epsilon : privtree::PaperEpsilons()) {
    columns.push_back("eps=" + FormatCell(epsilon));
  }
  std::vector<std::string> time_columns = {"index"};
  time_columns.insert(time_columns.end(), columns.begin(), columns.end());
  TablePrinter time_table("Table 4: PrivTree running time (seconds)",
                          "dataset", time_columns);
  TablePrinter size_table("Companion: mean output tree size (nodes)",
                          "dataset", columns);

  std::vector<DatasetPerf> perfs;
  for (const std::string& name : datasets) {
    const privtree::bench::DatasetHolder holder =
        privtree::bench::MakeDatasetHolder(name);
    DatasetPerf perf = privtree::bench::RunFitSweep(pool, holder, reps);
    std::vector<double> times = {perf.index_build_seconds};
    for (const auto& spread : perf.fit_seconds) times.push_back(spread.median);
    time_table.AddRow(name, times);
    size_table.AddRow(name, perf.synopsis_sizes);
    perfs.push_back(std::move(perf));
  }
  time_table.Print();
  size_table.Print();

  if (!json_path.empty() &&
      !privtree::bench::WriteJson(json_path, pool.worker_count(), reps,
                                  perfs)) {
    return 1;
  }
  return 0;
}
