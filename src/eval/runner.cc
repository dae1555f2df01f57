#include "eval/runner.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "dp/budget.h"
#include "dp/check.h"
#include "eval/metrics.h"
#include "release/registry.h"
#include "serve/parallel_runner.h"

namespace privtree {

bool PaperScale() {
  const char* value = std::getenv("PRIVTREE_PAPER_SCALE");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

std::size_t Repetitions(std::size_t quick_default) {
  if (const char* value = std::getenv("PRIVTREE_REPS")) {
    const long parsed = std::strtol(value, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return PaperScale() ? 100 : quick_default;
}

std::size_t ScaledCardinality(std::size_t paper_n, std::size_t quick_n) {
  return PaperScale() ? paper_n : std::min(paper_n, quick_n);
}

double MeanOverReps(std::size_t reps, std::uint64_t seed,
                    const std::function<double(Rng&)>& body) {
  PRIVTREE_CHECK_GE(reps, 1u);
  Rng master(seed);
  double total = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    Rng rng = master.Fork();
    total += body(rng);
  }
  return total / static_cast<double>(reps);
}

namespace {

/// Default options for one registry method: the grid-discretized backends
/// take their cell budget from the sweep configuration; everything else
/// runs on its built-in defaults.
release::MethodOptions DefaultSpecOptions(const std::string& name,
                                          std::int64_t discretization_cells) {
  release::MethodOptions options;
  if (name == "dawa" || name == "wavelet") {
    options.Set("target_total_cells", std::to_string(discretization_cells));
  }
  return options;
}

/// Paper-style column label, from the registry record (falls back to the
/// registry name when a backend registered no display label).
std::string DisplayName(const std::string& name) {
  const auto& entry = release::GlobalMethodRegistry().Get(name);
  return entry.display.empty() ? name : entry.display;
}

}  // namespace

std::vector<MethodSpec> ComparativeLineup(std::size_t dim,
                                          std::int64_t discretization_cells) {
  std::vector<std::string> order = {"privtree", "ug"};
  if (dim == 2) {
    order.push_back("ag");
    order.push_back("hierarchy");
  }
  order.push_back("dawa");
  order.push_back("wavelet");

  std::vector<MethodSpec> out;
  out.reserve(order.size());
  for (const std::string& name : order) {
    PRIVTREE_CHECK(release::GlobalMethodRegistry().Contains(name));
    out.push_back({name, DisplayName(name),
                   DefaultSpecOptions(name, discretization_cells)});
  }
  return out;
}

std::vector<MethodSpec> SequenceSpecs(std::size_t l_top) {
  std::vector<MethodSpec> out;
  for (const std::string& name : release::GlobalMethodRegistry().Names(
           release::DatasetKind::kSequence)) {
    release::MethodOptions options;
    options.Set("l_top", std::to_string(l_top));
    out.push_back({name, DisplayName(name), std::move(options)});
  }
  return out;
}

double RegistryMethodError(const MethodSpec& spec, const PointSet& points,
                           const Box& domain, double epsilon,
                           const std::vector<Box>& queries,
                           const std::vector<double>& exact,
                           std::size_t reps, std::uint64_t seed) {
  return RegistryMethodErrorBands(spec, points, domain, epsilon, {queries},
                                  {exact}, reps, seed)[0];
}

std::vector<double> RegistryMethodErrorBands(
    const MethodSpec& spec, const PointSet& points, const Box& domain,
    double epsilon, const std::vector<std::vector<Box>>& band_queries,
    const std::vector<std::vector<double>>& band_exact, std::size_t reps,
    std::uint64_t seed) {
  PRIVTREE_CHECK_GE(reps, 1u);
  PRIVTREE_CHECK_EQ(band_queries.size(), band_exact.size());
  for (std::size_t band = 0; band < band_queries.size(); ++band) {
    PRIVTREE_CHECK_EQ(band_queries[band].size(), band_exact[band].size());
  }
  const double smoothing = DefaultSmoothing(points.size());

  // Every job's randomness is forked here, on one thread, in rep order —
  // the execution schedule can then not perturb any synopsis.
  Rng master(seed);
  std::vector<serve::FitJob> jobs;
  jobs.reserve(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    jobs.push_back({spec.name, spec.options, epsilon, master.Fork()});
  }
  const serve::ParallelRunner runner(serve::SharedPool(),
                                     &serve::SharedSynopsisCache());
  const auto fitted = runner.FitAll(points, domain, std::move(jobs));

  // Per-(rep, band) errors land in fixed slots; the final reduction runs in
  // rep order, so the mean is identical at any thread count.
  std::vector<std::vector<double>> errors(
      reps, std::vector<double>(band_queries.size(), 0.0));
  serve::SharedPool().ParallelFor(reps, [&](std::size_t rep) {
    for (std::size_t band = 0; band < band_queries.size(); ++band) {
      const std::vector<Box>& queries = band_queries[band];
      if (queries.empty()) continue;
      const std::vector<double> answers = fitted[rep]->QueryBatch(queries);
      double total = 0.0;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        total += RelativeError(answers[q], band_exact[band][q], smoothing);
      }
      errors[rep][band] = total / static_cast<double>(queries.size());
    }
  });

  std::vector<double> means(band_queries.size(), 0.0);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t band = 0; band < band_queries.size(); ++band) {
      means[band] += errors[rep][band];
    }
  }
  for (double& m : means) m /= static_cast<double>(reps);
  return means;
}

double RegistrySequenceMethodError(
    const MethodSpec& spec, const SequenceDataset& data, double epsilon,
    const std::vector<release::SequenceQuery>& queries,
    const std::vector<double>& exact, std::size_t reps, std::uint64_t seed) {
  PRIVTREE_CHECK_GE(reps, 1u);
  PRIVTREE_CHECK_EQ(queries.size(), exact.size());
  const double smoothing = DefaultSmoothing(data.size());

  Rng master(seed);
  std::vector<serve::FitJob> jobs;
  jobs.reserve(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    jobs.push_back({spec.name, spec.options, epsilon, master.Fork()});
  }
  const serve::ParallelRunner runner(serve::SharedPool(),
                                     &serve::SharedSynopsisCache());
  const auto fitted =
      runner.FitAll(release::Dataset(data), std::move(jobs));

  std::vector<double> errors(reps, 0.0);
  serve::SharedPool().ParallelFor(reps, [&](std::size_t rep) {
    if (queries.empty()) return;
    const std::vector<double> answers =
        fitted[rep]->QueryBatch(std::span(queries));
    double total = 0.0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      total += RelativeError(answers[q], exact[q], smoothing);
    }
    errors[rep] = total / static_cast<double>(queries.size());
  });

  double mean = 0.0;
  for (const double e : errors) mean += e;
  return mean / static_cast<double>(reps);
}

double RegistrySequenceModelMetric(
    const MethodSpec& spec, const SequenceDataset& data, double epsilon,
    std::size_t reps, std::uint64_t seed,
    const std::function<double(const SequenceModel&, Rng&)>& metric) {
  PRIVTREE_CHECK_GE(reps, 1u);

  // Fit streams are forked first, then the metric streams, all on one
  // thread in rep order — neither the execution schedule nor the metric's
  // own draws can perturb any synopsis or any other rep's metric.
  Rng master(seed);
  std::vector<serve::FitJob> jobs;
  jobs.reserve(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    jobs.push_back({spec.name, spec.options, epsilon, master.Fork()});
  }
  std::vector<Rng> metric_rngs;
  metric_rngs.reserve(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    metric_rngs.push_back(master.Fork());
  }
  const serve::ParallelRunner runner(serve::SharedPool(),
                                     &serve::SharedSynopsisCache());
  const auto fitted = runner.FitAll(release::Dataset(data), std::move(jobs));

  std::vector<double> values(reps, 0.0);
  serve::SharedPool().ParallelFor(reps, [&](std::size_t rep) {
    const SequenceModel* model = fitted[rep]->sequence_model();
    PRIVTREE_CHECK(model != nullptr);
    values[rep] = metric(*model, metric_rngs[rep]);
  });

  double mean = 0.0;
  for (const double v : values) mean += v;
  return mean / static_cast<double>(reps);
}

}  // namespace privtree
