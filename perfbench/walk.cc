// pbtool walk: the traced run's in-process half.  Times the public call of
// each layer on the workload's own inputs (the generated CSV and the plan's
// query frames), one layer at a time, and writes the per-layer metrics as
// one JSON object.  A layer's self time is its call's time minus the time
// of the call one layer below it on the same input:
//
//   server.dispatch_self_us = Dispatcher::HandleFrame → done
//                             − AsyncEngine::SubmitQueryBatch → Get
//   server.engine_self_us   = SubmitQueryBatch → Get − Method::QueryBatch
//   spatial.decompose_ms    = BuildPrivTreeHistogram − MortonIndex build
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/csv.h"
#include "dp/budget.h"
#include "dp/rng.h"
#include "pbtool.h"
#include "release/dataset.h"
#include "release/registry.h"
#include "release/serialization.h"
#include "serve/synopsis_cache.h"
#include "serve/thread_pool.h"
#include "server/async_engine.h"
#include "server/dataset_registry.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "spatial/morton_index.h"
#include "spatial/spatial_histogram.h"

namespace perfbench {
namespace {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double Mean(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

template <typename F>
double TimeUs(F&& body) {
  const auto start = Clock::now();
  body();
  return Micros(Clock::now() - start);
}

/// Fits `method` at `epsilon` exactly as the serving path derives the
/// release randomness from a release id (Rng(id).Fork()).
std::unique_ptr<privtree::release::Method> FitRelease(
    const privtree::release::Dataset& data, const std::string& method,
    double epsilon, std::uint64_t release) {
  auto fitted = privtree::release::GlobalMethodRegistry().Create(method);
  privtree::PrivacyBudget budget(epsilon);
  privtree::Rng root(release);
  privtree::Rng rng = root.Fork();
  fitted->Fit(data, budget, rng);
  return fitted;
}

/// Spins until `flag` is set (the pool hand-off and dispatch completions
/// are microseconds long; a condition variable would dominate them).
void SpinUntil(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

}  // namespace

int WalkMain(int argc, char** argv) {
  const Plan plan = ReadPlan(Flag(argc, argv, "plan"));
  auto loaded = privtree::LoadPointsCsv(Flag(argc, argv, "csv"), 2);
  if (!loaded.ok()) Die("walk: " + loaded.status().ToString());
  const privtree::PointSet points = std::move(loaded).value();
  const privtree::Box domain = privtree::Box::UnitCube(2);
  const privtree::release::Dataset data(points, domain);
  std::map<std::string, double> out;

  // --- spatial + release fit path, always on privtree: the served ε (the
  // ε sweep on fit_cold).
  const std::vector<double> sweep = plan.fit_sweep.empty()
                                        ? std::vector<double>{plan.epsilon}
                                        : plan.fit_sweep;
  const std::size_t reps = plan.fit_sweep.empty() ? 3 : 1;
  std::vector<double> index_ms, build_ms, fit_ms, save_ms, load_ms, env_kb;
  double visited = 0.0;
  for (std::size_t s = 0; s < sweep.size(); ++s) {
    const std::uint64_t release =
        plan.fit_sweep.empty() ? plan.release : plan.fit_release_base + s;
    std::vector<double> idx, build;
    for (std::size_t r = 0; r < reps; ++r) {
      idx.push_back(TimeUs([&] { privtree::MortonIndex index(points, domain); }) /
                    1e3);
      privtree::Rng rng(release);
      privtree::SpatialHistogram hist;
      build.push_back(TimeUs([&] {
                        hist = privtree::BuildPrivTreeHistogram(
                            points, domain, sweep[s], {}, rng);
                      }) /
                      1e3);
      if (r == 0) visited += static_cast<double>(hist.stats.nodes_visited);
    }
    index_ms.push_back(Median(idx));
    build_ms.push_back(Median(build));
    std::unique_ptr<privtree::release::Method> fitted;
    fit_ms.push_back(TimeUs([&] {
                       fitted = FitRelease(data, "privtree", sweep[s],
                                           release);
                     }) /
                     1e3);
    std::ostringstream envelope;
    save_ms.push_back(TimeUs([&] {
                        if (!fitted->Save(envelope).ok()) Die("walk: save");
                      }) /
                      1e3);
    const std::string bytes = envelope.str();
    env_kb.push_back(static_cast<double>(bytes.size()) / 1024.0);
    load_ms.push_back(TimeUs([&] {
                        std::istringstream in(bytes);
                        if (!privtree::release::LoadMethod(in).ok()) {
                          Die("walk: load");
                        }
                      }) /
                      1e3);
  }
  out["spatial.index_build_ms"] = Mean(index_ms);
  out["spatial.decompose_ms"] = Mean(build_ms) - Mean(index_ms);
  out["spatial.nodes_visited"] = visited;
  out["release.fit_ms"] = Mean(fit_ms);
  out["release.save_ms"] = Mean(save_ms);
  out["release.load_ms"] = Mean(load_ms);
  out["release.envelope_kb"] = Mean(env_kb);

  // --- query kernels on the workload's frames.
  std::size_t boxes = 0;
  for (const auto& frame : plan.frames) boxes += frame.size();
  auto kernel_per_box_ns = [&](const privtree::release::Method& method) {
    std::size_t passes = 0;
    double total_us = 0.0;
    while (total_us < 3e5 || passes < 3) {
      for (const auto& frame : plan.frames) {
        total_us += TimeUs([&] {
          const auto answers = method.QueryBatch(frame);
          if (answers.size() != frame.size()) Die("walk: kernel answers");
        });
      }
      ++passes;
    }
    return total_us * 1e3 / static_cast<double>(passes * boxes);
  };
  const auto tree = FitRelease(data, "privtree", plan.epsilon, plan.release);
  const auto grid = FitRelease(data, "ug", plan.epsilon, plan.release);
  out["release.tree_query_us_per_box"] = kernel_per_box_ns(*tree) / 1e3;
  out["release.grid_query_ns_per_box"] = kernel_per_box_ns(*grid);
  const privtree::release::Method& served =
      plan.method == "ug" ? *grid : *tree;

  // --- serve: pool hand-off and resident-key cache hits.
  privtree::serve::ThreadPool pool(2);
  std::vector<double> handoff;
  for (int i = 0; i < 2000; ++i) {
    std::atomic<bool> ran{false};
    Clock::time_point started;
    const auto submitted = Clock::now();
    pool.Submit([&] {
      started = Clock::now();
      ran.store(true, std::memory_order_release);
    });
    SpinUntil(ran);
    handoff.push_back(Micros(started - submitted));
  }
  out["serve.pool_handoff_us"] = Median(handoff);

  privtree::serve::SynopsisCache cache(64);
  {
    const privtree::serve::SynopsisKey key{1, plan.method, "", plan.epsilon,
                                           plan.release};
    std::shared_ptr<const privtree::release::Method> resident =
        FitRelease(data, plan.method, plan.epsilon, plan.release);
    const auto fit = [&] { return resident; };
    (void)cache.GetOrFit(key, fit);  // Populate.
    constexpr int kHits = 20000;
    out["serve.cache_hit_us"] =
        TimeUs([&] {
          for (int i = 0; i < kHits; ++i) {
            if (cache.GetOrFit(key, fit) == nullptr) Die("walk: cache");
          }
        }) /
        kHits;
  }

  // --- server: engine, dispatcher and codec on the same frames.
  privtree::server::FitSpec spec;
  spec.method = plan.method;
  spec.epsilon = plan.epsilon;
  spec.seed = plan.release;
  privtree::server::AsyncEngine engine(points, domain, pool, cache);
  privtree::server::DatasetRegistry registry(pool, cache);
  if (!registry.Register("default", data).ok()) Die("walk: register");
  privtree::server::Dispatcher dispatcher(registry);
  const auto session = dispatcher.NewSession();
  // Warm both paths (the first request fits the release).
  (void)engine.SubmitQueryBatch(spec, plan.frames[0]).Get();

  std::vector<double> kernel_us, engine_us, dispatch_us, codec_us, bytes;
  const std::size_t rounds = std::max<std::size_t>(1, 2000 / plan.frames.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& frame : plan.frames) {
      kernel_us.push_back(TimeUs([&] { (void)served.QueryBatch(frame); }));
      const auto engine_call = [&] {
        // Polled like the dispatcher's completion below, so neither side
        // pays a sleeping thread's wake-up.
        const auto future = engine.SubmitQueryBatch(spec, frame);
        while (!future.Ready()) std::this_thread::yield();
        if (!future.Get().status.ok()) Die("walk: engine");
      };

      privtree::server::QueryBatchRequest request;
      request.spec = spec;
      request.queries = frame;
      const std::string payload = privtree::server::EncodeQueryBatch(request);
      std::string reply;
      const auto dispatch_call = [&] {
        std::atomic<bool> done{false};
        bool shutdown = false;
        dispatcher.HandleFrame(payload, session, &shutdown,
                               [&](std::string r) {
                                 reply = std::move(r);
                                 done.store(true, std::memory_order_release);
                               });
        SpinUntil(done);
      };
      // Alternate which layer runs first, so neither always finds the
      // frame warm in cache.
      if (r % 2 == 0) engine_us.push_back(TimeUs(engine_call));
      dispatch_us.push_back(TimeUs(dispatch_call));
      if (r % 2 == 1) engine_us.push_back(TimeUs(engine_call));

      privtree::server::QueryBatchReply decoded;
      codec_us.push_back(TimeUs([&] {
        privtree::server::QueryBatchRequest back;
        const std::string encoded = privtree::server::EncodeQueryBatch(request);
        if (!privtree::server::DecodeQueryBatch(encoded, &back).ok() ||
            !privtree::server::DecodeQueryBatchReply(reply, &decoded).ok()) {
          Die("walk: codec");
        }
        privtree::server::QueryBatchReply again{decoded.answers,
                                                decoded.cache_hit};
        (void)privtree::server::EncodeQueryBatchReply(again);
      }));
      bytes.push_back(static_cast<double>(payload.size() + reply.size() + 8));
    }
  }
  out["server.engine_self_us"] = Median(engine_us) - Median(kernel_us);
  out["server.dispatch_self_us"] = Median(dispatch_us) - Median(engine_us);
  out["server.codec_us"] = Median(codec_us);
  out["server.frame_bytes"] = Mean(bytes);
  out["walk.kernel_us_per_frame"] = Median(kernel_us);

  std::FILE* file = std::fopen(Flag(argc, argv, "out").c_str(), "w");
  if (file == nullptr) Die("walk: cannot write the result file");
  std::fprintf(file, "{");
  bool first = true;
  for (const auto& [name, value] : out) {
    std::fprintf(file, "%s\"%s\":%.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(file, "}\n");
  if (std::fclose(file) != 0) Die("walk: result write failed");
  return 0;
}

}  // namespace perfbench
