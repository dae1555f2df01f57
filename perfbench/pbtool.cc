// pbtool — the benchmark's native half.  run.py drives it; see README.md.
//
//   pbtool gen  --seed=S --points=N --plan=PLAN --csv=OUT --exact=OUT
//       Generates the road-like dataset from the seed, writes it as the CSV
//       the server loads, and writes the exact count of every rel_error box.
//   pbtool load --plan=PLAN --port=P --out=OUT [--spans=OUT] [--setup-only]
//       Drives a running privtree_server through the plan (see load.cc).
//   pbtool walk --plan=PLAN --csv=CSV --out=OUT
//       Times the public calls of each layer in process (see walk.cc).
//   pbtool mre  --exact=FILE --answers=FILE --points=N
//       Prints eval::MeanRelativeError of the answers (the tests compare
//       run.py's own rel_error arithmetic against it).
#include "pbtool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "eval/metrics.h"
#include "spatial/point_set.h"

namespace perfbench {

void Die(const std::string& message) {
  std::fprintf(stderr, "pbtool: %s\n", message.c_str());
  std::exit(1);
}

std::string Flag(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

std::vector<privtree::Box> Plan::RelBoxes() const {
  std::vector<privtree::Box> out;
  for (std::size_t f = 0; f < rel_frames; ++f) {
    out.insert(out.end(), frames[f].begin(), frames[f].end());
  }
  return out;
}

Plan ReadPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read plan " + path);
  Plan plan;
  std::string key;
  auto box = [&in] {
    double lo0, hi0, lo1, hi1;
    in >> lo0 >> hi0 >> lo1 >> hi1;
    return privtree::Box({lo0, lo1}, {hi0, hi1});
  };
  while (in >> key) {
    if (key == "workload") {
      in >> plan.workload;
    } else if (key == "method") {
      in >> plan.method;
    } else if (key == "epsilon") {
      in >> plan.epsilon;
    } else if (key == "release") {
      in >> plan.release;
    } else if (key == "points") {
      in >> plan.points;
    } else if (key == "boxes_per_frame") {
      in >> plan.boxes_per_frame;
    } else if (key == "frames") {
      std::size_t count = 0;
      in >> count;
      plan.frames.assign(count, {});
      for (auto& frame : plan.frames) {
        for (std::size_t b = 0; b < plan.boxes_per_frame; ++b) {
          frame.push_back(box());
        }
      }
    } else if (key == "rel_frames") {
      in >> plan.rel_frames;
    } else if (key == "open_offsets_us") {
      std::size_t count = 0;
      in >> count;
      plan.open_offsets_us.resize(count);
      for (auto& offset : plan.open_offsets_us) in >> offset;
    } else if (key == "sat_seconds") {
      in >> plan.sat_seconds;
    } else if (key == "sat_window") {
      in >> plan.sat_window;
    } else if (key == "fit_sweep") {
      std::size_t count = 0;
      in >> count;
      plan.fit_sweep.resize(count);
      for (auto& eps : plan.fit_sweep) in >> eps;
    } else if (key == "fit_seconds") {
      in >> plan.fit_seconds;
    } else if (key == "fit_release_base") {
      in >> plan.fit_release_base;
    } else {
      Die("unknown plan key " + key);
    }
    if (!in) Die("malformed plan value for " + key);
  }
  if (plan.rel_frames > plan.frames.size()) Die("rel_frames > frames");
  if (plan.points == 0) Die("plan has no point count");
  return plan;
}

std::vector<double> ReadDoubles(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<double> out;
  double v = 0.0;
  while (in >> v) out.push_back(v);
  return out;
}

namespace {

/// splitmix64: the dataset must depend on the seed alone, never on the
/// library's Rng (which later changes to noise derivation may touch).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Normal() {
    const double u = 1.0 - Uniform();  // (0, 1]
    return std::sqrt(-2.0 * std::log(u)) *
           std::cos(6.283185307179586 * Uniform());
  }
  std::size_t Pick(const std::vector<double>& cumulative) {
    const double u = Uniform() * cumulative.back();
    return static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
  }

 private:
  std::uint64_t state_;
};

double Clamp(double v) { return std::min(std::max(v, 0.0), 0.999999999); }

/// Road-like 2-d points: Zipf-popular city blobs joined to their two
/// nearest neighbours by thin corridors, over a sparse background — the
/// skew that lets PrivTree grow deep trees.  The map (cities and roads) is
/// fixed; the seed draws the points, so runs on different seeds see the
/// same kind of data and differ by sampling alone.
std::vector<double> RoadLike(std::size_t n, std::uint64_t seed) {
  SplitMix map(0x726f61646d6170ULL);
  constexpr std::size_t kCities = 48;
  std::vector<double> cx(kCities), cy(kCities), sigma(kCities);
  std::vector<double> city_cum(kCities);
  double total = 0.0;
  for (std::size_t i = 0; i < kCities; ++i) {
    cx[i] = 0.05 + 0.9 * map.Uniform();
    cy[i] = 0.05 + 0.9 * map.Uniform();
    sigma[i] = 0.002 + 0.004 * map.Uniform();
    total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    city_cum[i] = total;
  }
  std::vector<std::pair<std::size_t, std::size_t>> roads;
  std::vector<double> road_cum;
  total = 0.0;
  for (std::size_t i = 0; i < kCities; ++i) {
    std::vector<std::pair<double, std::size_t>> by_distance;
    for (std::size_t j = 0; j < kCities; ++j) {
      if (j == i) continue;
      by_distance.emplace_back(std::hypot(cx[i] - cx[j], cy[i] - cy[j]), j);
    }
    std::partial_sort(by_distance.begin(), by_distance.begin() + 2,
                      by_distance.end());
    for (int e = 0; e < 2; ++e) {
      const std::size_t j = by_distance[static_cast<std::size_t>(e)].second;
      roads.emplace_back(i, j);
      total += 2.0 / std::pow(static_cast<double>(i + 1), 1.1) +
               1.0 / std::pow(static_cast<double>(j + 1), 1.1);
      road_cum.push_back(total);
    }
  }
  SplitMix rng(seed);
  std::vector<double> coords;
  coords.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mode = rng.Uniform();
    double x, y;
    if (mode < 0.55) {
      const std::size_t c = rng.Pick(city_cum);
      x = cx[c] + sigma[c] * rng.Normal();
      y = cy[c] + sigma[c] * rng.Normal();
    } else if (mode < 0.97) {
      const auto [a, b] = roads[rng.Pick(road_cum)];
      const double t = rng.Uniform();
      x = cx[a] + t * (cx[b] - cx[a]) + 0.0015 * rng.Normal();
      y = cy[a] + t * (cy[b] - cy[a]) + 0.0015 * rng.Normal();
    } else {
      x = rng.Uniform();
      y = rng.Uniform();
    }
    coords.push_back(Clamp(x));
    coords.push_back(Clamp(y));
  }
  return coords;
}

}  // namespace

int GenMain(int argc, char** argv) {
  const std::uint64_t seed = std::strtoull(Flag(argc, argv, "seed").c_str(),
                                           nullptr, 10);
  const std::size_t n = std::strtoull(Flag(argc, argv, "points").c_str(),
                                      nullptr, 10);
  const std::string csv = Flag(argc, argv, "csv");
  const std::string exact_path = Flag(argc, argv, "exact");
  if (n == 0 || csv.empty() || exact_path.empty()) Die("gen: missing flags");
  const Plan plan = ReadPlan(Flag(argc, argv, "plan"));

  // Each coordinate is written with 9 decimals and read back with strtod,
  // exactly as the server's CSV loader does, so exact counts are computed
  // on the very values the server holds.
  std::vector<double> coords = RoadLike(n, seed);
  std::FILE* out = std::fopen(csv.c_str(), "w");
  if (out == nullptr) Die("gen: cannot write " + csv);
  char line[64];
  for (std::size_t i = 0; i < coords.size(); i += 2) {
    const int len = std::snprintf(line, sizeof(line), "%.9f,%.9f\n",
                                  coords[i], coords[i + 1]);
    std::fwrite(line, 1, static_cast<std::size_t>(len), out);
    char* end = nullptr;
    coords[i] = std::strtod(line, &end);
    coords[i + 1] = std::strtod(end + 1, nullptr);
  }
  if (std::fclose(out) != 0) Die("gen: write failed for " + csv);

  // Exact counts (Box membership: lo <= x < hi) over points sorted by x,
  // so each box scans only its x-slab.
  std::vector<std::pair<double, double>> by_x;
  by_x.reserve(n);
  for (std::size_t i = 0; i < coords.size(); i += 2) {
    by_x.emplace_back(coords[i], coords[i + 1]);
  }
  std::sort(by_x.begin(), by_x.end());
  const std::vector<privtree::Box> boxes = plan.RelBoxes();
  std::vector<double> exact;
  for (const privtree::Box& box : boxes) {
    auto it = std::lower_bound(by_x.begin(), by_x.end(),
                               std::make_pair(box.lo(0), -1.0));
    std::size_t count = 0;
    for (; it != by_x.end() && it->first < box.hi(0); ++it) {
      count += it->second >= box.lo(1) && it->second < box.hi(1);
    }
    exact.push_back(static_cast<double>(count));
  }
  // Cross-check a prefix against the library's own ground truth.
  const privtree::PointSet points(2, std::move(coords));
  for (std::size_t i = 0; i < std::min<std::size_t>(16, boxes.size()); ++i) {
    if (static_cast<double>(points.ExactRangeCount(boxes[i])) != exact[i]) {
      Die("gen: exact count disagrees with PointSet::ExactRangeCount");
    }
  }
  std::ofstream ex(exact_path);
  ex.precision(17);
  for (double v : exact) ex << v << '\n';
  if (!ex) Die("gen: write failed for " + exact_path);
  return 0;
}

int MreMain(int argc, char** argv) {
  const std::vector<double> exact = ReadDoubles(Flag(argc, argv, "exact"));
  const std::vector<double> answers = ReadDoubles(Flag(argc, argv, "answers"));
  if (exact.empty() || exact.size() != answers.size()) Die("mre: sizes");
  // MeanRelativeError asks for the estimate of each query box in order;
  // the boxes themselves only index the answers here.
  std::vector<privtree::Box> boxes(exact.size(), privtree::Box::UnitCube(1));
  std::size_t next = 0;
  std::printf("%.17g\n",
              privtree::MeanRelativeError(
                  boxes, exact,
                  [&](const privtree::Box&) { return answers[next++]; },
                  std::strtoull(Flag(argc, argv, "points").c_str(), nullptr,
                                10)));
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "gen") return perfbench::GenMain(argc, argv);
  if (mode == "load") return perfbench::LoadMain(argc, argv);
  if (mode == "walk") return perfbench::WalkMain(argc, argv);
  if (mode == "mre") return perfbench::MreMain(argc, argv);
  std::fprintf(stderr, "usage: pbtool gen|load|walk|mre --flag=value...\n");
  return 2;
}
