#include "release/builtin_methods.h"

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/byteio.h"
#include "core/codec.h"
#include "dp/check.h"
#include "hist/ag.h"
#include "hist/dawa.h"
#include "hist/grid.h"
#include "hist/grid_codec.h"
#include "hist/hierarchy.h"
#include "hist/kdtree.h"
#include "hist/ug.h"
#include "hist/wavelet.h"
#include "obs/metrics.h"
#include "release/method.h"
#include "release/options.h"
#include "release/sequence_methods.h"
#include "release/serialization.h"
#include "release/tree_batch.h"
#include "spatial/flat_fit.h"
#include "spatial/morton_index.h"
#include "spatial/serialization.h"
#include "spatial/spatial_histogram.h"

namespace privtree::release {
namespace {

/// The `count_quantum` knob of the tree-family methods: released counts are
/// snapped to multiples of the quantum as post-processing (DP-safe), which
/// lets the v3 payload store them as group-varint integers instead of raw
/// doubles.  0 (the default) disables quantization.
double ParseCountQuantum(const MethodOptions& o) {
  return o.GetDouble("count_quantum", 0.0);
}

/// Shared body of the spatial tree family (PrivTree, SimpleTree, KD).  A
/// fitted or loaded release is kept as what serving reads: the query index
/// and the whole envelope, sealed once.  Fit and load both produce the flat
/// layout the index is built from (Build, ReadTreeBodyCompressed), and Save
/// is one write, not an encode.  PrivTree and SimpleTree fit straight into
/// that layout (spatial/flat_fit.h) over the dataset's shared Morton index, so
/// only the first tree fit of a dataset builds it.  kdtree's Build fits the
/// library's KdTreeHistogram, a DecompTree that dies when Build returns,
/// and flattens it.
class SpatialTreeMethod : public BuiltinMethod {
 public:
  void Fit(const Dataset& data, PrivacyBudget& budget, Rng& rng) final {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, data.dim(), budget.SpendRemaining()};
    FlatSpatialTree tree = Build(data, state_.epsilon_spent, rng);
    // release.encode_us: the count quantise and payload encode, then the
    // seal, which needs the query index's size and height.
    auto start = std::chrono::steady_clock::now();
    for (double& c : tree.count) c = QuantizeCount(c, count_quantum_);
    std::string payload;
    ByteWriter w(&payload);
    WriteTreeBodyCompressed(w, tree.dim, tree.parent, tree.bounds, tree.count,
                            count_quantum_);
    auto encode = std::chrono::steady_clock::now() - start;
    batch_ = TreeBatchIndex(tree.dim, tree.parent, std::move(tree.bounds),
                            std::move(tree.count));
    start = std::chrono::steady_clock::now();
    envelope_ = SealSynopsis(Metadata(), options_text_, payload);
    encode += std::chrono::steady_clock::now() - start;
    static obs::Histogram& encode_us =
        obs::Registry::Global().GetHistogram("release.encode_us");
    encode_us.Observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(encode)
            .count()));
  }

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) final {
    Fit(Dataset(points, domain), budget, rng);
  }

  double Query(const Box& q) const override {
    PRIVTREE_CHECK(state_.fitted);
    return batch_.Query({&q, 1}).front();
  }

  std::vector<double> QueryBatch(std::span<const Box> queries) const override {
    PRIVTREE_CHECK(state_.fitted);
    return batch_.Query(queries);
  }

  Status Save(std::ostream& out) const override {
    if (!state_.fitted) return NotFitted();
    return WriteSealedSynopsis(out, envelope_);
  }

 protected:
  explicit SpatialTreeMethod(const MethodOptions& o)
      : BuiltinMethod(o), count_quantum_(ParseCountQuantum(o)) {}

  /// Restores a loaded release; `payload` is the body `batch` was decoded
  /// from, so the sealed envelope is the loaded one, byte for byte.
  SpatialTreeMethod(const SynopsisEnvelope& env, TreeBatchIndex batch,
                    std::string_view payload)
      : BuiltinMethod(env),
        batch_(std::move(batch)),
        envelope_(SealSynopsis(env.metadata, env.options_text, payload)) {}

  /// The method's fit kernel, run over `data` with the whole ε.
  virtual FlatSpatialTree Build(const Dataset& data, double epsilon,
                                Rng& rng) const = 0;

  MethodMetadata TreeMetadata(std::string name) const {
    return {std::move(name), state_.dim, state_.epsilon_spent, batch_.size(),
            batch_.height()};
  }

 private:
  double count_quantum_ = 0.0;
  TreeBatchIndex batch_;
  std::string envelope_;  // The sealed envelope Save writes.
};

/// PrivTree (Section 3.4): the paper's method.
class PrivTreeMethod final : public SpatialTreeMethod {
 public:
  explicit PrivTreeMethod(const MethodOptions& o)
      : SpatialTreeMethod(o), options_(ParsePrivTreeHistogramOptions(o)) {}

  PrivTreeMethod(const SynopsisEnvelope& env, TreeBatchIndex batch,
                 std::string_view payload)
      : SpatialTreeMethod(env, std::move(batch), payload) {}

  MethodMetadata Metadata() const override { return TreeMetadata("privtree"); }

 private:
  FlatSpatialTree Build(const Dataset& data, double epsilon,
                        Rng& rng) const override {
    return FitPrivTreeFlat(data.morton_index(), data.domain(), epsilon,
                           options_, rng);
  }

  PrivTreeHistogramOptions options_;
};

/// SimpleTree (Algorithm 1): the fixed-height baseline.
class SimpleTreeMethod final : public SpatialTreeMethod {
 public:
  explicit SimpleTreeMethod(const MethodOptions& o)
      : SpatialTreeMethod(o), options_(ParseSimpleTreeHistogramOptions(o)) {}

  SimpleTreeMethod(const SynopsisEnvelope& env, TreeBatchIndex batch,
                   std::string_view payload)
      : SpatialTreeMethod(env, std::move(batch), payload) {}

  MethodMetadata Metadata() const override {
    return TreeMetadata("simpletree");
  }

 private:
  FlatSpatialTree Build(const Dataset& data, double epsilon,
                        Rng& rng) const override {
    return FitSimpleTreeFlat(data.morton_index(), data.domain(), epsilon,
                             options_, rng);
  }

  SimpleTreeHistogramOptions options_;
};

/// Shared adapter for the builders that return a flat GridHistogram (UG,
/// DAWA, Privelet*); queries go through the O(4^d) prefix-sum lattice, and
/// QueryBatch through the grid's allocation-free one-pass batch path.  The
/// whole family shares one payload codec (hist/grid_codec.h).
class GridMethodBase : public BuiltinMethod {
 public:
  double Query(const Box& q) const override {
    PRIVTREE_CHECK(state_.fitted);
    return grid_->Query(q);
  }

  std::vector<double> QueryBatch(std::span<const Box> queries) const override {
    PRIVTREE_CHECK(state_.fitted);
    return grid_->QueryBatch(queries);
  }

  Status Save(std::ostream& out) const override {
    if (!state_.fitted) return NotFitted();
    std::string payload;
    ByteWriter w(&payload);
    WriteGridHistogram(w, *grid_);
    return SaveSynopsis(out, payload);
  }

 protected:
  explicit GridMethodBase(const MethodOptions& o) : BuiltinMethod(o) {}
  GridMethodBase(const SynopsisEnvelope& env, GridHistogram grid)
      : BuiltinMethod(env) {
    grid_.emplace(std::move(grid));
  }

  std::optional<GridHistogram> grid_;
};

class UniformGridMethod final : public GridMethodBase {
 public:
  explicit UniformGridMethod(const MethodOptions& o)
      : GridMethodBase(o), options_(ParseOptions(o)) {}

  UniformGridMethod(const SynopsisEnvelope& env, GridHistogram grid)
      : GridMethodBase(env, std::move(grid)) {}

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, domain.dim(), budget.SpendRemaining()};
    grid_.emplace(BuildUniformGrid(points, domain, state_.epsilon_spent,
                                   options_, rng));
  }

  MethodMetadata Metadata() const override {
    return {"ug", state_.dim, state_.epsilon_spent,
            grid_ ? grid_->total_cells() : 0, 0};
  }

 private:
  static UniformGridOptions ParseOptions(const MethodOptions& o) {
    UniformGridOptions out;
    out.cell_scale = o.GetDouble("cell_scale", out.cell_scale);
    out.c0 = o.GetDouble("c0", out.c0);
    return out;
  }

  UniformGridOptions options_;
};

class DawaMethod final : public GridMethodBase {
 public:
  explicit DawaMethod(const MethodOptions& o)
      : GridMethodBase(o), options_(ParseOptions(o)) {}

  DawaMethod(const SynopsisEnvelope& env, GridHistogram grid)
      : GridMethodBase(env, std::move(grid)) {}

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, domain.dim(), budget.SpendRemaining()};
    grid_.emplace(BuildDawaHistogram(points, domain, state_.epsilon_spent,
                                     options_, rng));
  }

  MethodMetadata Metadata() const override {
    return {"dawa", state_.dim, state_.epsilon_spent,
            grid_ ? grid_->total_cells() : 0, 0};
  }

 private:
  static DawaOptions ParseOptions(const MethodOptions& o) {
    DawaOptions out;
    out.target_total_cells =
        o.GetInt("target_total_cells", out.target_total_cells);
    out.partition_budget_fraction = o.GetDouble(
        "partition_budget_fraction", out.partition_budget_fraction);
    out.measure_branching =
        o.GetInt("measure_branching", out.measure_branching);
    return out;
  }

  DawaOptions options_;
};

class WaveletMethod final : public GridMethodBase {
 public:
  explicit WaveletMethod(const MethodOptions& o)
      : GridMethodBase(o), options_(ParseOptions(o)) {}

  WaveletMethod(const SynopsisEnvelope& env, GridHistogram grid)
      : GridMethodBase(env, std::move(grid)) {}

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, domain.dim(), budget.SpendRemaining()};
    grid_.emplace(BuildPriveletHistogram(points, domain, state_.epsilon_spent,
                                         options_, rng));
  }

  MethodMetadata Metadata() const override {
    return {"wavelet", state_.dim, state_.epsilon_spent,
            grid_ ? grid_->total_cells() : 0, 0};
  }

 private:
  static PriveletOptions ParseOptions(const MethodOptions& o) {
    PriveletOptions out;
    out.target_total_cells =
        o.GetInt("target_total_cells", out.target_total_cells);
    return out;
  }

  PriveletOptions options_;
};

class AdaptiveGridMethod final : public BuiltinMethod {
 public:
  explicit AdaptiveGridMethod(const MethodOptions& o)
      : BuiltinMethod(o), options_(ParseOptions(o)) {}

  AdaptiveGridMethod(const SynopsisEnvelope& env, AdaptiveGrid grid)
      : BuiltinMethod(env), grid_(std::move(grid)) {}

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, domain.dim(), budget.SpendRemaining()};
    grid_.emplace(points, domain, state_.epsilon_spent, options_, rng);
  }

  double Query(const Box& q) const override {
    PRIVTREE_CHECK(state_.fitted);
    return grid_->Query(q);
  }

  std::vector<double> QueryBatch(std::span<const Box> queries) const override {
    PRIVTREE_CHECK(state_.fitted);
    return grid_->QueryBatch(queries);
  }

  MethodMetadata Metadata() const override {
    return {"ag", state_.dim, state_.epsilon_spent,
            grid_ ? grid_->TotalCells() : 0, 2};
  }

  Status Save(std::ostream& out) const override {
    if (!state_.fitted) return NotFitted();
    std::string payload;
    ByteWriter w(&payload);
    WriteAdaptiveGridBodyCompressed(w, *grid_);
    return SaveSynopsis(out, payload);
  }

 private:
  static AdaptiveGridOptions ParseOptions(const MethodOptions& o) {
    AdaptiveGridOptions out;
    out.alpha = o.GetDouble("alpha", out.alpha);
    out.c1 = o.GetDouble("c1", out.c1);
    out.c2 = o.GetDouble("c2", out.c2);
    out.cell_scale = o.GetDouble("cell_scale", out.cell_scale);
    return out;
  }

  AdaptiveGridOptions options_;
  std::optional<AdaptiveGrid> grid_;
};

/// The private k-d tree ([51]): a baseline with no flat fit kernel.
class KdTreeMethod final : public SpatialTreeMethod {
 public:
  explicit KdTreeMethod(const MethodOptions& o)
      : SpatialTreeMethod(o), options_(ParseOptions(o)) {}

  KdTreeMethod(const SynopsisEnvelope& env, TreeBatchIndex batch,
               std::string_view payload)
      : SpatialTreeMethod(env, std::move(batch), payload) {}

  MethodMetadata Metadata() const override { return TreeMetadata("kdtree"); }

 private:
  static KdTreeOptions ParseOptions(const MethodOptions& o) {
    KdTreeOptions out;
    out.height = static_cast<std::int32_t>(o.GetInt("height", out.height));
    out.split_budget_fraction =
        o.GetDouble("split_budget_fraction", out.split_budget_fraction);
    return out;
  }

  /// Splits on the points themselves, so it never builds the dataset's
  /// Morton index.
  FlatSpatialTree Build(const Dataset& data, double epsilon,
                        Rng& rng) const override {
    const KdTreeHistogram kd(data.points(), data.domain(), epsilon, options_,
                             rng);
    return FlattenTree(kd.tree(), kd.counts(),
                       [](const Box& b) -> const Box& { return b; });
  }

  KdTreeOptions options_;
};

class HierarchyMethod final : public BuiltinMethod {
 public:
  explicit HierarchyMethod(const MethodOptions& o)
      : BuiltinMethod(o), options_(ParseOptions(o)) {}

  HierarchyMethod(const SynopsisEnvelope& env, HierarchyHistogram hier)
      : BuiltinMethod(env), hier_(std::move(hier)) {}

  void Fit(const PointSet& points, const Box& domain, PrivacyBudget& budget,
           Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    state_ = {true, domain.dim(), budget.SpendRemaining()};
    hier_.emplace(points, domain, state_.epsilon_spent, options_, rng);
  }

  double Query(const Box& q) const override {
    PRIVTREE_CHECK(state_.fitted);
    return hier_->Query(q);
  }

  std::vector<double> QueryBatch(std::span<const Box> queries) const override {
    PRIVTREE_CHECK(state_.fitted);
    return hier_->QueryBatch(queries);
  }

  MethodMetadata Metadata() const override {
    return {"hierarchy", state_.dim, state_.epsilon_spent,
            hier_ ? hier_->TotalCounts() : 0,
            hier_ ? hier_->height() - 1 : 0};
  }

  Status Save(std::ostream& out) const override {
    if (!state_.fitted) return NotFitted();
    std::string payload;
    ByteWriter w(&payload);
    WriteBox(w, hier_->domain());
    w.I32(hier_->height());
    w.I64(hier_->branching());
    w.U32(hier_->consistent() ? 1 : 0);
    const auto& levels = hier_->level_counts();
    for (std::int32_t l = 1; l < hier_->height(); ++l) {
      w.F64Span(levels[l]);
    }
    return SaveSynopsis(out, payload);
  }

 private:
  static HierarchyOptions ParseOptions(const MethodOptions& o) {
    HierarchyOptions out;
    out.height = static_cast<std::int32_t>(o.GetInt("height", out.height));
    out.target_leaf_resolution =
        o.GetInt("target_leaf_resolution", out.target_leaf_resolution);
    out.constrained_inference =
        o.GetBool("constrained_inference", out.constrained_inference);
    return out;
  }

  HierarchyOptions options_;
  std::optional<HierarchyHistogram> hier_;
};

template <typename T>
MethodFactory FactoryFor() {
  return [](const MethodOptions& options) -> std::unique_ptr<Method> {
    return std::make_unique<T>(options);
  };
}

/// Loader for the spatial tree family (PrivTree, SimpleTree, KD): the
/// compressed tree body decodes straight into the query index's flat
/// layout, bit for bit, and the method seals the loaded envelope again from
/// the body's bytes for Save.
template <typename T>
MethodLoader SpatialTreeLoaderFor() {
  return [](const SynopsisEnvelope& env,
            ByteReader& payload) -> Result<std::unique_ptr<Method>> {
    const std::string_view body = payload.rest();
    const std::size_t dim = env.metadata.dim;
    std::vector<NodeId> parents;
    std::vector<double> bounds, counts;
    if (Status s =
            ReadTreeBodyCompressed(payload, dim, &parents, &bounds, &counts);
        !s.ok()) {
      return s;
    }
    return std::unique_ptr<Method>(std::make_unique<T>(
        env, TreeBatchIndex(dim, parents, std::move(bounds), std::move(counts)),
        body.substr(0, body.size() - payload.remaining())));
  };
}

/// Loader for the flat-grid family (UG, DAWA, Privelet*).
template <typename T>
MethodLoader GridLoaderFor() {
  return [](const SynopsisEnvelope& env,
            ByteReader& payload) -> Result<std::unique_ptr<Method>> {
    auto grid = ReadGridHistogram(payload, env.metadata.dim);
    if (!grid.ok()) return grid.status();
    return std::unique_ptr<Method>(
        std::make_unique<T>(env, std::move(grid).value()));
  };
}

Result<std::unique_ptr<Method>> LoadAdaptiveGrid(const SynopsisEnvelope& env,
                                                 ByteReader& payload) {
  auto grid = ReadAdaptiveGridBodyCompressed(payload);
  if (!grid.ok()) return grid.status();
  return std::unique_ptr<Method>(
      std::make_unique<AdaptiveGridMethod>(env, std::move(grid).value()));
}

Result<std::unique_ptr<Method>> LoadHierarchy(const SynopsisEnvelope& env,
                                              ByteReader& payload) {
  Box domain;
  std::string box_error;
  if (!ReadBox(payload, env.metadata.dim, &domain, &box_error)) {
    return Status::InvalidArgument("hierarchy payload: " + box_error);
  }
  std::int32_t height = 0;
  std::int64_t branching = 0;
  std::uint32_t consistent = 0;
  if (!payload.I32(&height) || !payload.I64(&branching) ||
      !payload.U32(&consistent) || height < 2 || height > 64 ||
      branching < 2 || branching > (std::int64_t{1} << 20) ||
      consistent > 1) {
    return Status::InvalidArgument("hierarchy payload: bad header");
  }
  const std::size_t d = env.metadata.dim;
  std::vector<std::vector<double>> counts(height);
  std::uint64_t res = 1;
  for (std::int32_t l = 1; l < height; ++l) {
    // res^d cells must fit in the bytes actually present, checked with
    // overflow-safe arithmetic so a corrupted header can never force a huge
    // allocation.
    bool too_big =
        res > payload.remaining() / 8 / static_cast<std::uint64_t>(branching);
    if (!too_big) res *= static_cast<std::uint64_t>(branching);
    std::uint64_t cells = 1;
    for (std::size_t j = 0; !too_big && j < d; ++j) {
      if (cells > payload.remaining() / 8 / res) {
        too_big = true;
        break;
      }
      cells *= res;
    }
    if (too_big || !payload.F64Vec(cells, &counts[l])) {
      return Status::InvalidArgument("hierarchy payload: truncated level " +
                                     std::to_string(l));
    }
  }
  return std::unique_ptr<Method>(std::make_unique<HierarchyMethod>(
      env, HierarchyHistogram::Restore(std::move(domain), height, branching,
                                       std::move(counts), consistent == 1)));
}

/// The dataset-relative screen of privtree: a split cannot span more
/// dimensions than the data has.
Status CheckDimsPerSplit(const MethodOptions& o, std::size_t dim) {
  if (o.GetInt("dims_per_split", 0) <= static_cast<std::int64_t>(dim)) {
    return Status::OK();
  }
  return Status::InvalidArgument("dims_per_split exceeds the data's dim (" +
                                 std::to_string(dim) + ")");
}

/// The most nodes a fixed-height method's complete tree may have: the
/// bound that keeps one fit from exhausting the memory of a server.
constexpr std::uint64_t kMaxCompleteTreeNodes = std::uint64_t{1} << 24;

/// Refuses a fixed height whose complete tree, Σ_{k<levels} fanout^k
/// nodes, passes kMaxCompleteTreeNodes: that tree bounds what one fit of a
/// fixed-height method can allocate.
Status CheckCompleteTree(std::string_view method, std::uint64_t fanout,
                         std::int64_t levels) {
  std::uint64_t nodes = 0;
  std::uint64_t level = 1;
  for (std::int64_t k = 0; k < levels && nodes <= kMaxCompleteTreeNodes;
       ++k, level *= fanout) {
    nodes += level;
  }
  if (nodes <= kMaxCompleteTreeNodes) return Status::OK();
  return Status::InvalidArgument(
      "method \"" + std::string(method) + "\": height allows a tree of more "
      "than " + std::to_string(kMaxCompleteTreeNodes) + " nodes");
}

/// SimpleTree splits every node whose noisy count clears θ (empty ones
/// about half the time), so it grows about ×β per level of `height`, with
/// β = 2^dims_per_split (all of the data's dims by default).
Status CheckSimpleTree(const MethodOptions& o, std::size_t dim) {
  if (Status dims = CheckDimsPerSplit(o, dim); !dims.ok()) return dims;
  const SimpleTreeHistogramOptions parsed = ParseSimpleTreeHistogramOptions(o);
  const int split = parsed.dims_per_split > 0 ? parsed.dims_per_split
                                              : static_cast<int>(dim);
  return CheckCompleteTree("simpletree", std::uint64_t{1} << split,
                           parsed.height);
}

/// kdtree always builds its complete binary tree over height + 1 levels.
Status CheckKdTree(const MethodOptions& o, std::size_t /*dim*/) {
  return CheckCompleteTree("kdtree", 2,
                           o.GetInt("height", KdTreeOptions{}.height) + 1);
}

}  // namespace

PrivTreeHistogramOptions ParsePrivTreeHistogramOptions(
    const MethodOptions& options) {
  PrivTreeHistogramOptions out;
  out.dims_per_split =
      static_cast<int>(options.GetInt("dims_per_split", out.dims_per_split));
  out.tree_budget_fraction =
      options.GetDouble("tree_budget_fraction", out.tree_budget_fraction);
  out.max_depth =
      static_cast<std::int32_t>(options.GetInt("max_depth", out.max_depth));
  return out;
}

SimpleTreeHistogramOptions ParseSimpleTreeHistogramOptions(
    const MethodOptions& options) {
  SimpleTreeHistogramOptions out;
  out.dims_per_split =
      static_cast<int>(options.GetInt("dims_per_split", out.dims_per_split));
  out.height = static_cast<std::int32_t>(options.GetInt("height", out.height));
  out.theta = options.GetDouble("theta", out.theta);
  return out;
}

Status BuiltinMethod::SaveSynopsis(std::ostream& out,
                                   std::string_view payload) const {
  return WriteSynopsis(out, Metadata(), options_text_, payload);
}

void RegisterBuiltinMethods(MethodRegistry& registry) {
  using enum OptionType;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The per-key ranges mirror the contract checks the fitters enforce
  // (fractions in (0,1), heights/branchings with hard minima) plus sanity
  // caps on size-driving knobs, so user-facing surfaces can reject an
  // out-of-range value with a clean error before an aborting
  // PRIVTREE_CHECK — a requirement once specs arrive over a socket.
  registry.Register(
      "privtree",
      {.description = "PrivTree decomposition + noisy leaf counts (Sec. 3.4)",
       .display = "PrivTree",
       // dims_per_split <= 0 means "use the default"; the upper bound is
       // the Morton index's dimensionality cap (`check` also holds it to
       // the data's dim).
       .allowed_keys = {{"dims_per_split", kInt, 0, MortonIndex::kMaxDim},
                        {"tree_budget_fraction", kDouble, 0, 1, true},
                        {"max_depth", kInt, 1, 4096},
                        {"count_quantum", kDouble, 0, kInf}},
       .max_dim = MortonIndex::kMaxDim,
       .check = CheckDimsPerSplit,
       .factory = FactoryFor<PrivTreeMethod>(),
       .loader = SpatialTreeLoaderFor<PrivTreeMethod>()});
  registry.Register(
      "simpletree",
      {.description = "fixed-height noisy quadtree baseline (Algorithm 1)",
       .display = "SimpleTree",
       .allowed_keys = {{"dims_per_split", kInt, 0, MortonIndex::kMaxDim},
                        {"height", kInt, 1, 64},
                        {"theta", kDouble},
                        {"count_quantum", kDouble, 0, kInf}},
       .max_dim = MortonIndex::kMaxDim,
       .check = CheckSimpleTree,
       .factory = FactoryFor<SimpleTreeMethod>(),
       .loader = SpatialTreeLoaderFor<SimpleTreeMethod>()});
  registry.Register(
      "ug",
      {.description = "uniform grid (Qardaji et al., ICDE 2013)",
       .display = "UG",
       .allowed_keys = {{"cell_scale", kDouble, 0, 1024, true},
                        {"c0", kDouble, 0, kInf, true}},
       .factory = FactoryFor<UniformGridMethod>(),
       .loader = GridLoaderFor<UniformGridMethod>()});
  registry.Register(
      "ag",
      {.description = "two-level adaptive grid, 2-d only (ICDE 2013)",
       .display = "AG",
       .allowed_keys = {{"alpha", kDouble, 0, 1, true},
                        {"c1", kDouble, 0, kInf, true},
                        {"c2", kDouble, 0, kInf, true},
                        {"cell_scale", kDouble, 0, 1024, true}},
       .required_dim = 2,
       .factory = FactoryFor<AdaptiveGridMethod>(),
       .loader = LoadAdaptiveGrid});
  registry.Register(
      "kdtree",
      {.description = "private k-d tree with noisy-median splits ([51])",
       .display = "KD",
       .allowed_keys = {{"height", kInt, 1, 64},
                        {"split_budget_fraction", kDouble, 0, 1, true},
                        {"count_quantum", kDouble, 0, kInf}},
       // The tree body works at any dim; this is the widest domain a
       // served dataset can declare (server/protocol.cc), so LoadMethod
       // reads back every kdtree release the server can spill.
       .max_dim = 64,
       .check = CheckKdTree,
       .factory = FactoryFor<KdTreeMethod>(),
       .loader = SpatialTreeLoaderFor<KdTreeMethod>()});
  registry.Register(
      "dawa",
      {.description = "data-aware partition + hierarchical measurement "
                      "(Li et al., PVLDB 2014)",
       .display = "DAWA",
       .allowed_keys = {{"target_total_cells", kInt, 1, 1 << 24},
                        {"partition_budget_fraction", kDouble, 0, 1, true},
                        {"measure_branching", kInt, 2, 1024}},
       .factory = FactoryFor<DawaMethod>(),
       .loader = GridLoaderFor<DawaMethod>()});
  registry.Register(
      "hierarchy",
      {.description = "complete noisy-count tree with constrained inference "
                      "(Qardaji et al., PVLDB 2013)",
       .display = "Hierarchy",
       .allowed_keys = {{"height", kInt, 2, 64},
                        {"target_leaf_resolution", kInt, 2, 1 << 20},
                        {"constrained_inference", kBool}},
       // The complete tree's leaf level grows as resolution^d; the paper
       // evaluates it on 2-d data only.
       .max_practical_dim = 2,
       .factory = FactoryFor<HierarchyMethod>(),
       .loader = LoadHierarchy});
  registry.Register(
      "wavelet",
      {.description = "Privelet*: noisy Haar coefficients (Xiao et al., "
                      "TKDE 2011)",
       .display = "Privelet*",
       .allowed_keys = {{"target_total_cells", kInt, 1, 1 << 24}},
       .factory = FactoryFor<WaveletMethod>(),
       .loader = GridLoaderFor<WaveletMethod>()});
  // The sequence pipeline of Sections 4–5 registers alongside the spatial
  // backends, so every registry-driven surface sees both kinds.
  RegisterSequenceMethods(registry);
}

}  // namespace privtree::release
