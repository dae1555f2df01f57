#include "release/sequence_methods.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/byteio.h"
#include "core/codec.h"
#include "core/tree.h"
#include "dp/check.h"
#include "release/options.h"
#include "release/serialization.h"
#include "release/sequence_query.h"
#include "seq/model.h"
#include "seq/ngram.h"
#include "seq/pst_privtree.h"
#include "seq/sequence.h"
#include "seq/topk.h"

namespace privtree::release {
namespace {

/// Largest alphabet a persisted sequence synopsis may declare (the one
/// pipeline-wide bound; see seq/sequence.h).
constexpr std::size_t kMaxAlphabet = kMaxAlphabetSize;

/// State every sequence adapter tracks across Fit (or restores from an
/// envelope) — the sequence twin of builtin_methods.cc's FitState.
struct FitState {
  bool fitted = false;
  std::size_t alphabet = 0;  ///< Reported as MethodMetadata::dim.
  double epsilon_spent = 0.0;
};

/// One double per SequenceQuery, against any fitted SequenceModel.  The
/// specs have been screened by ValidateSequenceQuery upstream (serving
/// engine / CLI), so symbol and rank ranges are in-contract here.  Top-k
/// answers are memoized per (k, max_len) within the batch: each is a full
/// model-wide mining pass, and served workloads repeat the same spec.
std::vector<double> AnswerSequenceQueries(
    const SequenceModel& model, std::span<const SequenceQuery> queries) {
  std::vector<double> out;
  out.reserve(queries.size());
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> topk_memo;
  for (const SequenceQuery& q : queries) {
    switch (q.kind) {
      case SequenceQueryKind::kFrequency:
        out.push_back(model.EstimateStringFrequency(q.symbols));
        break;
      case SequenceQueryKind::kPrefixCount:
        out.push_back(model.EstimatePrefixCount(q.symbols));
        break;
      case SequenceQueryKind::kTopK: {
        const auto key = std::make_pair(q.k, q.max_len);
        auto it = topk_memo.find(key);
        if (it == topk_memo.end()) {
          const TopKStrings top = TopKFromModel(model, q.k, q.max_len);
          it = topk_memo
                   .emplace(key, q.k <= top.counts.size()
                                     ? top.counts[q.k - 1]
                                     : 0.0)
                   .first;
        }
        out.push_back(it->second);
        break;
      }
      default:
        // An out-of-enum kind skipped validation — abort loudly rather
        // than silently shifting every later answer off its query.
        PRIVTREE_CHECK(false);
    }
  }
  return out;
}

/// Max predictor length = decomposition height of a PST.
std::int32_t PstHeight(const PstModel& model) {
  std::size_t height = 0;
  for (std::size_t id = 0; id < model.size(); ++id) {
    height = std::max(height,
                      model.node(static_cast<NodeId>(id)).predictor.size());
  }
  return static_cast<std::int32_t>(height);
}

/// Shared bookkeeping of the two sequence adapters.
class SequenceMethodBase : public Method {
 protected:
  explicit SequenceMethodBase(const MethodOptions& o)
      : options_text_(o.ToString()) {}
  explicit SequenceMethodBase(const SynopsisEnvelope& env)
      : options_text_(env.options_text),
        state_{true, env.metadata.dim, env.metadata.epsilon_spent} {}

  Status SaveSynopsis(std::ostream& out, std::string_view payload) const {
    return WriteSynopsis(out, Metadata(), options_text_, payload);
  }

  Status NotFitted() const {
    return Status::InvalidArgument("Save requires a fitted method");
  }

  std::string options_text_;
  FitState state_;
};

/// PrivTree over sequence data (Section 4.2): private PST construction.
class PstPrivTreeMethod final : public SequenceMethodBase {
 public:
  explicit PstPrivTreeMethod(const MethodOptions& o)
      : SequenceMethodBase(o), options_(ParseOptions(o)) {}

  PstPrivTreeMethod(const SynopsisEnvelope& env, PstModel model)
      : SequenceMethodBase(env),
        options_(ParseOptions(MethodOptions::Parse(env.options_text))) {
    model_.emplace(std::move(model));
  }

  void Fit(const Dataset& data, PrivacyBudget& budget, Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    PRIVTREE_CHECK(data.is_sequence());
    state_ = {true, data.sequences().alphabet_size(),
              budget.SpendRemaining()};
    // The builder requires its input truncated at l⊤; truncating an
    // already-truncated dataset is the identity, so fitting pre-truncated
    // data matches the direct BuildPrivatePst path bit for bit.
    const SequenceDataset truncated =
        data.sequences().Truncate(options_.l_top);
    model_.emplace(BuildPrivatePst(truncated, state_.epsilon_spent, options_,
                                   rng)
                       .model);
  }

  std::vector<double> QueryBatch(
      std::span<const SequenceQuery> queries) const override {
    PRIVTREE_CHECK(state_.fitted);
    return AnswerSequenceQueries(*model_, queries);
  }

  MethodMetadata Metadata() const override {
    return {"pst_privtree", state_.alphabet, state_.epsilon_spent,
            model_ ? model_->size() : 0, model_ ? PstHeight(*model_) : 0};
  }

  Status Save(std::ostream& out) const override {
    if (!state_.fitted) return NotFitted();
    // v3 payload: node count, delta-bit-packed parent links (children are
    // implied by parent links + creation order, the SplitNode invariant),
    // then the histograms concatenated in id order.  The parents are
    // near-sequential, so they pack to a few bits each.
    std::string payload;
    ByteWriter w(&payload);
    w.U64(model_->size());
    std::vector<NodeId> parents(model_->size(), kInvalidNode);
    for (std::size_t i = 0; i < model_->size(); ++i) {
      for (const NodeId child :
           model_->node(static_cast<NodeId>(i)).children) {
        parents[static_cast<std::size_t>(child)] = static_cast<NodeId>(i);
      }
    }
    w.Str(PackDeltaI32(parents));
    for (std::size_t i = 0; i < model_->size(); ++i) {
      w.F64Span(model_->node(static_cast<NodeId>(i)).hist);
    }
    return SaveSynopsis(out, payload);
  }

  const SequenceModel* sequence_model() const override {
    return model_ ? &*model_ : nullptr;
  }

 private:
  static PrivatePstOptions ParseOptions(const MethodOptions& o) {
    RequireKnownKeys(o, {"l_top", "tree_budget_fraction", "max_depth"});
    PrivatePstOptions out;
    out.l_top = static_cast<std::size_t>(
        o.GetInt("l_top", static_cast<std::int64_t>(out.l_top)));
    out.tree_budget_fraction =
        o.GetDouble("tree_budget_fraction", out.tree_budget_fraction);
    out.max_depth =
        static_cast<std::int32_t>(o.GetInt("max_depth", out.max_depth));
    return out;
  }

  PrivatePstOptions options_;
  std::optional<PstModel> model_;
};

/// The variable-length n-gram baseline (Section 6.2).
class NgramMethod final : public SequenceMethodBase {
 public:
  explicit NgramMethod(const MethodOptions& o)
      : SequenceMethodBase(o), options_(ParseOptions(o)) {}

  NgramMethod(const SynopsisEnvelope& env, NgramModel model)
      : SequenceMethodBase(env),
        options_(ParseOptions(MethodOptions::Parse(env.options_text))) {
    model_.emplace(std::move(model));
  }

  void Fit(const Dataset& data, PrivacyBudget& budget, Rng& rng) override {
    PRIVTREE_CHECK(!state_.fitted);
    PRIVTREE_CHECK(data.is_sequence());
    state_ = {true, data.sequences().alphabet_size(),
              budget.SpendRemaining()};
    const SequenceDataset truncated =
        data.sequences().Truncate(options_.l_top);
    model_.emplace(truncated, state_.epsilon_spent, options_, rng);
  }

  std::vector<double> QueryBatch(
      std::span<const SequenceQuery> queries) const override {
    PRIVTREE_CHECK(state_.fitted);
    return AnswerSequenceQueries(*model_, queries);
  }

  MethodMetadata Metadata() const override {
    return {"ngram", state_.alphabet, state_.epsilon_spent,
            model_ ? model_->ReleasedGramCount() : 0,
            model_ ? model_->Height() : 0};
  }

  Status Save(std::ostream& out) const override {
    if (!state_.fitted) return NotFitted();
    // v3 payload: node count, delta-bit-packed parent links, raw released
    // counts in id order.
    std::string payload;
    ByteWriter w(&payload);
    w.U64(model_->size());
    w.Str(PackDeltaI32(model_->ParentLinks()));
    for (std::size_t i = 0; i < model_->size(); ++i) {
      w.F64(model_->NodeCount(static_cast<NodeId>(i)));
    }
    return SaveSynopsis(out, payload);
  }

  const SequenceModel* sequence_model() const override {
    return model_ ? &*model_ : nullptr;
  }

 private:
  static NgramOptions ParseOptions(const MethodOptions& o) {
    RequireKnownKeys(o, {"n_max", "l_top", "threshold_factor"});
    NgramOptions out;
    out.n_max = static_cast<std::size_t>(
        o.GetInt("n_max", static_cast<std::int64_t>(out.n_max)));
    out.l_top = static_cast<std::size_t>(
        o.GetInt("l_top", static_cast<std::int64_t>(out.l_top)));
    out.threshold_factor =
        o.GetDouble("threshold_factor", out.threshold_factor);
    return out;
  }

  NgramOptions options_;
  std::optional<NgramModel> model_;
};

/// Reconstructs a PstModel from the flat (parent, histogram) payload rows,
/// enforcing the SplitNode sibling-group invariant.
Result<PstModel> RestorePstModel(std::size_t alphabet,
                                 std::span<const NodeId> parents,
                                 std::vector<std::vector<double>> hists) {
  const std::size_t beta = alphabet + 1;
  const std::size_t n = parents.size();
  if (n == 0 || (n - 1) % beta != 0) {
    return Status::InvalidArgument(
        "pst payload: node count inconsistent with fanout");
  }
  if (parents[0] != kInvalidNode) {
    return Status::InvalidArgument("pst payload: root must have parent -1");
  }
  PstModel model(alphabet);
  model.AddRoot();
  for (std::size_t i = 1; i < n; ++i) {
    if (parents[i] < 0 || static_cast<std::size_t>(parents[i]) >= i) {
      return Status::InvalidArgument("pst payload: bad parent at node " +
                                     std::to_string(i));
    }
    if ((i - 1) % beta == 0) {
      if (model.node(parents[i]).children.empty()) {
        if (model.SplitNode(parents[i]) != static_cast<NodeId>(i)) {
          return Status::InvalidArgument(
              "pst payload: children out of order at node " +
              std::to_string(i));
        }
      } else {
        return Status::InvalidArgument(
            "pst payload: parent split twice at node " + std::to_string(i));
      }
    } else if (parents[i] != parents[i - 1]) {
      return Status::InvalidArgument(
          "pst payload: fractured sibling group at node " +
          std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    model.mutable_node(static_cast<NodeId>(i)).hist = std::move(hists[i]);
  }
  return model;
}

Result<std::unique_ptr<Method>> LoadPstPrivTree(const SynopsisEnvelope& env,
                                                ByteReader& payload) {
  const std::size_t alphabet = env.metadata.dim;
  if (alphabet < 1 || alphabet > kMaxAlphabet) {
    return Status::InvalidArgument("pst payload: bad alphabet size");
  }
  const std::size_t beta = alphabet + 1;
  std::uint64_t n = 0;
  // Histograms alone cost 8·beta bytes per node; bounding n before
  // allocating keeps a lying count from forcing a huge allocation.
  if (!payload.U64(&n) || n == 0 || n > payload.remaining() / (8 * beta)) {
    return Status::InvalidArgument("pst payload: bad node count");
  }
  std::vector<NodeId> parents;
  std::string packed_parents;
  if (!payload.Str(&packed_parents) ||
      !UnpackDeltaI32(packed_parents, n, &parents)) {
    return Status::InvalidArgument("pst payload: bad parent links");
  }
  std::vector<std::vector<double>> hists(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!payload.F64Vec(beta, &hists[i])) {
      return Status::InvalidArgument("pst payload: truncated node " +
                                     std::to_string(i));
    }
  }
  auto model = RestorePstModel(alphabet, parents, std::move(hists));
  if (!model.ok()) return model.status();
  return std::unique_ptr<Method>(std::make_unique<PstPrivTreeMethod>(
      env, std::move(model).value()));
}

Result<std::unique_ptr<Method>> LoadNgram(const SynopsisEnvelope& env,
                                          ByteReader& payload) {
  const std::size_t alphabet = env.metadata.dim;
  if (alphabet < 1 || alphabet > kMaxAlphabet) {
    return Status::InvalidArgument("ngram payload: bad alphabet size");
  }
  std::uint64_t n = 0;
  // Counts alone cost 8 bytes per node: bound n before allocating.
  if (!payload.U64(&n) || n == 0 || n > payload.remaining() / 8) {
    return Status::InvalidArgument("ngram payload: bad node count");
  }
  std::vector<NodeId> parents;
  std::vector<double> counts;
  std::string packed_parents;
  if (!payload.Str(&packed_parents) ||
      !UnpackDeltaI32(packed_parents, n, &parents)) {
    return Status::InvalidArgument("ngram payload: bad parent links");
  }
  if (!payload.F64Vec(n, &counts)) {
    return Status::InvalidArgument("ngram payload: truncated counts");
  }
  auto model = NgramModel::Restore(alphabet, parents, counts);
  if (!model.ok()) return model.status();
  return std::unique_ptr<Method>(
      std::make_unique<NgramMethod>(env, std::move(model).value()));
}

}  // namespace

void RegisterSequenceMethods(MethodRegistry& registry) {
  using enum OptionType;
  // The per-key ranges mirror the fitters' aborting contract checks
  // (l⊤ >= 1, n_max >= 1) plus sanity caps, so a hostile socket client's
  // out-of-range value yields a clean Status upstream.  The PST fan-out
  // β = alphabet+1 >= 2 is a property of the served dataset, not an
  // option; top-k query ranks are screened per query
  // (ValidateSequenceQuery, k >= 1).
  registry.Register(
      "pst_privtree",
      {.description =
           "PrivTree prediction suffix tree over sequences (Sec. 4.2)",
       .display = "PST",
       .allowed_keys = {{"l_top", kInt, 1, 4096},
                        {"tree_budget_fraction", kDouble, 0, 1, true},
                        {"max_depth", kInt, 1, 4096}},
       .kind = DatasetKind::kSequence,
       .factory =
           [](const MethodOptions& options) -> std::unique_ptr<Method> {
         return std::make_unique<PstPrivTreeMethod>(options);
       },
       .loader = LoadPstPrivTree});
  registry.Register(
      "ngram",
      {.description =
           "variable-length n-gram baseline (Chen et al., CCS 2012)",
       .display = "N-gram",
       .allowed_keys = {{"n_max", kInt, 1, 16},
                        {"l_top", kInt, 1, 4096},
                        {"threshold_factor", kDouble, 0, 1e6}},
       .kind = DatasetKind::kSequence,
       .factory =
           [](const MethodOptions& options) -> std::unique_ptr<Method> {
         return std::make_unique<NgramMethod>(options);
       },
       .loader = LoadNgram});
}

}  // namespace privtree::release
