// Shared plumbing for the sequence-data benches: the mooc/msnbc dataset
// generator and the top-k length cap.
#ifndef PRIVTREE_BENCH_BENCH_SEQ_COMMON_H_
#define PRIVTREE_BENCH_BENCH_SEQ_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dp/check.h"
#include "data/seq_gen.h"
#include "dp/rng.h"
#include "eval/runner.h"
#include "seq/sequence.h"

namespace privtree {
namespace bench {

/// One sequence dataset instance (already truncated at the paper's l⊤).
struct SequenceCase {
  std::string name;
  SequenceDataset truncated;
  SequenceDataset raw;
  std::size_t l_top;
};

/// Generates "mooc" or "msnbc" at the current scale and truncates at the
/// paper's l⊤ (Table 3).
inline SequenceCase MakeSequenceCase(const std::string& name) {
  Rng data_rng(0x5EC2 ^ std::hash<std::string>{}(name));
  const bool mooc = name == "mooc";
  PRIVTREE_CHECK(mooc || name == "msnbc");
  const std::size_t n = ScaledCardinality(
      mooc ? kMoocCardinality : kMsnbcCardinality, mooc ? 40000 : 80000);
  SequenceDataset raw =
      mooc ? GenerateMoocLike(n, data_rng) : GenerateMsnbcLike(n, data_rng);
  const std::size_t l_top = mooc ? kMoocLTop : kMsnbcLTop;
  SequenceDataset truncated = raw.Truncate(l_top);
  return SequenceCase{name, std::move(truncated), std::move(raw), l_top};
}

/// The candidate-string length cap used for top-k mining (the N-gram
/// paper's n_max = 5, which the paper adopts).
inline constexpr std::size_t kTopKMaxLen = 5;

}  // namespace bench
}  // namespace privtree

#endif  // PRIVTREE_BENCH_BENCH_SEQ_COMMON_H_
