// Registration of the sequence-side release backends (Sections 4–5): the
// private prediction suffix tree ("pst_privtree") and the variable-length
// n-gram baseline ("ngram"), both exposed as sequence-kind
// `release::Method`s.  Like the spatial adapters in builtin_methods.cc,
// these only parse options, truncate at the public length cap l⊤, thread
// the PrivacyBudget and forward queries — seq/pst_privtree.h and
// seq/ngram.h remain the concrete implementations.
//
// Registered names and their option keys:
//
//   pst_privtree  l_top, tree_budget_fraction, max_depth
//   ngram         n_max, l_top, threshold_factor
//
// Both answer SequenceQuery batches (frequency / prefix-count / top-k; see
// release/sequence_query.h) and persist through the universal synopsis
// envelope with a flat (parent, released values) payload codec.  The PST's
// fan-out β = alphabet+1 is a property of the served dataset, not an
// option: any alphabet of size >= 1 gives β >= 2.
#ifndef PRIVTREE_RELEASE_SEQUENCE_METHODS_H_
#define PRIVTREE_RELEASE_SEQUENCE_METHODS_H_

#include <memory>

#include "release/method.h"
#include "release/registry.h"
#include "seq/pst.h"

namespace privtree::release {

/// Registers the two sequence backends into `registry`.  Called by
/// RegisterBuiltinMethods; call it directly only on private registries.
void RegisterSequenceMethods(MethodRegistry& registry);

}  // namespace privtree::release

#endif  // PRIVTREE_RELEASE_SEQUENCE_METHODS_H_
