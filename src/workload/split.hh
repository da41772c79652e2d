/**
 * @file
 * Train/eval workload splits for the policy tournament
 * (exp/tournament.hh).
 *
 * The split answers one question honestly: did a policy generalize,
 * or did it memorize?  `trainingSplit()` names the curated suite
 * benchmarks a policy may be tuned against; `holdoutSplit()`
 * names procedurally generated (`gen:`) workloads that no heuristic
 * in this repository was hand-tuned on — their canonical specs are
 * the identity, so the split is stable across machines and runs.
 * `tournamentWorkloads()` concatenates the two; tournament rankings
 * on the holdout rows are the generalization evidence.
 *
 * The membership of each split is part of the repository's
 * evaluation contract: tests/test_tournament.cc pins the sizes and
 * the canonical spellings.
 */

#ifndef MCD_WORKLOAD_SPLIT_HH
#define MCD_WORKLOAD_SPLIT_HH

#include <string>
#include <vector>

namespace mcd::workload
{

/** Curated suite benchmarks available for policy training/tuning
 *  (a cross-section of the suite: control-dense codecs, a memory
 *  hog, an integer staple). */
const std::vector<std::string> &trainingSplit();

/** Held-out generated workloads (canonical `gen:` specs) that
 *  policies first meet at evaluation time. */
const std::vector<std::string> &holdoutSplit();

/** The tournament roster: trainingSplit() then holdoutSplit(). */
std::vector<std::string> tournamentWorkloads();

} // namespace mcd::workload

#endif // MCD_WORKLOAD_SPLIT_HH
