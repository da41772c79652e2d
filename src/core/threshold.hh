/**
 * @file
 * Phase 3: slowdown thresholding (Section 3.3).
 *
 * Individual events cannot be scaled — whole domains must be.  Given
 * the shaker's per-domain histograms, pick for each domain the
 * minimum frequency such that the extra time needed by events scaled
 * to higher frequencies stays within a slowdown budget of d% of the
 * node's run time.
 */

#ifndef MCD_CORE_THRESHOLD_HH
#define MCD_CORE_THRESHOLD_HH

#include "core/shaker.hh"
#include "sim/trace.hh"

namespace mcd::core
{

/** Slowdown-thresholding parameters. */
struct ThresholdConfig
{
    /** Tolerated slowdown d, percent. */
    double slowdownPct = 5.0;
    /** Frequency discretization (must match the shaker's). */
    FreqSteps steps;
    /**
     * Fraction of the d% budget granted to each domain.  The paper's
     * delay calculation is "by necessity approximate": slowdowns from
     * different domains compose, so granting each domain the full
     * budget overshoots.  0.7 is hand-tuned to keep measured
     * degradation roughly in keeping with d across most of the
     * suite; adpcm and g721 still overshoot it.
     */
    double perDomainShare = 0.7;
    /**
     * Extra conservatism for the front end: fetch-group truncation
     * and branch-resolution serialization make front-end slowdown
     * markedly non-linear, which the event DAG underestimates.
     */
    double frontEndShare = 0.3;
};

/**
 * Choose per-domain frequencies for one node.
 *
 * For each domain the minimum frequency f is selected such that
 * sum over bins b with freq(b) > f of
 *     cycles(b) * (1/f - 1/freq(b))
 * does not exceed d% of the node's analyzed wall time.  Domains with
 * no recorded work idle at the minimum frequency.
 *
 * @param node  shaker output for the node
 * @param cfg   threshold parameters
 */
sim::FreqSet chooseFrequencies(const NodeHistograms &node,
                               const ThresholdConfig &cfg);

} // namespace mcd::core

#endif // MCD_CORE_THRESHOLD_HH
