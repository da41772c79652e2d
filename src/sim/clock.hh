/**
 * @file
 * Per-domain clocks with jitter and ramped dynamic frequency/voltage
 * scaling (Section 2 of the paper).
 *
 * A running program initiates reconfiguration by writing the target
 * frequencies; the clock then ramps its effective frequency linearly
 * at the XScale-like rate (73.3 ns/MHz) while execution continues.
 */

#ifndef MCD_SIM_CLOCK_HH
#define MCD_SIM_CLOCK_HH

#include <algorithm>
#include <vector>

#include "sim/config.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace mcd::sim
{

/**
 * The first draws of one clock's jitter stream, computed once per
 * process and shared read-only by every clock that would draw the
 * same sequence.  A clock's jitter depends only on
 * (SimConfig::jitterSeed, SimConfig::jitterPs, domain): the kernel
 * forks each domain's generator from the seed in domain order and
 * every edge draws one clamped normal.  A clock reads the prefix,
 * then continues from @ref rest, so it sees exactly the draws its
 * own generator would have given, in order.
 */
struct JitterPrefix
{
    /** Draws per prefix (512 KiB of doubles). */
    static constexpr std::size_t DRAWS = 65'536;
    /** Distinct (seed, jitter) keys kept; later keys draw live. */
    static constexpr std::size_t MAX_KEYS = 4;

    std::vector<double> draws;  ///< clamped jitter draws, in order
    Rng rest;                   ///< generator state after the prefix

    /**
     * The shared prefix of domain @p d's stream under @p cfg, built
     * on first use (all four domains of the key at once; a mutex
     * guards only the lookup and build), or null once MAX_KEYS
     * other keys are held.  Nothing is built before the first call.
     */
    static const JitterPrefix *shared(const SimConfig &cfg, Domain d);
};

/**
 * One clock domain's clock generator.
 *
 * Edges are produced one at a time: nextEdge() peeks the upcoming
 * rising edge (with jitter applied); advance() consumes it.  The
 * effective frequency is updated at each consumed edge according to
 * the ramp model.
 */
class DomainClock
{
  public:
    /**
     * @param cfg     shared configuration
     * @param d       which domain this clock drives
     * @param jitter  whether to apply jitter (off in single-clock mode)
     * @param rng     jitter random stream (owned by caller semantics:
     *                copied in)
     * @param prefix  optional shared prefix of the same stream
     *                (JitterPrefix::shared); when given, @p rng is
     *                ignored and the clock reads the prefix, then
     *                continues from its post-prefix state
     */
    DomainClock(const SimConfig &cfg, Domain d, bool jitter, Rng rng,
                const JitterPrefix *prefix = nullptr);

    /** Time of the next rising edge (jittered), in ps. */
    Tick nextEdge() const { return jitteredNext; }

    /** Consume the pending edge and schedule the following one. */
    void advance();

    /** Effective frequency at the last consumed edge. */
    Mhz freq() const { return curMhz; }

    /** Supply voltage tracking the effective frequency. */
    Volt voltage() const { return volt; }

    /** Current period in ps at the effective frequency (cached;
     *  refreshed wherever the effective frequency changes). */
    Tick period() const { return periodPs_; }

    /** Request a new target frequency (clamped to legal range). */
    void setTarget(Mhz f);

    /**
     * Jump instantly to frequency @p f (clamped); used to establish
     * initial conditions before simulated time begins, not during a
     * run (real reconfigurations ramp).
     */
    void jumpTo(Mhz f);

    Mhz target() const { return targetMhz; }

    /** Whether the effective frequency is still moving to target. */
    bool ramping() const { return curMhz != targetMhz; }

    /** Number of edges consumed so far. */
    std::uint64_t edges() const { return edgeCount; }

    /**
     * Time-weighted average frequency since construction (for
     * reporting).
     */
    Mhz averageFreq() const;

  private:
    /** The next clamped jitter sample: the shared prefix while it
     *  lasts, then the live generator. */
    double
    drawJitter()
    {
        if (prefixNext != prefixEnd)
            return *prefixNext++;
        return rng.clampedNormal(
            0.0, static_cast<double>(cfg.jitterPs) / 3.0,
            static_cast<double>(cfg.jitterPs));
    }

    const SimConfig &cfg;
    Domain domain;
    bool jitterOn;
    Rng rng;
    const double *prefixNext = nullptr;
    const double *prefixEnd = nullptr;
    Mhz curMhz;
    Mhz targetMhz;
    Volt volt;
    Tick periodPs_;      ///< periodPs(curMhz)
    Tick nominalNext;    ///< unjittered next edge
    Tick jitteredNext;
    Tick lastEdge;
    std::uint64_t edgeCount;
    double freqTimeIntegral;  ///< MHz * ps, for averageFreq()
    Tick startTime;
};

/**
 * Synchronization margin between two domains: a value produced at
 * time t in @p src is usable in @p dst only at a dst edge at least
 * this much later (Sjogren-Myers synchronizer; within the window the
 * consumer waits one extra cycle).  Zero for same-domain or
 * single-clock operation.
 */
inline Tick
syncMarginPs(const SimConfig &cfg, Domain src, Domain dst,
             Tick src_period, Tick dst_period)
{
    if (cfg.singleClock || src == dst)
        return 0;
    Tick faster = std::min(src_period, dst_period);
    return static_cast<Tick>(cfg.syncWindowFrac *
                             static_cast<double>(faster));
}

} // namespace mcd::sim

#endif // MCD_SIM_CLOCK_HH
