/**
 * @file
 * An execution clock domain component (integer, floating point or
 * memory): issue-queue wakeup/select and functional-unit execution,
 * including the load/store timing through the L1D/L2/DRAM hierarchy
 * for the memory domain — the stage logic that runs on every edge of
 * that domain's clock.
 *
 * State lives on the owning Processor (the issue queues feed from
 * the shared ROB); this class is the per-domain *logic* plus its
 * scheduling contract with the Kernel: an exec domain is idle
 * exactly while its issue queue is empty, and only a front-end
 * dispatch can end that, so the kernel parks it until the front end
 * wakes it.
 */

#ifndef MCD_SIM_EXEC_DOMAIN_HH
#define MCD_SIM_EXEC_DOMAIN_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/kernel.hh"
#include "util/types.hh"

namespace mcd::sim
{

class Processor;
struct Uop;

/** Synchronization margins into one domain, indexed by source
 *  domain (Processor::syncMarginsTo()). */
using SyncMargins = std::array<Tick, NUM_DOMAINS>;

/**
 * Why an issue scan issued nothing, accumulated over its failed
 * checks: the earliest time and own-clock edge at which one of them
 * could pass, and the state they read.  Every check is monotonic
 * while the margins stay fixed, so until one of these changes a
 * rescan fails the same way.
 */
struct IssueWait
{
    /** Earliest time threshold (dispatch synchronizer, a completed
     *  producer's value crossing domains). */
    Tick time = Kernel::NEVER;
    /** Earliest own-clock edge threshold (a same-domain producer's
     *  result edge, a busy functional unit). */
    std::uint64_t edge = ~0ULL;
    /** Oldest in-ROB producer a check read: its retirement changes
     *  where its value is looked up. */
    std::uint64_t oldestProducer = ~0ULL;
    /** Domains (bit per domain index) with an awaited producer that
     *  has not issued yet. */
    unsigned domains = 0;
    /** A failure the fields above cannot describe: never skip. */
    bool opaque = false;

    void atTime(Tick t) { time = std::min(time, t); }
    void atEdge(std::uint64_t e) { edge = std::min(edge, e); }
};

class ExecDomain final : public DomainComponent
{
  public:
    ExecDomain(Processor &p, Domain d, int issue_width)
        : p(p), dom(d), width(issue_width)
    {
    }

    /** One domain edge: sample queue occupancy, then issue up to
     *  the domain's width of ready instructions in age order —
     *  unless the previous scan issued nothing and nothing it
     *  waited on has changed (see IssueWait). */
    void tick(Tick now) override;

    /** Idle (until woken by a dispatch) iff the issue queue is
     *  empty. */
    Tick idleHorizon() const override;

    /** Skipped edges advance the occupancy sample count only (the
     *  occupancy sum gains zeros while the queue is empty). */
    void skipped(std::uint64_t n) override;

  private:
    /** Issue @p u at @p now if its operands, store ordering and a
     *  functional unit allow; no side effects when it cannot, other
     *  than recording why in @p wait.  @p margin is
     *  syncMarginsTo(dom) for this edge.  The caller has checked the
     *  dispatch synchronizer. */
    bool tryIssue(Tick now, Uop &u, const SyncMargins &margin,
                  IssueWait &wait);

    /** Whether a scan now would fail exactly as the last one did. */
    bool stillWaiting(Tick now, std::uint64_t cur_edge,
                      const SyncMargins &margin) const;

    Processor &p;
    Domain dom;
    int width;

    // The last scan, when it issued nothing (waitValid).
    bool waitValid = false;
    IssueWait wait;
    SyncMargins waitMargin{};
    std::size_t waitQueueSize = 0;
    std::array<std::uint64_t, NUM_SCALED_DOMAINS> waitIssues{};
};

} // namespace mcd::sim

#endif // MCD_SIM_EXEC_DOMAIN_HH
