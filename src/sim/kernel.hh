/**
 * @file
 * The event-driven simulation kernel: the per-domain clocks and the
 * edge scheduler.
 *
 * The kernel owns the four scaled-domain clocks and dispatches each
 * consumed rising edge to the DomainComponent attached to that
 * domain.  Every edge of every domain is processed, in global time
 * order with ties broken by domain index (front end first), and each
 * processed edge accrues its clock-tree energy and advances
 * chip-wide leakage before the component runs.
 */

#ifndef MCD_SIM_KERNEL_HH
#define MCD_SIM_KERNEL_HH

#include <array>
#include <memory>

#include "power/power.hh"
#include "sim/clock.hh"
#include "sim/config.hh"
#include "util/types.hh"

namespace mcd::sim
{

/**
 * One clock domain's stage machinery, as seen by the kernel.
 */
class DomainComponent
{
  public:
    virtual ~DomainComponent() = default;

    /** Process the edge just consumed, at time @p now. */
    virtual void tick(Tick now) = 0;
};

/**
 * Edge scheduler and clock owner.  Construct, attach() one component
 * per scaled domain, then drive it with stepOne().  The chip layer
 * interleaves several cores' kernels in global time order through
 * peekNextTime() and stepOne(), the same calls a lone core uses.
 */
class Kernel
{
  public:
    Kernel(const SimConfig &cfg, power::PowerModel &power);

    void attach(Domain d, DomainComponent *c)
    {
        comps[domainIndex(d)] = c;
    }

    DomainClock &clock(Domain d) { return *clocks[domainIndex(d)]; }
    const DomainClock &clock(Domain d) const
    {
        return *clocks[domainIndex(d)];
    }

    /** Time of the last processed edge (0 before the first). */
    Tick now() const { return now_; }

    /** Time of the globally next edge, without consuming it. */
    Tick peekNextTime() const
    {
        return clocks[nextEventDomain()]->nextEdge();
    }

    /** Consume and process exactly one edge; returns the new time. */
    Tick
    stepOne()
    {
        std::size_t best = nextEventDomain();
        DomainClock &c = *clocks[best];
        now_ = c.nextEdge();
        c.advance();
        Domain dom = static_cast<Domain>(best);
        power.clockCycle(dom, c.voltage());
        chargeLeakage(now_);
        comps[best]->tick(now_);
        return now_;
    }

  private:
    /** The domain whose edge is globally next; ties go to the lowest
     *  index. */
    std::size_t
    nextEventDomain() const
    {
        std::size_t best = 0;
        Tick best_t = clocks[0]->nextEdge();
        for (std::size_t d = 1; d < clocks.size(); ++d) {
            Tick t = clocks[d]->nextEdge();
            if (t < best_t) {
                best = d;
                best_t = t;
            }
        }
        return best;
    }

    void chargeLeakage(Tick now);

    power::PowerModel &power;
    std::array<std::unique_ptr<DomainClock>, NUM_SCALED_DOMAINS>
        clocks;
    std::array<DomainComponent *, NUM_SCALED_DOMAINS> comps{};
    Tick now_ = 0;
    Tick lastLeakTime = 0;
};

} // namespace mcd::sim

#endif // MCD_SIM_KERNEL_HH
