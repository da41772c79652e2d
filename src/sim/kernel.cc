#include "sim/kernel.hh"

#include "util/rng.hh"

namespace mcd::sim
{

Kernel::Kernel(const SimConfig &c, power::PowerModel &p)
    : power(p)
{
    // Each clock reads the process-wide prefix of its jitter stream
    // when one is held for this key; without one it draws the same
    // stream live from its forked generator.
    Rng seed_rng(c.jitterSeed);
    bool jitter = !c.singleClock;
    for (Domain d : scaledDomains()) {
        clocks[domainIndex(d)] = std::make_unique<DomainClock>(
            c, d, jitter, seed_rng.fork(),
            jitter ? JitterPrefix::shared(c, d) : nullptr);
    }
}

void
Kernel::chargeLeakage(Tick now)
{
    Tick dt = now - lastLeakTime;
    if (dt == 0)
        return;
    for (Domain d : scaledDomains())
        power.leakage(d, clock(d).voltage(), dt);
    lastLeakTime = now;
}

} // namespace mcd::sim
