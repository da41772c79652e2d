#include "sim/kernel.hh"

#include "util/rng.hh"

namespace mcd::sim
{

Kernel::Kernel(const SimConfig &c, power::PowerModel &p)
    : cfg(c), power(p), ff(c.fastForward)
{
    // Each clock reads the process-wide prefix of its jitter stream
    // when one is held for this key; without one it draws the same
    // stream live from its forked generator.
    Rng seed_rng(cfg.jitterSeed);
    bool jitter = !cfg.singleClock;
    for (Domain d : scaledDomains()) {
        clocks[domainIndex(d)] = std::make_unique<DomainClock>(
            cfg, d, jitter, seed_rng.fork(),
            jitter ? JitterPrefix::shared(cfg, d) : nullptr);
    }
}

void
Kernel::setTarget(Domain d, Mhz f)
{
    // Replay any skipped edges *before* the target moves: they
    // happened under the old, stable frequency, and fastForwardTo()
    // runs the ramp model on every edge it consumes.
    wake(d);
    clock(d).setTarget(f);
    // While any clock ramps, every domain must process every edge:
    // chip-wide leakage is sliced at each processed edge using the
    // ramping domain's per-edge voltage, so merging slices across a
    // ramp would charge the wrong voltage.  tryPark() refuses to
    // park during a ramp; here we also wake anyone already parked.
    if (clock(d).ramping())
        syncStats();
}

void
Kernel::jumpTo(Domain d, Mhz f)
{
    wake(d);
    clock(d).jumpTo(f);
}

void
Kernel::tryPark(std::size_t d)
{
    // No parking while any clock ramps: a ramping clock updates
    // frequency and voltage at every edge, and chip-wide leakage
    // slices read every domain's instantaneous voltage at every
    // processed edge, so every edge must be a slice boundary until
    // all ramps complete.
    if (parked_[d] || anyRamping())
        return;
    Tick h = comps[d]->idleHorizon();
    if (h != NEVER && h <= now_)
        return;
    parked_[d] = true;
    wakeAt_[d] = h;
}

void
Kernel::replay(std::size_t d, Tick t)
{
    DomainClock &c = *clocks[d];
    // Parked domains never ramp, so one voltage covers the span.
    Volt v = c.voltage();
    std::uint64_t n = c.fastForwardTo(t);
    if (n) {
        power.clockCycles(static_cast<Domain>(d), v, n);
        comps[d]->skipped(n);
        ffEdges += n;
    }
    parked_[d] = false;
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

void
Kernel::finish()
{
    for (std::size_t d = 0; d < clocks.size(); ++d) {
        if (parked_[d])
            replay(d, now_);
    }
}

} // namespace mcd::sim
