#include "sim/clock.hh"

#include <algorithm>
#include <memory>
#include <mutex>

namespace mcd::sim
{

Volt
SimConfig::voltageFor(Mhz f) const
{
    if (f <= minMhz)
        return minVolt;
    if (f >= maxMhz)
        return maxVolt;
    double t = (f - minMhz) / (maxMhz - minMhz);
    return minVolt + t * (maxVolt - minVolt);
}

namespace
{

/** One (seed, jitter) key's prefixes, one per scaled domain. */
struct JitterKey
{
    std::uint64_t seed;
    Tick jitterPs;
    std::array<JitterPrefix, NUM_SCALED_DOMAINS> domains;
};

} // namespace

const JitterPrefix *
JitterPrefix::shared(const SimConfig &cfg, Domain d)
{
    // Function-local, so nothing is built before the first clock.
    // Entries are immutable once published and never freed; the
    // mutex orders a build before every later lookup of its key.
    static std::mutex mu;
    static std::vector<std::unique_ptr<const JitterKey>> keys;

    std::lock_guard<std::mutex> lock(mu);
    for (const auto &k : keys) {
        if (k->seed == cfg.jitterSeed && k->jitterPs == cfg.jitterPs)
            return &k->domains[domainIndex(d)];
    }
    if (keys.size() >= MAX_KEYS)
        return nullptr;

    // The same generators, in the same order, as Kernel's clocks.
    auto key = std::make_unique<JitterKey>();
    key->seed = cfg.jitterSeed;
    key->jitterPs = cfg.jitterPs;
    Rng seed_rng(cfg.jitterSeed);
    for (JitterPrefix &p : key->domains) {
        p.rest = seed_rng.fork();
        p.draws.resize(DRAWS);
        for (double &j : p.draws)
            j = p.rest.clampedNormal(
                0.0, static_cast<double>(cfg.jitterPs) / 3.0,
                static_cast<double>(cfg.jitterPs));
    }
    keys.push_back(std::move(key));
    return &keys.back()->domains[domainIndex(d)];
}

DomainClock::DomainClock(const SimConfig &c, Domain d, bool jitter,
                         Rng r, const JitterPrefix *prefix)
    : cfg(c), domain(d), jitterOn(jitter), rng(prefix ? prefix->rest : r),
      curMhz(c.maxMhz), targetMhz(c.maxMhz),
      volt(c.voltageFor(c.maxMhz)), periodPs_(periodPs(c.maxMhz)),
      nominalNext(periodPs_), jitteredNext(nominalNext),
      lastEdge(0), edgeCount(0), freqTimeIntegral(0.0), startTime(0)
{
    if (prefix) {
        prefixNext = prefix->draws.data();
        prefixEnd = prefixNext + prefix->draws.size();
    }
    if (jitterOn) {
        double j = drawJitter();
        jitteredNext = static_cast<Tick>(
            std::max<double>(1.0, static_cast<double>(nominalNext) + j));
    }
}

void
DomainClock::advance()
{
    Tick now = jitteredNext;
    freqTimeIntegral += curMhz * static_cast<double>(now - lastEdge);
    lastEdge = now;
    ++edgeCount;

    // Ramp the effective frequency toward the target: 1 MHz per
    // rampNsPerMhz nanoseconds of elapsed time.
    if (curMhz != targetMhz) {
        double elapsed_ns = static_cast<double>(periodPs_) / 1000.0;
        double delta = elapsed_ns / cfg.rampNsPerMhz;
        if (curMhz < targetMhz)
            curMhz = std::min(targetMhz, curMhz + delta);
        else
            curMhz = std::max(targetMhz, curMhz - delta);
        volt = cfg.voltageFor(curMhz);
        periodPs_ = periodPs(curMhz);
    }

    // The nominal grid advances jitter-free; jitter perturbs each
    // edge independently (no random-walk drift).
    nominalNext += periodPs_;
    jitteredNext = nominalNext;
    if (jitterOn) {
        double j = drawJitter();
        double cand = static_cast<double>(nominalNext) + j;
        double floor_t = static_cast<double>(now) + 1.0;
        jitteredNext = static_cast<Tick>(std::max(cand, floor_t));
    }
}

Mhz
DomainClock::averageFreq() const
{
    Tick span = lastEdge - startTime;
    if (span == 0)
        return curMhz;
    return freqTimeIntegral / static_cast<double>(span);
}

void
DomainClock::setTarget(Mhz f)
{
    targetMhz = std::clamp(f, cfg.minMhz, cfg.maxMhz);
}

void
DomainClock::jumpTo(Mhz f)
{
    targetMhz = std::clamp(f, cfg.minMhz, cfg.maxMhz);
    curMhz = targetMhz;
    volt = cfg.voltageFor(curMhz);
    periodPs_ = periodPs(curMhz);
    nominalNext = lastEdge + periodPs_;
    jitteredNext = nominalNext;
}

} // namespace mcd::sim
