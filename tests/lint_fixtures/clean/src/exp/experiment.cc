// Miniature experiment.cc for mcd_lint's fixture tests: holds the
// CACHE_VERSION constant and the configFingerprint definition the
// fingerprint-complete / cache-version-pin rules parse.

#include "exp/experiment.hh"

#include "util/text.hh"

namespace mcd::exp
{

namespace
{

constexpr int CACHE_VERSION = 5;

} // namespace

std::uint64_t
configFingerprint(const ExpConfig &cfg)
{
    struct Fnv
    {
        std::uint64_t h = 1469598103934665603ULL;
        void u64(std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; }
        void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
        void f64(double v) { u64(static_cast<std::uint64_t>(v)); }
    };

    Fnv f;
    const sim::SimConfig &s = cfg.sim;
    f.i64(s.fetchWidth);
    f.f64(s.maxMhz);
    f.u64(s.jitterSeed);

    const sim::SamplingConfig &sp = s.sampling;
    f.u64(sp.intervalInstrs);
    f.u64(sp.sampleInstrs);
    f.f64(sp.ciBiasPct);

    const power::PowerConfig &p = cfg.power;
    for (double v : p.clockPj)
        f.f64(v);
    f.f64(p.vMax);

    f.u64(cfg.profileMaxInstrs);

    const chip::ChipConfig &ch = cfg.chip;
    f.i64(ch.l2PortCycles);
    f.f64(ch.uncoreMaxMhz);
    f.u64(ch.coordIntervalPs);
    return f.h ^ static_cast<std::uint64_t>(CACHE_VERSION);
}

std::string
outcomeToLine(const std::string &key, double timePs, double energyNj)
{
    std::string line = key;
    line += ',';
    line += util::fmtDouble17(timePs);
    line += ',';
    line += util::fmtDouble17(energyNj);
    return line;
}

} // namespace mcd::exp
