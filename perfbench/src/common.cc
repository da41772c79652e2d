#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "workload/registry.hh"
#include "workload/suite.hh"

namespace perfbench
{

using mcd::control::Outcome;
using mcd::control::PolicySpec;

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace
{

std::vector<double>
fields(const Outcome &o)
{
    return {o.timePs,
            o.energyNj,
            o.metrics.slowdownPct,
            o.metrics.energySavingsPct,
            o.metrics.energyDelayImprovementPct,
            o.reconfigs,
            o.overheadCycles,
            o.feCycles,
            o.dynReconfigPoints,
            o.dynInstrPoints,
            o.staticReconfigPoints,
            o.staticInstrPoints,
            o.tableBytes,
            o.globalFreq,
            o.timeCiPs,
            o.energyCiNj};
}

/** The d of a `profile:` / `offline:` spec, or a negative value. */
double
targetD(const PolicySpec &canon)
{
    if (canon.policy != "profile" && canon.policy != "offline")
        return -1.0;
    return canon.num("d");
}

} // namespace

bool
sameOutcome(const Outcome &a, const Outcome &b)
{
    std::vector<double> fa = fields(a), fb = fields(b);
    return std::memcmp(fa.data(), fb.data(),
                       fa.size() * sizeof(double)) == 0;
}

std::uint64_t
digest(const std::vector<Outcome> &outs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Outcome &o : outs) {
        for (double v : fields(o)) {
            unsigned char bytes[sizeof v];
            std::memcpy(bytes, &v, sizeof v);
            for (unsigned char c : bytes) {
                h ^= c;
                h *= 0x100000001b3ULL;
            }
        }
    }
    return h;
}

bool
plausible(const Outcome &o)
{
    return std::isfinite(o.timePs) && std::isfinite(o.energyNj) &&
           o.timePs > 0.0 && o.energyNj > 0.0;
}

double
overshootPp(const std::vector<mcd::exp::SweepCell> &cells,
            const std::vector<Outcome> &outs, bool suite)
{
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        double d = targetD(cells[i].spec);
        if (d < 0.0 ||
            mcd::workload::isSuiteBenchmark(cells[i].bench) != suite)
            continue;
        sum += std::max(0.0, outs[i].metrics.slowdownPct - d);
        ++n;
    }
    return n ? sum / n : 0.0;
}

bool
isWorkload(const std::string &name)
{
    return name == "dsweep" || name == "headline" || name == "sampled";
}

unsigned
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(4u, hw));
}

namespace
{

/** A generator workload drawn from the seed: the generator's own
 *  seed varies, its shape parameters keep their defaults. */
std::string
drawGen(SplitMix &rng)
{
    return "gen:phases=4,seed=" + std::to_string(1 + rng.below(100000));
}

} // namespace

SweepPlan
sweepPlan(const Options &opt)
{
    const std::string &name = opt.workload;
    const bool smoke = opt.smoke;
    SweepPlan p;
    p.jobs = defaultJobs();
    // Memory-bound, integer-media and FP suite programs; the seed
    // adds the generator workloads.
    if (smoke)
        p.benches = {"adpcm_decode"};
    else
        p.benches = {"mcf",        "art",  "adpcm_decode",
                     "gsm_decode", "swim", "equake"};
    SplitMix rng(opt.seed * 0x2545F4914F6CDD1DULL + 17);
    int gens = smoke ? 1 : 2;
    for (int i = 0; i < gens; ++i)
        p.benches.push_back(drawGen(rng));

    std::uint64_t window = 0;
    if (name == "dsweep") {
        window = 20'000;
        for (int d : {2, 4, 6, 10, 14, 20}) {
            p.policies.push_back("profile:mode=LF,d=" +
                                 std::to_string(d));
            p.policies.push_back("offline:d=" + std::to_string(d));
        }
    } else {
        window = name == "sampled" ? 100'000 : 40'000;
        p.policies = {"baseline", "global:d=10", "online:aggr=1",
                      "offline:d=10", "profile:mode=LF,d=10"};
        if (name == "sampled")
            p.cfg.sim.sampling = mcd::sim::parseSamplingSpec("sampled");
    }
    if (smoke) {
        window = name == "sampled" ? 30'000 : 4'000;
        p.cfg.profileMaxInstrs = 200'000;
    }
    if (opt.fullSize)
        window = mcd::exp::ExpConfig{}.productionWindow;
    p.cfg.productionWindow = window;
    p.cfg.analysisWindow = window;
    p.cfg.jobs = p.jobs;
    return p;
}

PolicySpec
canonicalPolicy(const std::string &text)
{
    PolicySpec spec;
    std::string err;
    if (!mcd::control::parseSpec(text, spec, err) ||
        !mcd::control::PolicyRegistry::instance().canonicalize(spec, err))
        throw mcd::workload::SpecError(err);
    return spec;
}

std::vector<mcd::exp::SweepCell>
makeCells(const SweepPlan &plan)
{
    std::vector<mcd::exp::SweepCell> cells;
    for (const auto &b : plan.benches) {
        std::string canon = mcd::workload::canonicalWorkloadSpec(b);
        for (const auto &text : plan.policies)
            cells.push_back(
                mcd::exp::SweepCell::of(canon, canonicalPolicy(text)));
    }
    return cells;
}

void
Result::add(std::string name, double value, std::string unit)
{
    if (!std::isfinite(value)) {
        ++attempted;
        fail(1, "metric " + name + " is not finite");
        value = 0.0;
    }
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void
Result::fail(std::uint64_t n, const std::string &why)
{
    failed += n;
    problems.push_back(why);
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + num + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

// ------------------------------------------------------------------ //

LayerClock &
LayerClock::instance()
{
    static LayerClock c;
    return c;
}

void
LayerClock::add(const std::string &name, std::int64_t ns)
{
    std::lock_guard<std::mutex> l(m);
    totalNs[name] += ns;
}

double
LayerClock::ms(const std::string &name) const
{
    std::lock_guard<std::mutex> l(m);
    auto it = totalNs.find(name);
    return it == totalNs.end() ? 0.0
                               : static_cast<double>(it->second) / 1e6;
}

Scope::Scope(const char *name)
    : name(name), on(LayerClock::instance().on.load())
{
    if (on)
        t0 = Clock::now();
}

Scope::~Scope()
{
    if (on)
        LayerClock::instance().add(
            name, std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count());
}

} // namespace perfbench
