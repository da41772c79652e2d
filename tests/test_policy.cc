/**
 * @file
 * Tests for the open policy API: registry registration/lookup,
 * PolicySpec parse/print round-trips and error messages,
 * canonical-spec cache-key stability, schema defaults (unset
 * parameters fall back to documented defaults, never zero), and the
 * hybrid policy as proof the registry is open.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "control/policy.hh"
#include "exp/experiment.hh"
#include "workload/suite.hh"

#include "cache_key_util.hh"

using namespace mcd;
using control::ParamInfo;
using control::ParamType;
using control::Policy;
using control::PolicyRegistry;
using control::PolicySpec;
using exp::ExpConfig;
using exp::Outcome;
using exp::Runner;
using exp::SweepCell;

namespace
{

/** Small windows so a full policy set stays test-sized. */
ExpConfig
smallConfig()
{
    ExpConfig cfg;
    cfg.productionWindow = 8'000;
    cfg.analysisWindow = 8'000;
    cfg.offlineInterval = 4'000;
    return cfg;
}

/** Canonicalize a spec string; fails the test on error. */
std::string
canon(const std::string &text)
{
    PolicySpec spec;
    std::string err;
    EXPECT_TRUE(control::parseSpec(text, spec, err)) << err;
    EXPECT_TRUE(PolicyRegistry::instance().canonicalize(spec, err))
        << err;
    return spec.str();
}

/** The canonicalization error for a spec string (empty = success). */
std::string
canonError(const std::string &text)
{
    PolicySpec spec;
    std::string err;
    if (!control::parseSpec(text, spec, err))
        return err;
    if (!PolicyRegistry::instance().canonicalize(spec, err))
        return err;
    return "";
}

void
expectSameOutcome(const Outcome &a, const Outcome &b)
{
    EXPECT_DOUBLE_EQ(a.timePs, b.timePs);
    EXPECT_DOUBLE_EQ(a.energyNj, b.energyNj);
    EXPECT_DOUBLE_EQ(a.reconfigs, b.reconfigs);
    EXPECT_DOUBLE_EQ(a.overheadCycles, b.overheadCycles);
    EXPECT_DOUBLE_EQ(a.feCycles, b.feCycles);
    EXPECT_DOUBLE_EQ(a.dynReconfigPoints, b.dynReconfigPoints);
    EXPECT_DOUBLE_EQ(a.dynInstrPoints, b.dynInstrPoints);
    EXPECT_DOUBLE_EQ(a.staticReconfigPoints, b.staticReconfigPoints);
    EXPECT_DOUBLE_EQ(a.staticInstrPoints, b.staticInstrPoints);
    EXPECT_DOUBLE_EQ(a.tableBytes, b.tableBytes);
    EXPECT_DOUBLE_EQ(a.globalFreq, b.globalFreq);
    EXPECT_DOUBLE_EQ(a.metrics.slowdownPct, b.metrics.slowdownPct);
    EXPECT_DOUBLE_EQ(a.metrics.energySavingsPct,
                     b.metrics.energySavingsPct);
    EXPECT_DOUBLE_EQ(a.metrics.energyDelayImprovementPct,
                     b.metrics.energyDelayImprovementPct);
}

} // namespace

// ---------------------------------------------------------------- //
// Registry                                                         //
// ---------------------------------------------------------------- //

TEST(PolicyRegistry, BuiltinsAreRegistered)
{
    PolicyRegistry &reg = PolicyRegistry::instance();
    for (const char *name : {"baseline", "profile", "offline",
                             "online", "global", "hybrid"}) {
        const Policy *p = reg.find(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_STREQ(p->name(), name);
        EXPECT_STRNE(p->description(), "");
    }
}

TEST(PolicyRegistry, UnknownNameIsNull)
{
    EXPECT_EQ(PolicyRegistry::instance().find("nonesuch"), nullptr);
    EXPECT_EQ(PolicyRegistry::instance().find(""), nullptr);
}

TEST(PolicyRegistry, ListIsSortedAndComplete)
{
    std::vector<const Policy *> all =
        PolicyRegistry::instance().list();
    ASSERT_GE(all.size(), 6u);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(std::string(all[i - 1]->name()),
                  std::string(all[i]->name()));
}

TEST(PolicyRegistry, OnlyBaselineAndChipCoordAreAbsolute)
{
    // baseline is the reference every metric is computed against;
    // chip-coord never runs a single-core cell at all (it governs a
    // chip's shared uncore), so neither reports baseline-relative
    // metrics.
    for (const Policy *p : PolicyRegistry::instance().list()) {
        std::string name = p->name();
        EXPECT_EQ(p->relativeToBaseline(),
                  name != "baseline" && name != "chip-coord");
    }
}

// ---------------------------------------------------------------- //
// PolicySpec parse / print / canonicalize                          //
// ---------------------------------------------------------------- //

TEST(PolicySpec, ParsePrintRoundTrip)
{
    // parse -> canonicalize -> print -> parse -> canonicalize must
    // be the identity on the printed form.
    const char *inputs[] = {
        "baseline",
        "profile",
        "profile:d=5,mode=LFCP",
        "profile:mode=lfcp",
        "profile:mode=L+F+C+P,d=10",
        "offline:d=10",
        "online:aggr=1.5",
        "global",
        "hybrid:guard=0.05",
    };
    for (const char *in : inputs) {
        SCOPED_TRACE(in);
        std::string once = canon(in);
        EXPECT_EQ(canon(once), once);
    }
}

TEST(PolicySpec, CanonicalFormsArePinned)
{
    // The canonical string is the cache key's policy fragment; these
    // exact forms are load-bearing for cache hits across runs.  If
    // one changes, bump exp CACHE_VERSION.
    EXPECT_EQ(canon("baseline"), "baseline");
    EXPECT_EQ(canon("profile"), "profile:mode=LF,d=5.000");
    EXPECT_EQ(canon("profile:d=10,mode=lfcp"),
              "profile:mode=LFCP,d=10.000");
    EXPECT_EQ(canon("offline:d=10"), "offline:d=10.000");
    EXPECT_EQ(canon("online:aggr=1.5"), "online:aggr=1.500");
    EXPECT_EQ(canon("global"), "global:d=5.000");
    EXPECT_EQ(canon("hybrid"),
              "hybrid:mode=LF,d=5.000,guard=0.100,interval=2000.000");
}

TEST(PolicySpec, UnsetParamsTakeSchemaDefaultsNotZero)
{
    // The old SweepCell defaulted d to 0.0 while ExpConfig
    // documented 5.0; the schema is now the single authority.
    PolicySpec spec = PolicySpec::of("offline");
    std::string err;
    ASSERT_TRUE(PolicyRegistry::instance().canonicalize(spec, err))
        << err;
    EXPECT_DOUBLE_EQ(spec.num("d"), control::DEFAULT_SLOWDOWN_PCT);
    EXPECT_DOUBLE_EQ(spec.num("d"), 5.0);

    PolicySpec prof = PolicySpec::of("profile");
    ASSERT_TRUE(PolicyRegistry::instance().canonicalize(prof, err));
    EXPECT_DOUBLE_EQ(prof.num("d"), 5.0);
    EXPECT_EQ(prof.mode("mode"), core::ContextMode::LF);
}

TEST(PolicySpec, ProgrammaticBuildersMatchParsedText)
{
    EXPECT_EQ(PolicySpec::of("profile")
                  .set("mode", core::ContextMode::LFCP)
                  .set("d", 10.0)
                  .str(),
              "profile:mode=LFCP,d=10.000");
    EXPECT_EQ(PolicySpec::of("online").set("aggr", 1.5).str(),
              "online:aggr=1.500");
    // set() overwrites instead of duplicating.
    EXPECT_EQ(
        PolicySpec::of("offline").set("d", 2.0).set("d", 4.0).str(),
        "offline:d=4.000");
}

TEST(PolicySpec, BadSpecsReportUsefulErrors)
{
    auto expectError = [](const std::string &spec,
                          const std::string &substr) {
        std::string err = canonError(spec);
        EXPECT_NE(err.find(substr), std::string::npos)
            << "spec '" << spec << "': error '" << err
            << "' does not mention '" << substr << "'";
    };
    expectError("nonesuch", "unknown policy 'nonesuch'");
    expectError("nonesuch", "known:");
    expectError("offline:x=1", "no parameter 'x'");
    expectError("offline:x=1", "takes: d");
    expectError("baseline:d=1", "takes none");
    expectError("offline:d=abc", "'abc' is not a number");
    expectError("profile:mode=XY", "not a context mode");
    expectError("offline:d", "not of the form key=value");
    expectError("offline:d=1,d=2", "given twice");
    expectError("hybrid:interval=0", "out of range [1, 1e+12]");
    expectError("hybrid:interval=-1", "out of range");
    expectError("hybrid:interval=2000.4", "must be an integer");
    expectError("hybrid:guard=1.5", "out of range [0, 1]");
    expectError("offline:d=-3", "out of range");
    expectError("Offline", "bad policy spec");
    expectError("", "bad policy spec");
}

TEST(PolicySpec, ModeParsingAcceptsAllSpellings)
{
    core::ContextMode m;
    EXPECT_TRUE(control::parseContextMode("LFCP", m));
    EXPECT_EQ(m, core::ContextMode::LFCP);
    EXPECT_TRUE(control::parseContextMode("l+f+c+p", m));
    EXPECT_EQ(m, core::ContextMode::LFCP);
    EXPECT_TRUE(control::parseContextMode("f", m));
    EXPECT_EQ(m, core::ContextMode::F);
    EXPECT_FALSE(control::parseContextMode("LFX", m));
    EXPECT_FALSE(control::parseContextMode("", m));
}

// ---------------------------------------------------------------- //
// Cache keys                                                       //
// ---------------------------------------------------------------- //

TEST(PolicyCacheKey, CanonicalSpecIsTheKeyFragment)
{
    Runner runner(smallConfig());
    std::string key = runner.cacheKey(
        "gsm_decode", PolicySpec::of("offline").set("d", 10.0));
    // <tag><16-hex fingerprint>|<canonical policy spec>|<canonical
    // workload spec>|<context> — tag pinned in cache_key_util.hh.
    ASSERT_TRUE(testpins::hasCacheKeyTag(key)) << key;
    EXPECT_EQ(testpins::cacheKeyTail(key),
              "|offline:d=10.000|gsm_decode|w8000|i4000");
}

TEST(PolicyCacheKey, EquivalentSpecsShareOneKey)
{
    Runner runner(smallConfig());
    SweepCell a = SweepCell::of("mcf", "profile:d=10,mode=lf");
    SweepCell b = SweepCell::of(
        "mcf", PolicySpec::of("profile")
                   .set("mode", core::ContextMode::LF)
                   .set("d", 10.0));
    EXPECT_EQ(runner.cacheKey(a.bench, a.spec),
              runner.cacheKey(b.bench, b.spec));
}

TEST(PolicyCacheKey, ContextKnobsAndConfigChangeTheKey)
{
    ExpConfig base = smallConfig();
    Runner r1(base);
    ExpConfig interval = base;
    interval.offlineInterval = 2'000;
    Runner r2(interval);
    ExpConfig physics = base;
    physics.sim.singleClock = true;
    Runner r3(physics);

    PolicySpec off = PolicySpec::of("offline").set("d", 10.0);
    EXPECT_NE(r1.cacheKey("mcf", off), r2.cacheKey("mcf", off));
    EXPECT_NE(r1.cacheKey("mcf", off), r3.cacheKey("mcf", off));
    // The baseline does not depend on the off-line interval, so its
    // key must not change with it (no spurious cache misses).
    PolicySpec bl = PolicySpec::of("baseline");
    EXPECT_EQ(r1.cacheKey("mcf", bl), r2.cacheKey("mcf", bl));
}

TEST(PolicyCacheKey, CommaBearingKeysRoundTripThroughTheFileCache)
{
    // Canonical specs contain commas (profile:mode=LF,d=10.000), so
    // cache lines are parsed from the tail; a multi-parameter key
    // must survive a write/reload cycle and serve the cached value.
    std::string path = ::testing::TempDir() + "mcd_policy_cache.csv";
    std::remove(path.c_str());
    ExpConfig cfg = smallConfig();
    cfg.cacheFile = path;
    double t1 = 0.0;
    {
        Runner r(cfg);
        t1 = r.run("gsm_decode",
                   PolicySpec::of("profile").set("d", 10.0))
                 .timePs;
    }
    Runner reload(cfg);
    EXPECT_EQ(reload.loadedFromCache(), 2u);  // profile + baseline
    EXPECT_EQ(reload.rejectedCacheLines(), 0u);
    EXPECT_DOUBLE_EQ(
        reload
            .run("gsm_decode",
                 PolicySpec::of("profile").set("d", 10.0))
            .timePs,
        t1);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// The hybrid policy (proof the registry is open)                   //
// ---------------------------------------------------------------- //

TEST(HybridPolicy, RunsDeterministicallyAndSweeps)
{
    ExpConfig cfg = smallConfig();
    Runner r1(cfg);
    Outcome a = r1.run("gsm_decode", PolicySpec::of("hybrid"));
    EXPECT_GT(a.timePs, 0.0);
    EXPECT_GT(a.energyNj, 0.0);
    Runner r2(cfg);
    Outcome b = r2.run("gsm_decode", PolicySpec::of("hybrid"));
    expectSameOutcome(a, b);

    // Sweepable like any registered policy, parameters included.
    Runner r3(cfg);
    std::vector<SweepCell> cells = {
        SweepCell::of("gsm_decode", "hybrid:guard=0.05,d=10"),
        SweepCell::of("adpcm_decode", "hybrid:mode=LFCP"),
    };
    std::vector<Outcome> out = r3.runSweep(cells, 2);
    ASSERT_EQ(out.size(), 2u);
    for (const Outcome &o : out)
        EXPECT_GT(o.timePs, 0.0);
}

TEST(HybridPolicy, SharesTheProfilePlanButNotTheOutcomeKey)
{
    // Same pipeline shape as profile, so static plan numbers match;
    // distinct cache keys keep the outcomes apart.
    ExpConfig cfg = smallConfig();
    Runner r(cfg);
    Outcome prof =
        r.run("mpeg2_decode", PolicySpec::of("profile").set("d", 10.0));
    Outcome hyb =
        r.run("mpeg2_decode", PolicySpec::of("hybrid").set("d", 10.0));
    EXPECT_DOUBLE_EQ(prof.staticReconfigPoints,
                     hyb.staticReconfigPoints);
    EXPECT_DOUBLE_EQ(prof.staticInstrPoints, hyb.staticInstrPoints);
    EXPECT_NE(r.cacheKey("mpeg2_decode",
                         PolicySpec::of("profile").set("d", 10.0)),
              r.cacheKey("mpeg2_decode",
                         PolicySpec::of("hybrid").set("d", 10.0)));
}
