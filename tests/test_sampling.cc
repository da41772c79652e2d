/**
 * @file
 * Tests for sampled + checkpointed simulation (sim/sampling.hh,
 * sim/checkpoint.hh): spec parse/canonical round-trips and error
 * cases, meanCi95 math, determinism of sampled runs, equivalence of
 * checkpoint-replay and inline functional warm-up, checkpoint
 * serialization round-trips (and rejection of corrupt blobs),
 * exact-mode neutrality of the sampled reporting fields, the pinned
 * cache-key shape for sampled cells (schema tag hoisted into
 * cache_key_util.hh), and the chip-cell rejection of sampled mode.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "sim/checkpoint.hh"
#include "sim/processor.hh"
#include "sim/sampling.hh"
#include "util/stats.hh"
#include "workload/spec.hh"
#include "workload/suite.hh"

#include "cache_key_util.hh"

using namespace mcd;
using sim::SamplingConfig;
using sim::SamplingMode;

namespace
{

SamplingConfig
sampledCfg(std::uint64_t interval = 4'000,
           std::uint64_t sample = 600, std::uint64_t warmup = 200)
{
    SamplingConfig c;
    c.mode = SamplingMode::Sampled;
    c.intervalInstrs = interval;
    c.sampleInstrs = sample;
    c.warmupInstrs = warmup;
    return c;
}

sim::RunResult
runOnce(const workload::Benchmark &bm, const sim::SimConfig &scfg,
        std::uint64_t window,
        std::shared_ptr<const sim::CheckpointSet> cps = nullptr)
{
    power::PowerConfig pcfg;
    sim::Processor proc(scfg, pcfg, bm.program, bm.train);
    proc.setCheckpoints(std::move(cps));
    return proc.run(window);
}

/** Field-by-field equality of everything a RunResult reports. */
void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.timePs, b.timePs);
    EXPECT_EQ(a.chipEnergyNj, b.chipEnergyNj);
    EXPECT_EQ(a.dramEnergyNj, b.dramEnergyNj);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.sampleIntervals, b.sampleIntervals);
    EXPECT_EQ(a.skippedInstrs, b.skippedInstrs);
    EXPECT_EQ(a.timeCiPs, b.timeCiPs);
    EXPECT_EQ(a.energyCiNj, b.energyCiNj);
}

} // namespace

// ---------------------------------------------------------------- //
// Spec grammar                                                     //
// ---------------------------------------------------------------- //

TEST(SamplingSpec, ParseDefaultsAndCanonicalRoundTrip)
{
    SamplingConfig exact = sim::parseSamplingSpec("exact");
    EXPECT_FALSE(exact.sampled());
    EXPECT_EQ(sim::canonicalSamplingSpec(exact), "exact");

    SamplingConfig s = sim::parseSamplingSpec("sampled");
    EXPECT_TRUE(s.sampled());
    EXPECT_EQ(s.intervalInstrs, 10'000u);
    EXPECT_EQ(s.sampleInstrs, 600u);
    EXPECT_EQ(s.warmupInstrs, 400u);
    EXPECT_DOUBLE_EQ(s.ciBiasPct, 1.0);
    EXPECT_EQ(sim::canonicalSamplingSpec(s),
              "sampled:interval=10000,sample=600,warmup=400,"
              "ci=1.000");

    // parse(canonical(cfg)) is the identity on every knob.
    SamplingConfig c = sim::parseSamplingSpec(
        "sampled:warmup=50,interval=900,ci=2.5,sample=100");
    SamplingConfig c2 =
        sim::parseSamplingSpec(sim::canonicalSamplingSpec(c));
    EXPECT_EQ(c2.intervalInstrs, 900u);
    EXPECT_EQ(c2.sampleInstrs, 100u);
    EXPECT_EQ(c2.warmupInstrs, 50u);
    EXPECT_DOUBLE_EQ(c2.ciBiasPct, 2.5);
}

TEST(SamplingSpec, BadSpecsThrowSpecError)
{
    EXPECT_THROW(sim::parseSamplingSpec(""), workload::SpecError);
    EXPECT_THROW(sim::parseSamplingSpec("fast"),
                 workload::SpecError);
    // exact takes no parameters.
    EXPECT_THROW(sim::parseSamplingSpec("exact:interval=100"),
                 workload::SpecError);
    // Unknown key, malformed value, out-of-range ci.
    EXPECT_THROW(sim::parseSamplingSpec("sampled:probes=3"),
                 workload::SpecError);
    EXPECT_THROW(sim::parseSamplingSpec("sampled:interval=abc"),
                 workload::SpecError);
    EXPECT_THROW(sim::parseSamplingSpec("sampled:interval=0"),
                 workload::SpecError);
    EXPECT_THROW(sim::parseSamplingSpec("sampled:ci=101"),
                 workload::SpecError);
    // Warm-up is mandatory in sampled mode...
    EXPECT_THROW(sim::parseSamplingSpec("sampled:warmup=0"),
                 workload::SpecError);
    // ...and the probe must leave room to skip.
    EXPECT_THROW(
        sim::parseSamplingSpec(
            "sampled:interval=1000,sample=900,warmup=100"),
        workload::SpecError);
}

// ---------------------------------------------------------------- //
// CI math                                                          //
// ---------------------------------------------------------------- //

TEST(SamplingStats, MeanCi95MatchesHandComputation)
{
    EXPECT_EQ(meanCi95({}).n, 0u);
    MeanCi one = meanCi95({4.0});
    EXPECT_DOUBLE_EQ(one.mean, 4.0);
    EXPECT_DOUBLE_EQ(one.ci95, 0.0);

    // {2, 4, 6}: mean 4, sample sd 2, ci95 = 1.96 * 2 / sqrt(3).
    MeanCi m = meanCi95({2.0, 4.0, 6.0});
    EXPECT_EQ(m.n, 3u);
    EXPECT_DOUBLE_EQ(m.mean, 4.0);
    EXPECT_NEAR(m.ci95, 1.96 * 2.0 / std::sqrt(3.0), 1e-12);
}

// ---------------------------------------------------------------- //
// Sampled runs                                                     //
// ---------------------------------------------------------------- //

TEST(SampledRun, ExactModeReportsNoSampling)
{
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    sim::SimConfig scfg;  // default sampling = exact
    sim::RunResult r = runOnce(bm, scfg, 12'000);
    EXPECT_FALSE(r.sampled);
    EXPECT_EQ(r.sampleIntervals, 0u);
    EXPECT_EQ(r.skippedInstrs, 0u);
    EXPECT_EQ(r.timeCiPs, 0);
    EXPECT_EQ(r.energyCiNj, 0.0);
}

TEST(SampledRun, DeterministicAcrossRepeats)
{
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    sim::SimConfig scfg;
    scfg.sampling = sampledCfg();
    sim::RunResult a = runOnce(bm, scfg, 12'000);
    sim::RunResult b = runOnce(bm, scfg, 12'000);
    EXPECT_TRUE(a.sampled);
    EXPECT_GT(a.sampleIntervals, 0u);
    EXPECT_GT(a.skippedInstrs, 0u);
    EXPECT_GT(a.timeCiPs, 0);
    expectSameResult(a, b);
}

TEST(SampledRun, EstimateTracksExactRun)
{
    // Determinism makes this loose bound stable: the extrapolated
    // time/energy of a sampled run must land near the exact run's.
    workload::Benchmark bm = workload::makeBenchmark("gsm_decode");
    sim::SimConfig exact;
    sim::RunResult e = runOnce(bm, exact, 20'000);
    sim::SimConfig scfg;
    scfg.sampling = sampledCfg();
    sim::RunResult s = runOnce(bm, scfg, 20'000);
    EXPECT_EQ(s.instrs, e.instrs);
    double t_err = std::abs(static_cast<double>(s.timePs) -
                            static_cast<double>(e.timePs)) /
                   static_cast<double>(e.timePs);
    double en_err = std::abs(s.chipEnergyNj - e.chipEnergyNj) /
                    e.chipEnergyNj;
    EXPECT_LT(t_err, 0.10) << s.timePs << " vs " << e.timePs;
    EXPECT_LT(en_err, 0.10)
        << s.chipEnergyNj << " vs " << e.chipEnergyNj;
}

TEST(SampledRun, CheckpointReplayMatchesInlineWalk)
{
    auto bm = std::make_shared<workload::Benchmark>(
        workload::makeBenchmark("gsm_decode"));
    sim::SimConfig scfg;
    scfg.sampling = sampledCfg();
    std::shared_ptr<const workload::Program> prog(bm, &bm->program);
    auto cps =
        sim::CheckpointSet::build(prog, bm->train, scfg, 12'000);
    ASSERT_TRUE(cps);
    ASSERT_TRUE(cps->matches(scfg.sampling, 12'000));
    sim::RunResult inline_walk = runOnce(*bm, scfg, 12'000);
    sim::RunResult replay = runOnce(*bm, scfg, 12'000, cps);
    expectSameResult(inline_walk, replay);
}

TEST(SampledRun, MismatchedCheckpointsFallBackToInlineWalk)
{
    auto bm = std::make_shared<workload::Benchmark>(
        workload::makeBenchmark("gsm_decode"));
    sim::SimConfig scfg;
    scfg.sampling = sampledCfg();
    std::shared_ptr<const workload::Program> prog(bm, &bm->program);
    // Built for a different window: matches() is false and the run
    // must ignore the set rather than replay the wrong trajectory.
    auto cps =
        sim::CheckpointSet::build(prog, bm->train, scfg, 8'000);
    ASSERT_TRUE(cps);
    EXPECT_FALSE(cps->matches(scfg.sampling, 12'000));
    expectSameResult(runOnce(*bm, scfg, 12'000),
                     runOnce(*bm, scfg, 12'000, cps));
}

// ---------------------------------------------------------------- //
// exp/ integration                                                 //
// ---------------------------------------------------------------- //

TEST(SamplingCacheKeys, SampledCellsArePinnedAndDistinct)
{
    exp::ExpConfig cfg;
    cfg.productionWindow = 8'000;
    cfg.analysisWindow = 8'000;
    exp::Runner exact(cfg);
    cfg.sim.sampling = sampledCfg();
    exp::Runner sampled(cfg);

    control::PolicySpec bl = control::PolicySpec::of("baseline");
    std::string ke = exact.cacheKey("gsm_decode", bl);
    std::string ks = sampled.cacheKey("gsm_decode", bl);
    // Both keys carry the schema tag and the 16-hex fingerprint
    // (pinned in cache_key_util.hh); the sampling knobs are inside
    // the fingerprint, so exact and sampled cells can never collide
    // in the cache.
    ASSERT_TRUE(testpins::hasCacheKeyTag(ke)) << ke;
    ASSERT_TRUE(testpins::hasCacheKeyTag(ks)) << ks;
    EXPECT_EQ(testpins::cacheKeyTail(ke),
              "|baseline|gsm_decode|w8000");
    EXPECT_EQ(testpins::cacheKeyTail(ks),
              "|baseline|gsm_decode|w8000");
    EXPECT_NE(ke, ks);

    // Every sampling knob is load-bearing in the fingerprint.
    exp::ExpConfig knob = cfg;
    knob.sim.sampling.ciBiasPct = 2.0;
    EXPECT_NE(exp::Runner(knob).cacheKey("gsm_decode", bl), ks);
    knob = cfg;
    knob.sim.sampling.warmupInstrs = 300;
    EXPECT_NE(exp::Runner(knob).cacheKey("gsm_decode", bl), ks);
}

TEST(SamplingChip, ChipCellsRejectSampledMode)
{
    exp::ExpConfig cfg;
    cfg.productionWindow = 6'000;
    cfg.analysisWindow = 6'000;
    cfg.sim.sampling = sampledCfg();
    exp::Runner runner(cfg);
    exp::ChipCell cell;
    cell.workload = "gsm_decode";
    cell.tiles = 2;
    EXPECT_THROW(runner.runChip(cell), workload::SpecError);
}
