/**
 * @file
 * Tests for domain clocks: edges, jitter bounds, DVFS ramping,
 * voltage tracking, synchronization margins.
 */

#include <gtest/gtest.h>

#include <cstddef>

#include "sim/clock.hh"

using namespace mcd;
using namespace mcd::sim;

namespace
{

SimConfig
cfg()
{
    return SimConfig{};
}

} // namespace

TEST(DomainClock, NominalPeriodAtFullSpeed)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(1));
    Tick e0 = clk.nextEdge();
    EXPECT_EQ(e0, 1000u);  // 1 GHz -> 1000 ps
    clk.advance();
    EXPECT_EQ(clk.nextEdge(), 2000u);
}

TEST(DomainClock, JitterBoundedAndMonotonic)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, true, Rng(2));
    Tick prev = 0;
    for (int i = 1; i <= 5000; ++i) {
        Tick e = clk.nextEdge();
        ASSERT_GT(e, prev);
        // nominal edge is i*1000; jitter bounded by 110 ps
        ASSERT_GE(e + 110, static_cast<Tick>(i) * 1000);
        ASSERT_LE(e, static_cast<Tick>(i) * 1000 + 110);
        prev = e;
        clk.advance();
    }
}

TEST(DomainClock, VoltageTracksFrequency)
{
    SimConfig c = cfg();
    EXPECT_DOUBLE_EQ(c.voltageFor(1000.0), 1.20);
    EXPECT_DOUBLE_EQ(c.voltageFor(250.0), 0.65);
    EXPECT_NEAR(c.voltageFor(625.0), 0.925, 1e-12);
    EXPECT_DOUBLE_EQ(c.voltageFor(100.0), 0.65);   // clamped
    EXPECT_DOUBLE_EQ(c.voltageFor(2000.0), 1.20);  // clamped
}

TEST(DomainClock, RampTakesTimeProportionalToDelta)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(3));
    clk.setTarget(500.0);
    // Full 1000->500 MHz swing at 73.3 ns/MHz = 36.65 us.
    Tick t = 0;
    while (clk.freq() > 500.0) {
        t = clk.nextEdge();
        clk.advance();
        ASSERT_LT(t, 60ULL * 1000 * 1000) << "ramp never completed";
    }
    double expected_ns = 500.0 * c.rampNsPerMhz;
    EXPECT_NEAR(static_cast<double>(t) / 1000.0, expected_ns,
                expected_ns * 0.1);
}

TEST(DomainClock, RampIsGradualNotInstant)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(4));
    clk.setTarget(250.0);
    clk.advance();
    // After one edge the frequency has barely moved.
    EXPECT_GT(clk.freq(), 990.0);
    EXPECT_LT(clk.freq(), 1000.0);
}

TEST(DomainClock, TargetClampedToLegalRange)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(5));
    clk.setTarget(50.0);
    EXPECT_DOUBLE_EQ(clk.target(), 250.0);
    clk.setTarget(5000.0);
    EXPECT_DOUBLE_EQ(clk.target(), 1000.0);
}

TEST(DomainClock, JumpToSetsImmediately)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(6));
    clk.jumpTo(500.0);
    EXPECT_DOUBLE_EQ(clk.freq(), 500.0);
    EXPECT_NEAR(clk.voltage(), c.voltageFor(500.0), 1e-12);
    EXPECT_EQ(clk.nextEdge(), 2000u);  // 500 MHz -> 2000 ps period
}

TEST(DomainClock, AverageFreqReflectsHistory)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(7));
    for (int i = 0; i < 100; ++i)
        clk.advance();
    EXPECT_NEAR(clk.averageFreq(), 1000.0, 1.0);
}

TEST(SyncMargin, ZeroSameDomainOrSingleClock)
{
    SimConfig c = cfg();
    EXPECT_EQ(syncMarginPs(c, Domain::Integer, Domain::Integer, 1000,
                           1000),
              0u);
    SimConfig sc = cfg();
    sc.singleClock = true;
    EXPECT_EQ(syncMarginPs(sc, Domain::Integer, Domain::FrontEnd, 1000,
                           1000),
              0u);
}

TEST(SyncMargin, ThirtyPercentOfFasterClock)
{
    SimConfig c = cfg();
    // Both at 1 GHz: 300 ps (Table 1's synchronization window).
    EXPECT_EQ(syncMarginPs(c, Domain::Integer, Domain::FrontEnd, 1000,
                           1000),
              300u);
    // One domain at 250 MHz: window still set by the faster clock.
    EXPECT_EQ(syncMarginPs(c, Domain::Integer, Domain::FrontEnd, 4000,
                           1000),
              300u);
    EXPECT_EQ(syncMarginPs(c, Domain::Integer, Domain::FrontEnd, 1000,
                           4000),
              300u);
}

TEST(DomainClock, JumpToClampedToLegalRange)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Integer, false, Rng(8));
    clk.jumpTo(10.0);
    EXPECT_DOUBLE_EQ(clk.freq(), c.minMhz);
    EXPECT_DOUBLE_EQ(clk.voltage(), c.minVolt);
    clk.jumpTo(99999.0);
    EXPECT_DOUBLE_EQ(clk.freq(), c.maxMhz);
    EXPECT_DOUBLE_EQ(clk.voltage(), c.maxVolt);
}

TEST(DomainClock, AverageFreqTimeWeightedAcrossRamp)
{
    // Dwell at 1 GHz, ramp to 500 MHz, dwell there: the average must
    // sit strictly between the endpoints and move toward 500 as the
    // low-frequency dwell grows (time weighting, not edge counting).
    // A fast ramp keeps the transition negligible next to the dwells
    // so the two plateaus dominate the closed form below.
    SimConfig c = cfg();
    c.rampNsPerMhz = 0.1;
    DomainClock clk(c, Domain::Integer, false, Rng(9));
    for (int i = 0; i < 1000; ++i)
        clk.advance();
    clk.setTarget(500.0);
    while (clk.ramping())
        clk.advance();
    for (int i = 0; i < 1000; ++i)
        clk.advance();
    Mhz mid = clk.averageFreq();
    EXPECT_GT(mid, 500.0);
    EXPECT_LT(mid, 1000.0);
    // 1000 more edges at 500 MHz cover twice the time of the initial
    // 1000 edges at 1 GHz; the average must keep falling.
    for (int i = 0; i < 1000; ++i)
        clk.advance();
    Mhz later = clk.averageFreq();
    EXPECT_LT(later, mid);
    // Closed form ignoring the (short) ramp: the dwell times weight
    // the two plateaus.  The ramp pulls the true value slightly up.
    double t_fast = 1000.0 * 1000.0;      // 1000 edges @ 1000 ps
    double t_slow = 2000.0 * 2000.0;      // 2000 edges @ 2000 ps
    double plateau_avg =
        (1000.0 * t_fast + 500.0 * t_slow) / (t_fast + t_slow);
    EXPECT_NEAR(later, plateau_avg, 25.0);
    EXPECT_GT(later, plateau_avg);
}

TEST(DomainClock, FastForwardMatchesStepwiseAdvance)
{
    // fastForwardTo must be indistinguishable from stepping
    // advance() edge by edge: same edge count, same (jittered) next
    // edge, same average frequency — the determinism argument for
    // the kernel's idle-edge fast-forward.
    SimConfig c = cfg();
    DomainClock stepped(c, Domain::Memory, true, Rng(10));
    DomainClock jumped(c, Domain::Memory, true, Rng(10));
    const Tick t = 5'000'500;
    std::uint64_t n = 0;
    while (stepped.nextEdge() < t) {
        stepped.advance();
        ++n;
    }
    EXPECT_EQ(jumped.fastForwardTo(t), n);
    EXPECT_GT(n, 4900u);
    EXPECT_EQ(jumped.edges(), stepped.edges());
    EXPECT_EQ(jumped.nextEdge(), stepped.nextEdge());
    EXPECT_GE(jumped.nextEdge(), t);  // consumed edges before t only
    EXPECT_DOUBLE_EQ(jumped.averageFreq(), stepped.averageFreq());
    // ... and the streams stay aligned afterwards.
    for (int i = 0; i < 100; ++i) {
        stepped.advance();
        jumped.advance();
        EXPECT_EQ(jumped.nextEdge(), stepped.nextEdge());
    }
}

TEST(JitterPrefix, SharedPrefixMatchesLiveStream)
{
    // A clock reading the shared prefix must see exactly the edges a
    // clock drawing from its own forked generator sees, across the
    // prefix-to-live handover and through a ramp.  The forks follow
    // the kernel's order: one per scaled domain from the seed.
    SimConfig c = cfg();
    c.jitterSeed = 4242;
    Rng seed_rng(c.jitterSeed);
    for (Domain d : scaledDomains()) {
        Rng fork = seed_rng.fork();
        const JitterPrefix *prefix = JitterPrefix::shared(c, d);
        ASSERT_NE(prefix, nullptr);
        EXPECT_EQ(prefix->draws.size(), JitterPrefix::DRAWS);
        EXPECT_EQ(JitterPrefix::shared(c, d), prefix);  // built once
        DomainClock live(c, d, true, fork);
        DomainClock shared(c, d, true, Rng(1), prefix);
        for (std::size_t i = 0; i < JitterPrefix::DRAWS + 1000; ++i) {
            if (i == JitterPrefix::DRAWS - 10) {
                live.setTarget(600.0);
                shared.setTarget(600.0);
            }
            ASSERT_EQ(live.nextEdge(), shared.nextEdge()) << "edge " << i;
            live.advance();
            shared.advance();
        }
        EXPECT_EQ(live.period(), shared.period());
        EXPECT_DOUBLE_EQ(live.averageFreq(), shared.averageFreq());
    }
}

TEST(JitterPrefix, KeysPastTheCapDrawLive)
{
    // Every key costs four prefixes, so only MAX_KEYS keys are kept
    // per process; any further key gets no prefix.
    SimConfig c = cfg();
    bool capped = false;
    for (std::uint64_t k = 0; k <= JitterPrefix::MAX_KEYS; ++k) {
        c.jitterSeed = 90'000 + k;
        if (!JitterPrefix::shared(c, Domain::FrontEnd))
            capped = true;
    }
    EXPECT_TRUE(capped);
}

/** Ramp property over a sweep of targets: always converges. */
class RampSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RampSweep, ConvergesToTarget)
{
    SimConfig c = cfg();
    DomainClock clk(c, Domain::Memory, true, Rng(11));
    Mhz target = static_cast<Mhz>(GetParam());
    clk.setTarget(target);
    for (int i = 0; i < 200000 && clk.freq() != clk.target(); ++i)
        clk.advance();
    EXPECT_DOUBLE_EQ(clk.freq(), clk.target());
    EXPECT_NEAR(clk.voltage(), c.voltageFor(target), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Targets, RampSweep,
                         ::testing::Values(250, 300, 475, 500, 725, 900,
                                           1000));
