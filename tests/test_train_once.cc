/**
 * @file
 * Train once, threshold many: the d-independent halves of profile
 * training (core::trainArtifact, phases 1-2) and of the off-line
 * oracle (control::offlineHistograms) are computed once and
 * thresholded at every d, with results bit-identical to computing
 * everything per d.
 *
 * Also pins the compute-once contract of util::OnceMemo, which the
 * Runner's outcome, checkpoint, training and oracle memos share: a
 * failed computation reaches every waiter with its own exception and
 * the next request recomputes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control/offline.hh"
#include "control/policy.hh"
#include "core/pipeline.hh"
#include "exp/experiment.hh"
#include "util/memo.hh"
#include "workload/suite.hh"

using namespace mcd;

namespace
{

const char *const BENCHES[] = {"adpcm_decode", "gen:phases=3,seed=7"};

/** Bitwise equality of two doubles (distinguishes -0.0, NaNs). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

void
expectBitEqual(const control::Outcome &a, const control::Outcome &b)
{
    const double fa[] = {
        a.timePs, a.energyNj, a.reconfigs, a.overheadCycles,
        a.feCycles, a.dynReconfigPoints, a.dynInstrPoints,
        a.staticReconfigPoints, a.staticInstrPoints, a.tableBytes,
        a.globalFreq, a.timeCiPs, a.energyCiNj,
        a.metrics.slowdownPct, a.metrics.energySavingsPct,
        a.metrics.energyDelayImprovementPct,
    };
    const double fb[] = {
        b.timePs, b.energyNj, b.reconfigs, b.overheadCycles,
        b.feCycles, b.dynReconfigPoints, b.dynInstrPoints,
        b.staticReconfigPoints, b.staticInstrPoints, b.tableBytes,
        b.globalFreq, b.timeCiPs, b.energyCiNj,
        b.metrics.slowdownPct, b.metrics.energySavingsPct,
        b.metrics.energyDelayImprovementPct,
    };
    for (std::size_t i = 0; i < std::size(fa); ++i)
        EXPECT_TRUE(sameBits(fa[i], fb[i]))
            << "field " << i << ": " << fa[i] << " vs " << fb[i];
}

void
expectSamePlan(const core::InstrumentationPlan &a,
               const core::InstrumentationPlan &b)
{
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.nodeFreqs, b.nodeFreqs);
    EXPECT_EQ(a.instrumentedFuncs, b.instrumentedFuncs);
    EXPECT_EQ(a.instrumentedLoops, b.instrumentedLoops);
    EXPECT_EQ(a.instrumentedSites, b.instrumentedSites);
    EXPECT_EQ(a.staticFuncFreqs, b.staticFuncFreqs);
    EXPECT_EQ(a.staticLoopFreqs, b.staticLoopFreqs);
    EXPECT_EQ(a.staticReconfigPoints, b.staticReconfigPoints);
    EXPECT_EQ(a.staticInstrPoints, b.staticInstrPoints);
    EXPECT_EQ(a.nextNodeTableBytes, b.nextNodeTableBytes);
    EXPECT_EQ(a.freqTableBytes, b.freqTableBytes);
}

} // namespace

TEST(TrainOnce, OfflineAnalyzeIsScheduleOfSharedHistograms)
{
    sim::SimConfig scfg;
    power::PowerConfig pcfg;
    const std::uint64_t window = 20'000;
    for (const char *bench : BENCHES) {
        SCOPED_TRACE(bench);
        workload::Benchmark bm = workload::makeBenchmark(bench);
        control::OfflineConfig cfg;
        cfg.intervalInstrs = 4'000;
        auto hists = control::offlineHistograms(
            cfg, bm.program, bm.ref, scfg, pcfg, window);
        ASSERT_EQ(hists->intervals.size(), 5u);
        std::vector<sim::SchedulePoint> loosest;
        for (double d : {2.0, 5.0, 10.0, 20.0}) {
            SCOPED_TRACE(d);
            cfg.slowdownPct = d;
            auto direct = control::offlineAnalyze(
                cfg, bm.program, bm.ref, scfg, pcfg, window);
            auto shared = control::offlineSchedule(cfg, *hists);
            ASSERT_EQ(direct.size(), shared.size());
            for (std::size_t i = 0; i < direct.size(); ++i) {
                EXPECT_EQ(direct[i].atInstr, shared[i].atInstr);
                EXPECT_EQ(direct[i].freqs, shared[i].freqs);
            }
            loosest = shared;
        }
        // d is really the only input the schedule half varies with:
        // the loosest budget picks lower frequencies somewhere.
        cfg.slowdownPct = 2.0;
        auto tightest = control::offlineSchedule(cfg, *hists);
        bool lower = false;
        for (std::size_t i = 0; i < tightest.size(); ++i)
            for (std::size_t k = 0; k < tightest[i].freqs.size(); ++k)
                lower |= loosest[i].freqs[k] < tightest[i].freqs[k];
        EXPECT_TRUE(lower);
    }
}

TEST(TrainOnce, ArtifactTrainingEqualsDirectTraining)
{
    sim::SimConfig scfg;
    power::PowerConfig pcfg;
    workload::Benchmark bm = workload::makeBenchmark("adpcm_decode");
    for (core::ContextMode mode :
         {core::ContextMode::LF, core::ContextMode::LFCP}) {
        SCOPED_TRACE(core::contextModeName(mode));
        core::PipelineConfig pc;
        pc.mode = mode;
        pc.analysisWindow = 20'000;
        auto artifact =
            core::trainArtifact(bm.program, bm.train, pc, scfg, pcfg);
        ASSERT_FALSE(artifact->nodeHists.empty());
        for (double d : {2.0, 10.0}) {
            SCOPED_TRACE(d);
            pc.slowdownPct = d;
            core::ProfilePipeline direct(bm.program, pc);
            direct.train(bm.train, scfg, pcfg);
            core::ProfilePipeline shared(bm.program, pc);
            shared.train(artifact);
            EXPECT_FALSE(shared.nodeFrequencies().empty());
            EXPECT_EQ(direct.nodeFrequencies(),
                      shared.nodeFrequencies());
            expectSamePlan(direct.plan(), shared.plan());
        }
    }
}

TEST(TrainOnce, SharedSweepEqualsFreshRunnersBitForBit)
{
    exp::ExpConfig cfg;
    cfg.productionWindow = 8'000;
    cfg.analysisWindow = 8'000;
    cfg.offlineInterval = 4'000;
    std::vector<exp::SweepCell> cells;
    for (const char *bench : BENCHES) {
        for (double d : {2.0, 4.0, 6.0, 10.0, 14.0, 20.0}) {
            cells.push_back(exp::SweepCell::of(
                bench, control::PolicySpec::of("profile")
                           .set("mode", core::ContextMode::LF)
                           .set("d", d)));
            cells.push_back(exp::SweepCell::of(
                bench, control::PolicySpec::of("offline").set("d", d)));
        }
        cells.push_back(exp::SweepCell::of(bench, "hybrid:d=10"));
    }

    exp::Runner shared(cfg);
    std::vector<control::Outcome> out = shared.runSweep(cells, 4);
    // One artifact per (bench, mode) — profile and hybrid share
    // mode LF — and one oracle analysis per bench.
    EXPECT_EQ(shared.trainingBuilds(), 2u);
    EXPECT_EQ(shared.oracleBuilds(), 2u);

    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].bench + " " + cells[i].spec.str());
        exp::Runner fresh(cfg);
        expectBitEqual(out[i], fresh.run(cells[i]));
    }

    // Another context mode is another artifact; profile cells never
    // build an oracle.
    shared.run(BENCHES[0], control::PolicySpec::of("profile").set(
                               "mode", core::ContextMode::LFCP));
    EXPECT_EQ(shared.trainingBuilds(), 3u);
    EXPECT_EQ(shared.oracleBuilds(), 2u);
}

TEST(OnceMemo, FailureReachesWaitersAndIsRecomputed)
{
    using Value = std::shared_ptr<const int>;
    util::OnceMemo<Value> memo;
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::exception_ptr ownerErr;
    std::exception_ptr waiterErr;

    std::thread owner([&] {
        try {
            memo.get("k", [&]() -> Value {
                started = true;
                while (!release)
                    std::this_thread::yield();
                throw std::invalid_argument("build failed");
            });
        } catch (...) {
            ownerErr = std::current_exception();
        }
    });
    while (!started)
        std::this_thread::yield();
    std::thread waiter([&] {
        try {
            memo.get("k", [] { return std::make_shared<const int>(1); });
        } catch (...) {
            waiterErr = std::current_exception();
        }
    });
    // The waiter counts as a hit once it holds the in-flight entry;
    // only then may the owner fail.
    while (memo.hits() == 0)
        std::this_thread::yield();
    release = true;
    owner.join();
    waiter.join();

    ASSERT_TRUE(ownerErr);
    ASSERT_TRUE(waiterErr);
    EXPECT_THROW(std::rethrow_exception(ownerErr), std::invalid_argument);
    EXPECT_THROW(std::rethrow_exception(waiterErr),
                 std::invalid_argument);

    // The failed entry is gone: the next request computes afresh.
    bool computed = false;
    Value v =
        memo.get("k", [] { return std::make_shared<const int>(7); },
                 &computed);
    EXPECT_TRUE(computed);
    EXPECT_EQ(*v, 7);
    EXPECT_EQ(memo.misses(), 2u);
    EXPECT_EQ(memo.hits(), 1u);
}
