/**
 * @file
 * Tests for the event-driven simulation kernel: idle-edge
 * fast-forward equivalence against the slow path (the determinism
 * argument of docs/ARCHITECTURE.md), interval-statistic bit-identity,
 * marker/stall interaction, the watchdog no-progress panic that
 * the kernel extraction must not drop, and a golden digest that pins
 * every RunResult bit of a set of reference runs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chip/chip.hh"
#include "control/offline.hh"
#include "sim/checkpoint.hh"
#include "sim/processor.hh"
#include "util/text.hh"
#include "workload/suite.hh"

using namespace mcd;
using namespace mcd::sim;
using namespace mcd::workload;

namespace
{

Program
mixedProgram(double load_frac = 0.2, double fp_frac = 0.1)
{
    ProgramBuilder b("mixed");
    InstructionMix m;
    m.set(InstrClass::Load, load_frac)
        .set(InstrClass::FpAdd, fp_frac)
        .branches(0.1, 0.02)
        .mem(16 * 1024, 0.9);
    MixId mx = b.mix(m);
    b.func("leaf");
    b.block(mx, 40);
    b.func("main");
    // The call in the loop body makes the stream marker-rich
    // (function enter/exit per iteration), which the marker-handler
    // test needs.
    b.loop(400, 0.0, [&] {
        b.block(mx, 10);
        b.call("leaf");
    });
    return b.build("main");
}

struct RecordedIntervals : IntervalHook
{
    std::vector<IntervalStats> stats;
    bool drive = false;

    void
    onInterval(const IntervalStats &s, DvfsControl &ctl) override
    {
        stats.push_back(s);
        if (drive) {
            // React to the observed occupancy so a stats divergence
            // would cascade into a timing divergence.
            ctl.setTarget(Domain::FloatingPoint,
                          s.queueOcc[domainIndex(
                              Domain::FloatingPoint)] < 0.2
                              ? 250.0
                              : 1000.0);
            ctl.setTarget(Domain::Integer,
                          s.ipc < 1.0 ? 600.0 : 1000.0);
        }
    }
};

/** Every integer-valued field of two results must be equal; energy
 *  may differ only in floating-point summation order. */
void
expectEquivalent(const RunResult &slow, const RunResult &fast)
{
    EXPECT_EQ(slow.timePs, fast.timePs);
    EXPECT_EQ(slow.instrs, fast.instrs);
    EXPECT_EQ(slow.feCycles, fast.feCycles);
    EXPECT_DOUBLE_EQ(slow.ipc, fast.ipc);
    EXPECT_EQ(slow.branches, fast.branches);
    EXPECT_EQ(slow.mispredicts, fast.mispredicts);
    EXPECT_EQ(slow.l1dAccesses, fast.l1dAccesses);
    EXPECT_EQ(slow.l1dMisses, fast.l1dMisses);
    EXPECT_EQ(slow.l2Misses, fast.l2Misses);
    EXPECT_EQ(slow.icacheMisses, fast.icacheMisses);
    EXPECT_EQ(slow.dramAccesses, fast.dramAccesses);
    EXPECT_EQ(slow.reconfigs, fast.reconfigs);
    EXPECT_EQ(slow.overheadCycles, fast.overheadCycles);
    EXPECT_NEAR(fast.chipEnergyNj, slow.chipEnergyNj,
                1e-9 * slow.chipEnergyNj);
    EXPECT_DOUBLE_EQ(slow.dramEnergyNj, fast.dramEnergyNj);
    for (Domain d : scaledDomains()) {
        EXPECT_NEAR(fast.avgFreq[domainIndex(d)],
                    slow.avgFreq[domainIndex(d)],
                    1e-9 * slow.avgFreq[domainIndex(d)]);
    }
}

} // namespace

TEST(Kernel, FastForwardMatchesSlowPathOnSuiteBench)
{
    for (const char *bench : {"gsm_decode", "swim"}) {
        Benchmark bm = makeBenchmark(bench);
        RunResult r[2];
        for (int ff = 0; ff < 2; ++ff) {
            SimConfig cfg;
            cfg.fastForward = ff != 0;
            power::PowerConfig pcfg;
            Processor proc(cfg, pcfg, bm.program, bm.train);
            r[ff] = proc.run(20000);
        }
        SCOPED_TRACE(bench);
        expectEquivalent(r[0], r[1]);
        EXPECT_EQ(r[0].ffEdges, 0u);
        EXPECT_GT(r[1].ffEdges, 0u);
    }
}

TEST(Kernel, FastForwardSkipsMostIdleFpDomainEdges)
{
    // Integer-only workload with the FP domain scaled down: its
    // clock should be almost entirely fast-forwarded, and results
    // must match the slow path exactly.
    Program p = mixedProgram(0.2, 0.0);
    InputSet in;
    RunResult r[2];
    for (int ff = 0; ff < 2; ++ff) {
        SimConfig cfg;
        cfg.fastForward = ff != 0;
        power::PowerConfig pcfg;
        Processor proc(cfg, pcfg, p, in);
        proc.setInitialFreqs({1000.0, 1000.0, 250.0, 1000.0});
        r[ff] = proc.run(20000);
    }
    expectEquivalent(r[0], r[1]);
    // The idle FP domain alone accounts for ~1/7th of all edges
    // here (250 MHz against three 1 GHz clocks).
    EXPECT_GT(r[1].ffEdges, r[1].feCycles / 8);
}

TEST(Kernel, ScheduleWithRampsMatchesSlowPath)
{
    // Reconfigurations force ramps, during which no domain may park;
    // edge times and every counter must still match exactly.
    Program p = mixedProgram();
    InputSet in;
    RunResult r[2];
    for (int ff = 0; ff < 2; ++ff) {
        SimConfig cfg;
        cfg.fastForward = ff != 0;
        power::PowerConfig pcfg;
        Processor proc(cfg, pcfg, p, in);
        std::vector<SchedulePoint> sched;
        for (int i = 1; i <= 8; ++i) {
            SchedulePoint pt;
            pt.atInstr = static_cast<std::uint64_t>(i) * 2000;
            Mhz f = (i % 2) ? 400.0 : 1000.0;
            pt.freqs = {f, 1000.0 - 50.0 * i, f, 900.0};
            sched.push_back(pt);
        }
        proc.setSchedule(sched);
        r[ff] = proc.run(18000);
    }
    expectEquivalent(r[0], r[1]);
    EXPECT_EQ(r[0].reconfigs, 8u);
}

TEST(Kernel, IntervalStatsBitIdenticalAcrossModes)
{
    // The statistics a controller observes — including the occupancy
    // *averages*, whose denominators count idle edges — must be
    // bit-identical, or closed-loop policies would diverge between
    // the kernel modes.
    Program p = mixedProgram();
    InputSet in;
    RecordedIntervals rec[2];
    RunResult r[2];
    for (int ff = 0; ff < 2; ++ff) {
        SimConfig cfg;
        cfg.fastForward = ff != 0;
        power::PowerConfig pcfg;
        Processor proc(cfg, pcfg, p, in);
        rec[ff].drive = true;
        proc.setIntervalHook(&rec[ff], 2000);
        r[ff] = proc.run(20000);
    }
    expectEquivalent(r[0], r[1]);
    ASSERT_EQ(rec[0].stats.size(), rec[1].stats.size());
    ASSERT_GE(rec[0].stats.size(), 9u);
    for (std::size_t i = 0; i < rec[0].stats.size(); ++i) {
        const IntervalStats &a = rec[0].stats[i];
        const IntervalStats &b = rec[1].stats[i];
        EXPECT_EQ(a.instrs, b.instrs);
        EXPECT_EQ(a.timePs, b.timePs);
        EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
        EXPECT_DOUBLE_EQ(a.robOcc, b.robOcc);
        for (Domain d : scaledDomains())
            EXPECT_DOUBLE_EQ(a.queueOcc[domainIndex(d)],
                             b.queueOcc[domainIndex(d)]);
    }
}

TEST(Kernel, TraceRecordsIdenticalAcrossModes)
{
    struct Collect : TraceSink
    {
        std::vector<InstrTiming> items;
        void
        onInstr(const InstrTiming &t) override
        {
            items.push_back(t);
        }
    };
    Program p = mixedProgram(0.25, 0.1);
    InputSet in;
    Collect sink[2];
    for (int ff = 0; ff < 2; ++ff) {
        SimConfig cfg;
        cfg.fastForward = ff != 0;
        power::PowerConfig pcfg;
        Processor proc(cfg, pcfg, p, in);
        proc.setTraceSink(&sink[ff]);
        proc.run(8000);
    }
    ASSERT_EQ(sink[0].items.size(), sink[1].items.size());
    for (std::size_t i = 0; i < sink[0].items.size(); ++i) {
        const InstrTiming &a = sink[0].items[i];
        const InstrTiming &b = sink[1].items[i];
        ASSERT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.fetch, b.fetch);
        EXPECT_EQ(a.dispatch, b.dispatch);
        EXPECT_EQ(a.issue, b.issue);
        EXPECT_EQ(a.execDone, b.execDone);
        EXPECT_EQ(a.memStart, b.memStart);
        EXPECT_EQ(a.memDone, b.memDone);
        EXPECT_EQ(a.commit, b.commit);
    }
}

TEST(Kernel, SingleClockModeMatchesAcrossModes)
{
    Program p = mixedProgram();
    InputSet in;
    RunResult r[2];
    for (int ff = 0; ff < 2; ++ff) {
        SimConfig cfg;
        cfg.singleClock = true;
        cfg.fastForward = ff != 0;
        power::PowerConfig pcfg;
        Processor proc(cfg, pcfg, p, in);
        r[ff] = proc.run(15000);
    }
    expectEquivalent(r[0], r[1]);
}

namespace
{

/** Marker handler that periodically stalls the front end and
 *  reconfigures, exercising the fetch-stall idle horizon. */
struct StallingHandler : MarkerHandler
{
    int seen = 0;

    MarkerAction
    onMarker(const Marker &) override
    {
        MarkerAction a;
        ++seen;
        if (seen % 7 == 0) {
            a.stallCycles = 5;
            a.energyPj = 120.0;
        }
        if (seen % 31 == 0) {
            a.reconfig = true;
            Mhz f = (seen % 62 == 0) ? 1000.0 : 500.0;
            a.freqs = {1000.0, f, 500.0, f};
        }
        return a;
    }
};

} // namespace

TEST(Kernel, MarkerStallsAndReconfigsMatchAcrossModes)
{
    Program p = mixedProgram();
    InputSet in;
    RunResult r[2];
    for (int ff = 0; ff < 2; ++ff) {
        SimConfig cfg;
        cfg.fastForward = ff != 0;
        power::PowerConfig pcfg;
        Processor proc(cfg, pcfg, p, in);
        StallingHandler h;
        proc.setMarkerHandler(&h);
        r[ff] = proc.run(15000);
    }
    expectEquivalent(r[0], r[1]);
    EXPECT_GT(r[0].overheadCycles, 0u);
    EXPECT_GT(r[0].reconfigs, 0u);
}

/**
 * The watchdog must survive the kernel extraction: a run that stops
 * committing for longer than watchdogPs has to panic (abort), in
 * both kernel modes.  An impossibly small watchdogPs trips it on the
 * very first edge, before the first commit can happen.
 */
using KernelDeathTest = ::testing::TestWithParam<bool>;

TEST_P(KernelDeathTest, WatchdogPanicsWithoutCommitProgress)
{
    Program p = mixedProgram();
    InputSet in;
    SimConfig cfg;
    cfg.fastForward = GetParam();
    cfg.watchdogPs = 10;  // first edge arrives after ~1000 ps
    power::PowerConfig pcfg;
    Processor proc(cfg, pcfg, p, in);
    EXPECT_DEATH(proc.run(1000), "no commit progress");
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelDeathTest,
                         ::testing::Values(false, true));

namespace
{

/** Appends the raw bytes of every field a RunResult reports. */
struct ResultBytes
{
    std::string bytes;

    template <class T>
    void add(const T &v)
    {
        char raw[sizeof(T)];
        std::memcpy(raw, &v, sizeof(T));
        bytes.append(raw, sizeof(T));
    }

    void add(const RunResult &r)
    {
        add(r.timePs);
        add(r.chipEnergyNj);
        add(r.dramEnergyNj);
        add(r.instrs);
        add(r.feCycles);
        add(r.ipc);
        add(r.branches);
        add(r.mispredicts);
        add(r.l1dAccesses);
        add(r.l1dMisses);
        add(r.l2Misses);
        add(r.icacheMisses);
        add(r.dramAccesses);
        add(r.reconfigs);
        add(r.overheadCycles);
        add(r.ffEdges);
        add(r.sampled);
        add(r.sampleIntervals);
        add(r.skippedInstrs);
        add(r.timeCiPs);
        add(r.energyCiNj);
        for (Mhz f : r.avgFreq)
            add(f);
        for (double e : r.domainEnergyNj)
            add(e);
    }

    std::uint64_t digest() const { return util::fnv1a64(bytes); }
};

std::uint64_t
digestOf(const RunResult &r)
{
    ResultBytes b;
    b.add(r);
    return b.digest();
}

} // namespace

// Any change to the kernel's edge schedule, jitter stream, issue
// logic or energy arithmetic shows up here: the digests cover every
// RunResult field's bits.  The runs cover the jitter stream past its
// first 65,536 draws (mcf), frequency ramps (an oracle schedule),
// instant initial frequencies (the global-DVS jumpTo path), the slow
// path, sampled runs replaying checkpoints and a two-tile chip (per
// tile jitter seeds).  Re-pin only for a deliberate change of the
// simulator's output.
TEST(KernelGolden, RunResultsAreBitIdentical)
{
    const std::uint64_t window = 40'000;
    power::PowerConfig pcfg;
    std::vector<std::pair<std::string, std::uint64_t>> got;

    for (const char *bench : {"mcf", "adpcm_decode", "swim"}) {
        Benchmark bm = makeBenchmark(bench);
        Processor proc(SimConfig(), pcfg, bm.program, bm.ref);
        got.emplace_back(bench, digestOf(proc.run(window)));
        if (std::string(bench) == "mcf") {
            for (Domain d : scaledDomains())
                EXPECT_GT(proc.domainEdges(d), 65'536u);
        }
    }

    {
        Benchmark bm = makeBenchmark("gsm_decode");
        control::OfflineConfig ocfg;
        ocfg.slowdownPct = 10.0;
        auto hists = control::offlineHistograms(
            ocfg, bm.program, bm.ref, SimConfig(), pcfg, 20'000);
        Processor proc(SimConfig(), pcfg, bm.program, bm.ref);
        proc.setSchedule(control::offlineSchedule(ocfg, *hists));
        RunResult r = proc.run(20'000);
        EXPECT_GT(r.reconfigs, 0u);
        got.emplace_back("gsm_decode offline d=10", digestOf(r));
    }

    {
        Benchmark bm = makeBenchmark("gsm_decode");
        Processor proc(SimConfig(), pcfg, bm.program, bm.ref);
        proc.setInitialFreqs({700.0, 700.0, 700.0, 700.0});
        got.emplace_back("gsm_decode 700 MHz",
                         digestOf(proc.run(20'000)));
    }

    {
        Benchmark bm = makeBenchmark("swim");
        SimConfig cfg;
        cfg.fastForward = false;
        Processor proc(cfg, pcfg, bm.program, bm.ref);
        got.emplace_back("swim slow path", digestOf(proc.run(20'000)));
    }

    {
        auto bm = std::make_shared<Benchmark>(makeBenchmark("gsm_decode"));
        std::shared_ptr<const Program> prog(bm, &bm->program);
        SimConfig cfg;
        cfg.sampling.mode = SamplingMode::Sampled;
        cfg.sampling.intervalInstrs = 4'000;
        cfg.sampling.sampleInstrs = 600;
        cfg.sampling.warmupInstrs = 200;
        auto cps = CheckpointSet::build(prog, bm->ref, cfg, 24'000);
        ASSERT_TRUE(cps);
        Processor proc(cfg, pcfg, bm->program, bm->ref);
        proc.setCheckpoints(cps);
        RunResult r = proc.run(24'000);
        EXPECT_TRUE(r.sampled);
        got.emplace_back("gsm_decode sampled", digestOf(r));
    }

    {
        chip::Chip c(chip::ChipConfig{}, SimConfig(), pcfg,
                     {"gsm_decode", "mcf"});
        chip::ChipResult cr = c.run(15'000);
        ResultBytes b;
        for (const RunResult &r : cr.tiles)
            b.add(r);
        b.add(cr.timePs);
        b.add(cr.uncoreEnergyNj);
        got.emplace_back("chip gsm_decode+mcf", b.digest());
    }

    const std::pair<const char *, std::uint64_t> golden[] = {
        {"mcf", 0x06a0704f2327978dull},
        {"adpcm_decode", 0xb56b569bf1e1e201ull},
        {"swim", 0x9a801a8e537f349dull},
        {"gsm_decode offline d=10", 0x791ff88fb2e75e0aull},
        {"gsm_decode 700 MHz", 0x76435afae7c73b82ull},
        {"swim slow path", 0xd1830ffdbcf29a45ull},
        {"gsm_decode sampled", 0xecf8b841ea1063b7ull},
        {"chip gsm_decode+mcf", 0xbfb29aa9e92198a0ull},
    };
    ASSERT_EQ(got.size(), std::size(golden));
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, golden[i].first);
        EXPECT_EQ(got[i].second, golden[i].second)
            << got[i].first << " digest 0x" << std::hex
            << got[i].second;
    }
}
