/**
 * @file
 * Tests for the event-driven simulation kernel: schedule ramps,
 * interval statistics and marker stalls/reconfigurations take
 * effect, the watchdog no-progress panic, and a golden digest that
 * pins every RunResult bit of a set of reference runs.
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
mixedProgram()
{
    ProgramBuilder b("mixed");
    InstructionMix m;
    m.set(InstrClass::Load, 0.2)
        .set(InstrClass::FpAdd, 0.1)
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

    void
    onInterval(const IntervalStats &s, DvfsControl &) override
    {
        stats.push_back(s);
    }
};

} // namespace

TEST(Kernel, ScheduleWithRampsAppliesEveryPoint)
{
    // Every schedule point starts a ramp; each one must be applied.
    Program p = mixedProgram();
    InputSet in;
    SimConfig cfg;
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
    EXPECT_EQ(proc.run(18000).reconfigs, 8u);
}

TEST(Kernel, IntervalHookSeesEveryInterval)
{
    Program p = mixedProgram();
    InputSet in;
    SimConfig cfg;
    power::PowerConfig pcfg;
    Processor proc(cfg, pcfg, p, in);
    RecordedIntervals rec;
    proc.setIntervalHook(&rec, 2000);
    proc.run(20000);
    EXPECT_GE(rec.stats.size(), 9u);
}

namespace
{

/** Marker handler that periodically stalls the front end and
 *  reconfigures. */
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

TEST(Kernel, MarkerStallsAndReconfigsTakeEffect)
{
    Program p = mixedProgram();
    InputSet in;
    SimConfig cfg;
    power::PowerConfig pcfg;
    Processor proc(cfg, pcfg, p, in);
    StallingHandler h;
    proc.setMarkerHandler(&h);
    RunResult r = proc.run(15000);
    EXPECT_GT(r.overheadCycles, 0u);
    EXPECT_GT(r.reconfigs, 0u);
}

/**
 * A run that stops committing for longer than watchdogPs has to
 * panic (abort).  An impossibly small watchdogPs trips it on the
 * very first edge, before the first commit can happen.
 */
TEST(KernelDeathTest, WatchdogPanicsWithoutCommitProgress)
{
    Program p = mixedProgram();
    InputSet in;
    SimConfig cfg;
    cfg.watchdogPs = 10;  // first edge arrives after ~1000 ps
    power::PowerConfig pcfg;
    Processor proc(cfg, pcfg, p, in);
    EXPECT_DEATH(proc.run(1000), "no commit progress");
}

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
// instant initial frequencies (the global-DVS jumpTo path), a
// producer that retires while a consumer in a slower domain still
// sits inside its synchronizer window (art at unequal frequencies:
// the retirement guard of the issue-scan skip in
// ExecDomain::stillWaiting), sampled runs replaying checkpoints and
// a two-tile chip (per-tile jitter seeds).  Re-pin only for a
// deliberate change of the simulator's output.
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
        // The memory domain is the slowest and the front end the
        // fastest, so a retiring load's value reaches the front end
        // before it clears the integer and FP synchronizers.
        Benchmark bm = makeBenchmark("art");
        Processor proc(SimConfig(), pcfg, bm.program, bm.ref);
        proc.setInitialFreqs({1000.0, 700.0, 400.0, 300.0});
        got.emplace_back("art 700/400/300 MHz",
                         digestOf(proc.run(20'000)));
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
        {"mcf", 0x8d0e7a74ae1f2568ull},
        {"adpcm_decode", 0x22acebdb6e9adda0ull},
        {"swim", 0x494f9fec72c93dc2ull},
        {"gsm_decode offline d=10", 0x35250e1a31b68458ull},
        {"gsm_decode 700 MHz", 0xdc13f59a8ae3bd9aull},
        {"art 700/400/300 MHz", 0x8a92653d61c0badcull},
        {"gsm_decode sampled", 0xba4141a43ffc9160ull},
        {"chip gsm_decode+mcf", 0xff2eb4210ab84b05ull},
    };
    ASSERT_EQ(got.size(), std::size(golden));
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, golden[i].first);
        EXPECT_EQ(got[i].second, golden[i].second)
            << got[i].first << " digest 0x" << std::hex
            << got[i].second;
    }
}
