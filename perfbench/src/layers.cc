/**
 * @file
 * The traced pass: per-layer metrics for any workload.
 *
 * It runs the workload's cells five ways, each through public calls
 * and each timed from here:
 *   - an untraced cold-memo `Runner::runSweep` (the reference);
 *   - a replay of every cell from the modules' own public functions
 *     (the profile pipeline's four phases, the oracle, the global-DVS
 *     match, the on-line controller), untimed and with a Scope
 *     around each call, alternating; every replayed outcome must
 *     equal the reference bit for bit;
 *   - serial `Runner::run` calls with the baselines pre-warmed
 *     (per-policy cell cost, the serial wall, the longest cell);
 *   - direct `sim::Processor` runs and checkpoint builds;
 *   - `makeBenchmark` and `Stream::next` on their own;
 * then a short served session for the `srv` layer.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <map>
#include <set>

#include "common.hh"
#include "control/globaldvs.hh"
#include "control/offline.hh"
#include "control/online.hh"
#include "core/pipeline.hh"
#include "core/walker.hh"
#include "sim/checkpoint.hh"
#include "util/pool.hh"
#include "workload/suite.hh"

namespace perfbench
{

using namespace mcd;
using control::Outcome;
using control::PolicySpec;

namespace
{

// The fast-forward knob and its counter are measured when the
// simulator has them, so the benchmark keeps building without them.
template <class C>
auto
setFastForward(C &c, bool on, int) -> decltype(c.fastForward = on, bool())
{
    c.fastForward = on;
    return true;
}
template <class C>
bool
setFastForward(C &, bool, long)
{
    return false;
}
template <class R>
auto
ffEdgesOf(const R &r, int) -> decltype(static_cast<double>(r.ffEdges))
{
    return static_cast<double>(r.ffEdges);
}
template <class R>
double
ffEdgesOf(const R &, long)
{
    return 0.0;
}

/** Forwards the analysis trace to the shaker, timing its self time. */
class TimedSink : public sim::TraceSink
{
  public:
    explicit TimedSink(sim::TraceSink &inner) : inner(inner) {}

    void
    onInstr(const sim::InstrTiming &t) override
    {
        Clock::time_point t0 = Clock::now();
        inner.onInstr(t);
        ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count();
    }

    std::int64_t ns = 0;

  private:
    sim::TraceSink &inner;
};

Outcome
fromRun(const sim::RunResult &r)
{
    Outcome o;
    o.timePs = static_cast<double>(r.timePs);
    o.energyNj = r.chipEnergyNj;
    o.reconfigs = static_cast<double>(r.reconfigs);
    o.timeCiPs = static_cast<double>(r.timeCiPs);
    o.energyCiNj = r.energyCiNj;
    return o;
}

/**
 * Replays cells from the modules' public functions, memoizing each
 * (bench, spec) once like the runner does, so dependencies (the
 * metrics baseline, the oracle behind global DVS) are shared.
 */
class Replay
{
  public:
    explicit Replay(const SweepPlan &plan) : cfg(plan.cfg) {}

    /** The cell's outcome with metrics, as Runner::run returns it. */
    Outcome
    run(const std::string &bench, const PolicySpec &spec)
    {
        Outcome o = memo(bench, spec);
        if (spec.policy != "baseline") {
            Outcome base = memo(bench, PolicySpec::of("baseline"));
            o.metrics = computeMetrics(o.timePs, o.energyNj, base.timePs,
                                       base.energyNj);
        }
        return o;
    }

    std::atomic<std::uint64_t> treeNodes{0};
    std::atomic<std::uint64_t> longRunning{0};

  private:
    Outcome
    memo(const std::string &bench, const PolicySpec &spec)
    {
        std::string key = bench + "|" + spec.str();
        std::promise<Outcome> prom;
        std::shared_future<Outcome> fut;
        bool owner = false;
        {
            std::lock_guard<std::mutex> l(m);
            auto it = outcomes.find(key);
            if (it == outcomes.end()) {
                fut = prom.get_future().share();
                outcomes.emplace(key, fut);
                owner = true;
            } else {
                fut = it->second;
            }
        }
        if (owner) {
            try {
                prom.set_value(compute(bench, spec));
            } catch (...) {
                prom.set_exception(std::current_exception());
            }
        }
        return fut.get();
    }

    std::shared_ptr<const sim::CheckpointSet>
    checkpoints(const std::string &bench)
    {
        if (!cfg.sim.sampling.sampled())
            return nullptr;
        std::promise<std::shared_ptr<const sim::CheckpointSet>> prom;
        std::shared_future<std::shared_ptr<const sim::CheckpointSet>> fut;
        bool owner = false;
        {
            std::lock_guard<std::mutex> l(m);
            auto it = ckpts.find(bench);
            if (it == ckpts.end()) {
                fut = prom.get_future().share();
                ckpts.emplace(bench, fut);
                owner = true;
            } else {
                fut = it->second;
            }
        }
        if (owner) {
            Scope s("sim.checkpoint_build");
            try {
                auto bm = std::make_shared<workload::Benchmark>(
                    workload::makeBenchmark(bench));
                std::shared_ptr<const workload::Program> prog(
                    bm, &bm->program);
                prom.set_value(sim::CheckpointSet::build(
                    prog, bm->ref, cfg.sim, cfg.productionWindow));
            } catch (...) {
                prom.set_exception(std::current_exception());
            }
        }
        return fut.get();
    }

    Outcome
    compute(const std::string &bench, const PolicySpec &spec)
    {
        const std::string &p = spec.policy;
        workload::Benchmark bm = [&] {
            Scope s("workload.build");
            return workload::makeBenchmark(bench);
        }();
        const std::uint64_t w = cfg.productionWindow;
        if (p == "baseline") {
            sim::Processor proc(cfg.sim, cfg.power, bm.program, bm.ref);
            proc.setCheckpoints(checkpoints(bench));
            Scope s("sim.baseline_run");
            Outcome o = fromRun(proc.run(w));
            o.reconfigs = 0.0;
            return o;
        }
        if (p == "profile")
            return profile(bench, bm, spec);
        if (p == "offline") {
            control::OfflineConfig oc;
            oc.intervalInstrs = cfg.offlineInterval;
            oc.slowdownPct = spec.num("d");
            std::vector<sim::SchedulePoint> sched;
            {
                Scope s("control.offline_analyze");
                sched = control::offlineAnalyze(oc, bm.program, bm.ref,
                                                cfg.sim, cfg.power, w);
            }
            sim::Processor proc(cfg.sim, cfg.power, bm.program, bm.ref);
            proc.setSchedule(std::move(sched));
            proc.setCheckpoints(checkpoints(bench));
            Scope s("sim.run");
            return fromRun(proc.run(w));
        }
        if (p == "global") {
            Outcome off = run(
                bench, PolicySpec::of("offline").set("d", spec.num("d")));
            auto ckpts = checkpoints(bench);
            Scope s("control.global_match");
            control::GlobalDvsResult g = control::globalDvsMatch(
                bm.program, bm.ref, cfg.sim, cfg.power, w,
                static_cast<Tick>(off.timePs), 6, ckpts);
            Outcome o = fromRun(g.run);
            o.reconfigs = 0.0;
            o.globalFreq = g.freq;
            return o;
        }
        if (p == "online") {
            control::OnlineConfig oc;
            oc.aggressiveness = spec.num("aggr");
            oc.intIqSize = cfg.sim.intIqSize;
            oc.fpIqSize = cfg.sim.fpIqSize;
            oc.lsqSize = cfg.sim.lsqSize;
            oc.robSize = cfg.sim.robSize;
            control::AttackDecayController ctl(oc, cfg.sim);
            sim::Processor proc(cfg.sim, cfg.power, bm.program, bm.ref);
            proc.setIntervalHook(&ctl, oc.intervalInstrs);
            proc.setCheckpoints(checkpoints(bench));
            Scope s("sim.run");
            return fromRun(proc.run(w));
        }
        throw std::runtime_error("no replay for policy " + p);
    }

    /** core::ProfilePipeline::train + runProduction, phase by phase. */
    Outcome
    profile(const std::string &bench, const workload::Benchmark &bm,
            const PolicySpec &spec)
    {
        core::PipelineConfig pc;
        pc.mode = spec.mode("mode");
        pc.slowdownPct = spec.num("d");
        pc.profile.maxInstrs = cfg.profileMaxInstrs;
        pc.analysisWindow = cfg.analysisWindow;

        std::unique_ptr<core::CallTree> tree;
        {
            Scope s("core.profile");
            tree = std::make_unique<core::CallTree>(core::profileProgram(
                bm.program, bm.train, pc.mode, pc.profile));
        }
        treeNodes += tree->size();
        longRunning += tree->longRunningIds().size();

        core::ShakerConfig sh = pc.shaker;
        sh.domainPowerWeight = cfg.power.domainWeight;
        sh.nominalMhz = cfg.sim.maxMhz;
        sh.l1LatencyCycles = cfg.sim.l1Latency;
        sh.l2LatencyCycles = cfg.sim.l2Latency;
        sh.robSize = cfg.sim.robSize;
        sh.lsqSize = cfg.sim.lsqSize;
        sh.intIqSize = cfg.sim.intIqSize;
        sh.fpIqSize = cfg.sim.fpIqSize;
        sh.fetchWidth = cfg.sim.fetchWidth;
        sh.retireWidth = cfg.sim.retireWidth;
        sh.intIssueWidth = cfg.sim.intIssueWidth;
        sh.fpIssueWidth = cfg.sim.fpIssueWidth;
        sh.memIssueWidth = cfg.sim.memIssueWidth;
        sh.mispredictPenalty = cfg.sim.mispredictPenalty;
        core::NodeTracker tracker(*tree);
        core::AnalysisCollector collector(sh, pc.limits);
        TimedSink sink(collector);
        LayerClock &clock = LayerClock::instance();
        const bool timed = clock.on.load();
        sim::SimConfig acfg = cfg.sim;
        acfg.sampling = sim::SamplingConfig{};
        sim::Processor analysis(acfg, cfg.power, bm.program, bm.train);
        analysis.setMarkerHandler(&tracker);
        analysis.setTraceSink(timed ? static_cast<sim::TraceSink *>(&sink)
                                    : &collector);
        {
            Scope s("core.analysis_run");
            analysis.run(pc.analysisWindow);
        }
        if (timed)
            clock.add("core.shaker_on_instr", sink.ns);
        std::map<std::uint32_t, core::NodeHistograms> hists;
        {
            Scope s("core.shaker_finish");
            hists = collector.finish();
        }

        std::map<std::uint32_t, sim::FreqSet> freqs;
        {
            Scope s("core.threshold");
            core::ThresholdConfig tc;
            tc.slowdownPct = pc.slowdownPct;
            tc.steps = sh.steps;
            for (const auto &kv : hists)
                if (kv.first != 0 && tree->node(kv.first).longRunning)
                    freqs[kv.first] = core::chooseFrequencies(kv.second, tc);
        }
        core::InstrumentationPlan plan;
        {
            Scope s("core.edit");
            plan = core::buildPlan(*tree, freqs, pc.mode);
        }

        core::ProfileRuntime runtime(*tree, plan, pc.costs);
        sim::Processor proc(cfg.sim, cfg.power, bm.program, bm.ref);
        proc.setMarkerHandler(&runtime);
        proc.setCheckpoints(checkpoints(bench));
        sim::RunResult r;
        {
            Scope s("core.production");
            r = proc.run(cfg.productionWindow);
        }
        const core::RuntimeStats &rt = runtime.stats();
        Outcome o = fromRun(r);
        o.overheadCycles = static_cast<double>(r.overheadCycles);
        o.feCycles = static_cast<double>(r.feCycles);
        o.dynReconfigPoints = static_cast<double>(rt.dynReconfigPoints);
        o.dynInstrPoints = static_cast<double>(rt.dynInstrPoints);
        o.staticReconfigPoints = plan.staticReconfigPoints;
        o.staticInstrPoints = plan.staticInstrPoints;
        o.tableBytes = static_cast<double>(plan.nextNodeTableBytes +
                                           plan.freqTableBytes);
        return o;
    }

    exp::ExpConfig cfg;
    std::mutex m;
    std::map<std::string, std::shared_future<Outcome>> outcomes;
    std::map<std::string,
             std::shared_future<std::shared_ptr<const sim::CheckpointSet>>>
        ckpts;
};

/** Every layer the replay times, none inside another. */
const char *const LEAF_LAYERS[] = {
    "workload.build",       "core.profile",        "core.analysis_run",
    "core.shaker_finish",   "core.threshold",      "core.edit",
    "core.production",      "control.offline_analyze",
    "control.global_match", "sim.baseline_run",    "sim.run",
    "sim.checkpoint_build"};

const char *const FIVE_POLICIES[] = {"baseline", "global:d=10",
                                     "online:aggr=1", "offline:d=10",
                                     "profile:mode=LF,d=10"};

std::string
policyName(const std::string &spec_text)
{
    return spec_text.substr(0, spec_text.find(':'));
}

} // namespace

Result
runTraced(const Options &opt)
{
    Result res;
    SweepPlan plan = sweepPlan(opt);
    std::vector<exp::SweepCell> cells = makeCells(plan);
    const std::vector<std::string> &benches = plan.benches;

    // Untraced reference sweeps.  The first gives the reference
    // outcomes and memo counts; the second, on a warm process, the
    // parallel wall; both must give the same outcomes.
    std::vector<Outcome> ref;
    double untraced_s = 0.0, memo_hits = 0.0, memo_misses = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        exp::Runner r(plan.cfg);
        Clock::time_point t0 = Clock::now();
        std::vector<Outcome> outs = r.runSweep(cells, plan.jobs);
        untraced_s = secondsSince(t0);
        res.attempted += cells.size();
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (!plausible(outs[i]))
                res.fail(1, "implausible outcome: " + cells[i].bench +
                                " " + cells[i].spec.str());
        if (rep == 0) {
            ref = outs;
            memo_hits = static_cast<double>(r.memoHits());
            memo_misses = static_cast<double>(r.memoMisses());
        } else if (digest(outs) != digest(ref)) {
            res.fail(cells.size(), "repeated sweep digest differs");
        }
    }

    // The replay, same cells, same parallelism: untimed and with
    // every Scope on, alternating, so trace_overhead_pct is what the
    // timing alone costs the same code.  Layer times are means over
    // the timed replays.
    auto replay_all = [&](Replay &replay, const char *what) {
        std::vector<Outcome> replayed(cells.size());
        std::vector<char> threw(cells.size(), 0);
        Clock::time_point t0 = Clock::now();
        util::parallelFor(cells.size(), plan.jobs, [&](std::size_t i) {
            try {
                replayed[i] = replay.run(cells[i].bench, cells[i].spec);
            } catch (const std::exception &) {
                threw[i] = 1;
            }
        });
        double s = secondsSince(t0);
        res.attempted += cells.size();
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (threw[i] || !sameOutcome(replayed[i], ref[i]))
                res.fail(1, std::string(what) +
                                " replay differs from Runner::run: " +
                                cells[i].bench + " " + cells[i].spec.str());
        ++res.attempted;
        if (digest(replayed) != digest(ref))
            res.fail(1, std::string(what) +
                            " replay digest differs from runSweep's");
        return s;
    };
    LayerClock &clock = LayerClock::instance();
    const int pairs = opt.smoke ? 1 : 3;
    std::vector<double> untimed, timed;
    double tree_nodes = 0, long_running = 0;
    for (int i = 0; i < pairs; ++i) {
        Replay plain(plan), replay(plan);
        untimed.push_back(replay_all(plain, "untimed"));
        clock.on = true;
        timed.push_back(replay_all(replay, "timed"));
        clock.on = false;
        tree_nodes = static_cast<double>(replay.treeNodes.load());
        long_running = static_cast<double>(replay.longRunning.load());
    }
    const double untimed_s = median(untimed), traced_s = median(timed);

    // Serial Runner::run per cell, baselines pre-warmed.
    std::map<std::string, std::vector<double>> cell_ms;
    double serial_ms = 0.0, critical_ms = 0.0;
    {
        exp::Runner r(plan.cfg);
        auto timed = [&](const std::string &bench, const PolicySpec &spec,
                         bool in_sweep) {
            Clock::time_point c0 = Clock::now();
            Outcome o = r.run(bench, spec);
            double ms = secondsSince(c0) * 1e3;
            cell_ms[spec.policy].push_back(ms);
            if (in_sweep) {
                serial_ms += ms;
                critical_ms = std::max(critical_ms, ms);
            }
            return o;
        };
        for (const auto &b : benches)
            timed(b, PolicySpec::of("baseline"), true);
        // Global DVS last, so its cost excludes the oracle run it
        // matches (already memoized by then), as each policy's cell
        // cost excludes the pre-warmed baseline.
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].spec.policy != "baseline")
                order.push_back(i);
        std::stable_partition(order.begin(), order.end(),
                              [&](std::size_t i) {
                                  return cells[i].spec.policy != "global";
                              });
        for (std::size_t i : order) {
            ++res.attempted;
            if (!sameOutcome(timed(cells[i].bench, cells[i].spec, true),
                             ref[i]))
                res.fail(1, "serial Runner::run differs: " +
                                cells[i].bench + " " + cells[i].spec.str());
        }
        // Policies this workload does not sweep, at the headline
        // parameters, so every policy has a cell cost.  The baselines
        // ran above; here they would be memo hits.
        std::set<std::string> swept = {"baseline"};
        for (const auto &text : plan.policies)
            swept.insert(policyName(text));
        for (const char *text : FIVE_POLICIES) {
            if (swept.count(policyName(text)))
                continue;
            PolicySpec spec = canonicalPolicy(text);
            for (const auto &b : benches) {
                ++res.attempted;
                if (!plausible(timed(b, spec, false)))
                    res.fail(1, "implausible outcome: " + b + " " + text);
            }
        }
    }

    // Simulator layer: exact with and without fast-forward, then a
    // checkpoint build and a sampled run, per bench.
    double det_ns = 0, det_instrs = 0, ffoff_ns = 0, ffoff_instrs = 0;
    double ff_edges = 0, edges = 0, ckpt_ms = 0, smp_ns = 0,
           smp_instrs = 0, skipped = 0, ci_sum = 0;
    double build_ms = 0, stream_ns = 0, stream_instrs = 0;
    const std::uint64_t w = plan.cfg.productionWindow;
    for (const auto &b : benches) {
        Clock::time_point b0 = Clock::now();
        auto bm = std::make_shared<workload::Benchmark>(
            workload::makeBenchmark(b));
        build_ms += secondsSince(b0) * 1e3;

        {
            workload::Stream st(bm->program, bm->ref);
            workload::StreamItem item;
            const double n_max = opt.smoke ? 10'000 : 300'000;
            double n = 0;
            Clock::time_point s0 = Clock::now();
            while (n < n_max && st.next(item))
                if (item.kind == workload::StreamItem::Kind::Instr)
                    ++n;
            stream_ns += secondsSince(s0) * 1e9;
            stream_instrs += n;
        }

        sim::SimConfig exact = plan.cfg.sim;
        exact.sampling = sim::SamplingConfig{};
        {
            sim::Processor p(exact, plan.cfg.power, bm->program, bm->ref);
            Clock::time_point s0 = Clock::now();
            sim::RunResult r = p.run(w);
            det_ns += secondsSince(s0) * 1e9;
            det_instrs += static_cast<double>(r.instrs);
            ff_edges += ffEdgesOf(r, 0);
            for (int d = 0; d < NUM_SCALED_DOMAINS; ++d)
                edges += static_cast<double>(
                    p.domainEdges(static_cast<Domain>(d)));
        }
        {
            sim::SimConfig off = exact;
            setFastForward(off, false, 0);
            sim::Processor p(off, plan.cfg.power, bm->program, bm->ref);
            Clock::time_point s0 = Clock::now();
            sim::RunResult r = p.run(w);
            ffoff_ns += secondsSince(s0) * 1e9;
            ffoff_instrs += static_cast<double>(r.instrs);
        }
        sim::SimConfig smp = plan.cfg.sim;
        if (!smp.sampling.sampled())
            smp.sampling = sim::parseSamplingSpec("sampled");
        std::shared_ptr<const workload::Program> prog(bm, &bm->program);
        Clock::time_point c0 = Clock::now();
        auto set = sim::CheckpointSet::build(prog, bm->ref, smp, w);
        ckpt_ms += secondsSince(c0) * 1e3;
        {
            sim::Processor p(smp, plan.cfg.power, bm->program, bm->ref);
            p.setCheckpoints(set);
            Clock::time_point s0 = Clock::now();
            sim::RunResult r = p.run(w);
            smp_ns += secondsSince(s0) * 1e9;
            smp_instrs += static_cast<double>(r.instrs);
            skipped += static_cast<double>(r.skippedInstrs);
            ++res.attempted;
            if (!(r.timePs > 0))
                res.fail(1, "sampled run has no time: " + b);
            else
                ci_sum += 100.0 * static_cast<double>(r.timeCiPs) /
                          static_cast<double>(r.timePs);
        }
    }

    SrvLayer srv = probeServer(opt, opt.smoke ? 0.3 : 1.5, res);

    std::fprintf(stderr,
                 "%s traced: %zu cells, runSweep %.2f s, replay %.2f s "
                 "untimed, %.2f s timed\n",
                 opt.workload.c_str(), cells.size(), untraced_s, untimed_s,
                 traced_s);
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    auto ms = [&](const char *name) { return clock.ms(name) / pairs; };
    // Each benchmark's baseline ran once, its profile cells once per
    // profile spec.
    double profile_specs = 0;
    for (const auto &text : plan.policies)
        profile_specs += policyName(text) == "profile";
    double base_ms = ms("sim.baseline_run") * profile_specs;
    double shaker_on_instr_ms = ms("core.shaker_on_instr");
    double total_ms = 0;
    for (const char *leaf : LEAF_LAYERS)
        total_ms += ms(leaf);
    auto share = [&](double ms) { return 100.0 * ms / total_ms; };

    res.add("trace_overhead_pct", (traced_s / untimed_s - 1.0) * 100.0,
            "%");
    res.add("workload.build_ms", build_ms, "ms");
    res.add("workload.stream_ns_per_instr", stream_ns / stream_instrs,
            "ns/instr");
    res.add("core.profile_ms", ms("core.profile"), "ms");
    res.add("core.calltree_nodes", tree_nodes, "count");
    res.add("core.long_running_nodes", long_running, "count");
    res.add("core.analysis_sim_ms",
            ms("core.analysis_run") - shaker_on_instr_ms, "ms");
    res.add("core.shaker_ms",
            shaker_on_instr_ms + ms("core.shaker_finish"), "ms");
    res.add("core.threshold_ms", ms("core.threshold"), "ms");
    res.add("core.edit_ms", ms("core.edit"), "ms");
    res.add("core.production_ms", ms("core.production"), "ms");
    res.add("core.instrumentation_overhead_pct",
            base_ms > 0 ? (ms("core.production") / base_ms - 1.0) *
                              100.0
                        : 0.0,
            "%");
    res.add("sim.detailed_ns_per_instr", det_ns / det_instrs, "ns/instr");
    res.add("sim.ff_off_ns_per_instr", ffoff_ns / ffoff_instrs,
            "ns/instr");
    res.add("sim.ff_edge_frac", edges > 0 ? ff_edges / edges : 0.0,
            "ratio");
    res.add("sim.checkpoint_build_ms", ckpt_ms, "ms");
    res.add("sim.sampled_ns_per_instr", smp_ns / smp_instrs, "ns/instr");
    res.add("sim.skipped_instr_frac", skipped / smp_instrs, "ratio");
    res.add("sim.ci_halfwidth_pct",
            ci_sum / static_cast<double>(benches.size()), "%");
    for (const char *text : FIVE_POLICIES) {
        std::string p = policyName(text);
        res.add("control." + p + ".cell_ms", mean(cell_ms[p]), "ms");
    }
    res.add("control.gen_overshoot_pp", overshootPp(cells, ref, false),
            "pp");
    res.add("control.offline_analyze_ms",
            ms("control.offline_analyze"), "ms");
    res.add("control.global_match_ms", ms("control.global_match"),
            "ms");
    res.add("exp.memo_hits", memo_hits, "count");
    res.add("exp.memo_misses", memo_misses, "count");
    res.add("exp.parallel_efficiency",
            serial_ms / 1e3 / (plan.jobs * untraced_s), "ratio");
    res.add("exp.critical_cell_ms", critical_ms, "ms");
    res.add("srv.sweep_rt_p50_us", srv.rtP50Us, "us");
    res.add("srv.sweep_rt_p99_us", srv.rtP99Us, "us");
    res.add("srv.req_per_s", srv.reqPerS, "1/s");
    res.add("srv.ping_rt_p50_us", srv.pingP50Us, "us");
    res.add("srv.sweep_rows_per_s", srv.rowsPerS, "1/s");
    res.add("srv.memo_hit_frac", srv.memoHitFrac, "ratio");
    res.add("srv.overload_rejects", srv.overloads, "count");
    res.add("srv.timeouts", srv.timeouts, "count");
    res.add("srv.bad_requests", srv.badRequests, "count");
    // Where the replay's time goes, as shares of its leaf layers.
    res.add("mix.profile_pct", share(ms("core.profile")), "%");
    res.add("mix.analysis_pct",
            share(ms("core.analysis_run") - shaker_on_instr_ms), "%");
    res.add("mix.shaker_pct",
            share(shaker_on_instr_ms + ms("core.shaker_finish")), "%");
    res.add("mix.offline_analyze_pct",
            share(ms("control.offline_analyze")), "%");
    res.add("mix.sim_runs_pct",
            share(ms("core.production") +
                  ms("sim.baseline_run") + ms("sim.run") +
                  ms("control.global_match")),
            "%");
    res.add("mix.checkpoint_pct", share(ms("sim.checkpoint_build")),
            "%");
    return res;
}

} // namespace perfbench
