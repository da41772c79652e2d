#include "core/shaker.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "workload/instr.hh"

namespace mcd::core
{

using sim::InstrTiming;
using workload::InstrClass;

ShakerConfig
shakerConfigFor(const ShakerConfig &base, const sim::SimConfig &scfg,
                const power::PowerConfig &pcfg)
{
    ShakerConfig sc = base;
    sc.domainPowerWeight = pcfg.domainWeight;
    sc.nominalMhz = scfg.maxMhz;
    sc.l1LatencyCycles = scfg.l1Latency;
    sc.l2LatencyCycles = scfg.l2Latency;
    sc.robSize = scfg.robSize;
    sc.lsqSize = scfg.lsqSize;
    sc.intIqSize = scfg.intIqSize;
    sc.fpIqSize = scfg.fpIqSize;
    sc.fetchWidth = scfg.fetchWidth;
    sc.retireWidth = scfg.retireWidth;
    sc.intIssueWidth = scfg.intIssueWidth;
    sc.fpIssueWidth = scfg.fpIssueWidth;
    sc.memIssueWidth = scfg.memIssueWidth;
    sc.mispredictPenalty = scfg.mispredictPenalty;
    return sc;
}

namespace
{

/** One primitive event in the dependence DAG. */
struct Event
{
    Domain domain = Domain::FrontEnd;
    double start = 0.0;     ///< current position (ps)
    double nominalDur = 0;  ///< duration at nominal frequency (ps)
    double stretch = 1.0;   ///< current stretch factor (>= 1)
    double pf = 0.0;        ///< current power factor
    double pf0 = 0.0;       ///< initial power factor
    std::vector<std::uint32_t> succ;
    std::vector<std::uint32_t> pred;

    double dur() const { return nominalDur * stretch; }
    double end() const { return start + dur(); }
};

void
addEdge(std::vector<Event> &ev, std::uint32_t from, std::uint32_t to)
{
    ev[from].succ.push_back(to);
    ev[to].pred.push_back(from);
}

} // namespace

SegmentAnalyzer::SegmentAnalyzer(const ShakerConfig &c)
    : cfg(c)
{
}

void
SegmentAnalyzer::analyze(const std::vector<InstrTiming> &segment,
                         NodeHistograms &out) const
{
    if (segment.empty())
        return;

    const double cycle_ps = 1e6 / cfg.nominalMhz;

    // ---- build the event DAG ----
    std::vector<Event> ev;
    ev.reserve(segment.size() * 5);
    // Producer seq -> index of the event whose completion carries the
    // value (exec, or mem for loads).
    std::unordered_map<std::uint64_t, std::uint32_t> value_event;
    value_event.reserve(segment.size() * 2);

    // Resource tracking for structural edges: bandwidth chains are
    // width-aware (instruction i's fetch follows instruction
    // i - fetchWidth's fetch, etc.), occupancy edges bound in-flight
    // counts (ROB, issue queues).
    std::vector<std::uint32_t> fetch_events;
    std::vector<std::uint32_t> commit_events;
    std::vector<std::uint32_t> mem_events;
    fetch_events.reserve(segment.size());
    commit_events.reserve(segment.size());
    std::array<std::vector<std::uint32_t>, NUM_SCALED_DOMAINS>
        domain_exec;  // exec event per instr, per domain, in order
    std::array<std::vector<std::uint32_t>, NUM_SCALED_DOMAINS>
        domain_dispatch;

    auto weight = [&](Domain d) {
        return cfg.domainPowerWeight[static_cast<int>(d)];
    };

    // Redirect modeling: fetch after a mispredicted branch depends on
    // the branch's execution plus a front-end refill event whose
    // length scales with the front-end clock.
    std::uint32_t pending_redirect_from = UINT32_MAX;
    double pending_redirect_start = 0.0;

    for (const InstrTiming &t : segment) {
        // fetch (front end)
        std::uint32_t e_fetch = static_cast<std::uint32_t>(ev.size());
        {
            Event e;
            e.domain = Domain::FrontEnd;
            e.start = static_cast<double>(t.fetch);
            e.nominalDur = cycle_ps;
            e.pf0 = e.pf = weight(Domain::FrontEnd);
            ev.push_back(e);
        }
        // dispatch/rename (front end)
        std::uint32_t e_disp = static_cast<std::uint32_t>(ev.size());
        {
            Event e;
            e.domain = Domain::FrontEnd;
            e.start = static_cast<double>(t.dispatch);
            e.nominalDur = cycle_ps;
            e.pf0 = e.pf = weight(Domain::FrontEnd);
            ev.push_back(e);
        }
        // execute (owning domain)
        std::uint32_t e_exec = static_cast<std::uint32_t>(ev.size());
        {
            Event e;
            e.domain = t.domain;
            e.start = static_cast<double>(t.issue);
            double d = static_cast<double>(t.execDone) -
                       static_cast<double>(t.issue);
            e.nominalDur = std::max(d, cycle_ps * 0.5);
            e.pf0 = e.pf = weight(t.domain);
            ev.push_back(e);
        }
        // memory access (loads only); the fixed external-memory
        // latency of misses is carved out into an unscalable
        // External event so the shaker never treats DRAM time as
        // scalable memory-domain work.
        std::uint32_t e_mem = UINT32_MAX;
        std::uint32_t e_ext = UINT32_MAX;
        if (t.cls == InstrClass::Load && t.memDone > t.memStart) {
            double total = static_cast<double>(t.memDone) -
                           static_cast<double>(t.memStart);
            double scalable = total;
            if (t.l2Miss) {
                scalable = cycle_ps * (cfg.l1LatencyCycles +
                                       cfg.l2LatencyCycles);
                scalable = std::min(scalable, total);
            }
            e_mem = static_cast<std::uint32_t>(ev.size());
            {
                Event e;
                e.domain = Domain::Memory;
                e.start = static_cast<double>(t.memStart);
                e.nominalDur = std::max(scalable, cycle_ps * 0.5);
                e.pf0 = e.pf = weight(Domain::Memory);
                ev.push_back(e);
            }
            if (t.l2Miss && total > scalable) {
                e_ext = static_cast<std::uint32_t>(ev.size());
                Event e;
                e.domain = Domain::External;
                e.start = static_cast<double>(t.memStart) + scalable;
                e.nominalDur = total - scalable;
                e.pf0 = e.pf = 0.0;  // never stretched
                ev.push_back(e);
            }
        }
        // commit (front end)
        std::uint32_t e_commit = static_cast<std::uint32_t>(ev.size());
        {
            Event e;
            e.domain = Domain::FrontEnd;
            e.start = static_cast<double>(t.commit);
            e.nominalDur = cycle_ps;
            e.pf0 = e.pf = weight(Domain::FrontEnd);
            ev.push_back(e);
        }

        // intra-instruction chain
        addEdge(ev, e_fetch, e_disp);
        addEdge(ev, e_disp, e_exec);
        if (e_mem != UINT32_MAX) {
            addEdge(ev, e_exec, e_mem);
            if (e_ext != UINT32_MAX) {
                addEdge(ev, e_mem, e_ext);
                addEdge(ev, e_ext, e_commit);
            } else {
                addEdge(ev, e_mem, e_commit);
            }
        } else {
            addEdge(ev, e_exec, e_commit);
        }

        // mispredict redirect: branch exec -> refill -> this fetch
        if (pending_redirect_from != UINT32_MAX) {
            std::uint32_t e_redir =
                static_cast<std::uint32_t>(ev.size());
            Event e;
            e.domain = Domain::FrontEnd;
            e.start = pending_redirect_start;
            e.nominalDur = cycle_ps * cfg.mispredictPenalty;
            e.pf0 = e.pf = weight(Domain::FrontEnd);
            ev.push_back(e);
            addEdge(ev, pending_redirect_from, e_redir);
            addEdge(ev, e_redir, e_fetch);
            pending_redirect_from = UINT32_MAX;
        }

        // width-aware structural bandwidth chains
        fetch_events.push_back(e_fetch);
        const std::size_t fetch_w =
            static_cast<std::size_t>(cfg.fetchWidth);
        if (fetch_events.size() > fetch_w) {
            addEdge(ev,
                    fetch_events[fetch_events.size() - 1 - fetch_w],
                    e_fetch);
        }
        // NOTE: no chain over full mem-access events — cache ports
        // are pipelined (occupied only at initiation), which the
        // memory-domain exec (agen) chain below already models.
        (void)mem_events;

        // data dependences (producers outside the segment are simply
        // "ready"; no edge)
        for (std::uint64_t dep : {t.dep1, t.dep2}) {
            if (!dep)
                continue;
            auto it = value_event.find(dep);
            if (it != value_event.end())
                addEdge(ev, it->second, e_exec);
        }
        value_event[t.seq] = e_ext != UINT32_MAX
                                 ? e_ext
                                 : (e_mem != UINT32_MAX ? e_mem
                                                        : e_exec);

        // Retire bandwidth chain and ROB occupancy edge.
        commit_events.push_back(e_commit);
        std::size_t idx = commit_events.size() - 1;
        const std::size_t retire_w =
            static_cast<std::size_t>(cfg.retireWidth);
        const std::size_t rob_sz =
            static_cast<std::size_t>(cfg.robSize);
        if (idx >= retire_w)
            addEdge(ev, commit_events[idx - retire_w], e_commit);
        if (idx >= rob_sz)
            addEdge(ev, commit_events[idx - rob_sz], e_disp);

        // Per-domain issue bandwidth and queue occupancy.
        int dom = static_cast<int>(t.domain);
        auto &dex = domain_exec[static_cast<size_t>(dom)];
        auto &ddp = domain_dispatch[static_cast<size_t>(dom)];
        int qcap = 0, width = 1;
        switch (t.domain) {
          case Domain::Integer:
            qcap = cfg.intIqSize;
            width = cfg.intIssueWidth;
            break;
          case Domain::FloatingPoint:
            qcap = cfg.fpIqSize;
            width = cfg.fpIssueWidth;
            break;
          case Domain::Memory:
            qcap = cfg.lsqSize;
            width = cfg.memIssueWidth;
            break;
          default:
            break;
        }
        dex.push_back(e_exec);
        ddp.push_back(e_disp);
        const std::size_t issue_w = static_cast<std::size_t>(width);
        const std::size_t queue_cap = static_cast<std::size_t>(qcap);
        if (dex.size() > issue_w)
            addEdge(ev, dex[dex.size() - 1 - issue_w], e_exec);
        if (qcap > 0 && dex.size() > queue_cap)
            addEdge(ev, dex[dex.size() - 1 - queue_cap], ddp.back());

        if (t.mispredict) {
            pending_redirect_from = e_exec;
            pending_redirect_start = static_cast<double>(t.execDone);
        }
    }

    const double seg_start =
        static_cast<double>(segment.front().fetch);
    const double seg_end =
        static_cast<double>(segment.back().commit) + cycle_ps;

    // ---- the shaker ----
    double max_pf = 0.0;
    for (const Event &e : ev)
        max_pf = std::max(max_pf, e.pf0);
    double threshold = max_pf * 0.95;

    auto slack_out = [&](const Event &e) {
        double limit = seg_end;
        for (std::uint32_t s : e.succ)
            limit = std::min(limit, ev[s].start);
        return limit - e.end();
    };
    auto slack_in = [&](const Event &e) {
        double limit = seg_start;
        for (std::uint32_t p : e.pred)
            limit = std::max(limit, ev[p].end());
        return e.start - limit;
    };

    // Stretch event e into `avail` ps of slack, honoring the power
    // threshold and the max-stretch floor.  Returns slack consumed.
    auto stretch_event = [&](Event &e, double avail) {
        if (avail <= 0.0 || e.stretch >= cfg.maxStretch)
            return 0.0;
        if (e.pf < threshold)
            return 0.0;
        double want = (e.dur() + avail) / e.nominalDur;
        // Power factor scales as 1/stretch^2; do not drop (far) below
        // the current threshold ("scales the event until ... its
        // power factor drops below the current threshold").
        double pf_limit = std::sqrt(e.pf0 / threshold);
        double s_new = std::min({want, cfg.maxStretch,
                                 std::max(pf_limit, e.stretch)});
        if (s_new <= e.stretch)
            return 0.0;
        double before = e.dur();
        e.stretch = s_new;
        e.pf = e.pf0 / (e.stretch * e.stretch);
        return e.dur() - before;
    };

    for (int pass = 0; pass < cfg.maxPasses; ++pass) {
        bool backward = (pass % 2) == 0;
        bool changed = false;

        if (backward) {
            for (std::size_t i = ev.size(); i-- > 0;) {
                Event &e = ev[i];
                double sl = slack_out(e);
                if (sl <= 1e-9)
                    continue;
                double used = stretch_event(e, sl);
                double remaining = sl - used;
                if (remaining > 1e-9) {
                    // Move the event later: slack migrates to the
                    // incoming edges.
                    e.start += remaining;
                    changed = true;
                }
                if (used > 0.0)
                    changed = true;
            }
        } else {
            for (std::size_t i = 0; i < ev.size(); ++i) {
                Event &e = ev[i];
                double sl = slack_in(e);
                if (sl <= 1e-9)
                    continue;
                double used = stretch_event(e, sl);
                // Stretching into incoming slack: keep the end fixed.
                if (used > 0.0) {
                    e.start -= used;
                    changed = true;
                }
                double remaining = sl - used;
                if (remaining > 1e-9) {
                    // Move the event earlier: slack migrates to the
                    // outgoing edges.
                    e.start -= remaining;
                    changed = true;
                }
            }
        }

        threshold *= cfg.thresholdDecay;
        if (!changed && threshold < max_pf * 0.05)
            break;
    }

    // ---- summarize into per-domain histograms ----
    for (const Event &e : ev) {
        if (e.domain == Domain::External)
            continue;
        Mhz f = cfg.steps.quantize(cfg.nominalMhz / e.stretch);
        double cycles = e.nominalDur / cycle_ps;
        out.hist[static_cast<int>(e.domain)].add(f, cycles);
    }
    out.spanPs += static_cast<Tick>(seg_end - seg_start);
    out.instrs += segment.size();
    out.segments += 1;
}

AnalysisCollector::AnalysisCollector(const ShakerConfig &cfg,
                                     const Limits &l)
    : analyzer(cfg), limits(l)
{
}

void
AnalysisCollector::onInstr(const InstrTiming &t)
{
    if (t.node != curNode) {
        flush();
        curNode = t.node;
    }
    if (curNode == 0)
        return;
    auto it = results.find(curNode);
    if (it != results.end()) {
        const NodeHistograms &h = it->second;
        if (h.instrs >= limits.maxInstrsPerNode ||
            h.segments >= limits.maxSegmentsPerNode)
            return;  // node already analyzed enough
    }
    segment.push_back(t);
    if (segment.size() >= limits.maxSegmentInstrs)
        flush();
}

void
AnalysisCollector::flush()
{
    if (curNode != 0 && !segment.empty())
        analyzer.analyze(segment, results[curNode]);
    segment.clear();
}

std::map<std::uint32_t, NodeHistograms>
AnalysisCollector::finish()
{
    flush();
    return std::move(results);
}

} // namespace mcd::core
