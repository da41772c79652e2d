#include "core/shaker.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

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

/**
 * The primitive-event dependence DAG in flat storage: per-event
 * fields in parallel arrays, edges in compressed rows.  Edges are
 * appended to one list while the DAG is built; `finalize()` turns
 * that list into successor and predecessor rows with one counting
 * pass, so the edges of event i sit in [off[i], off[i+1]) in
 * insertion order.
 */
struct EventDag
{
    std::vector<Domain> domain;
    std::vector<double> start;       ///< current position (ps)
    std::vector<double> nominalDur;  ///< duration at nominal frequency (ps)
    std::vector<double> stretch;     ///< current stretch factor (>= 1)
    std::vector<double> pf;          ///< current power factor
    std::vector<double> pf0;         ///< initial power factor

    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    std::vector<std::uint32_t> succOff, succ;
    std::vector<std::uint32_t> predOff, pred;

    void reserve(std::size_t events)
    {
        domain.reserve(events);
        start.reserve(events);
        nominalDur.reserve(events);
        stretch.reserve(events);
        pf.reserve(events);
        pf0.reserve(events);
        edges.reserve(events * 2);
    }

    std::size_t size() const { return start.size(); }

    std::uint32_t addEvent(Domain d, double s, double dur, double p)
    {
        auto i = static_cast<std::uint32_t>(start.size());
        domain.push_back(d);
        start.push_back(s);
        nominalDur.push_back(dur);
        stretch.push_back(1.0);
        pf.push_back(p);
        pf0.push_back(p);
        return i;
    }

    void addEdge(std::uint32_t from, std::uint32_t to)
    {
        edges.emplace_back(from, to);
    }

    void finalize()
    {
        const std::size_t n = size();
        succOff.assign(n + 1, 0);
        predOff.assign(n + 1, 0);
        for (const auto &[from, to] : edges) {
            ++succOff[from + 1];
            ++predOff[to + 1];
        }
        for (std::size_t i = 0; i < n; ++i) {
            succOff[i + 1] += succOff[i];
            predOff[i + 1] += predOff[i];
        }
        succ.resize(edges.size());
        pred.resize(edges.size());
        std::vector<std::uint32_t> sfill(succOff.begin(),
                                         succOff.end() - 1);
        std::vector<std::uint32_t> pfill(predOff.begin(),
                                         predOff.end() - 1);
        for (const auto &[from, to] : edges) {
            succ[sfill[from]++] = to;
            pred[pfill[to]++] = from;
        }
        edges.clear();
        edges.shrink_to_fit();
    }

    double dur(std::size_t i) const { return nominalDur[i] * stretch[i]; }
    double end(std::size_t i) const { return start[i] + dur(i); }
};

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
    EventDag ev;
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
        // fetch, dispatch/rename (front end)
        std::uint32_t e_fetch =
            ev.addEvent(Domain::FrontEnd, static_cast<double>(t.fetch),
                        cycle_ps, weight(Domain::FrontEnd));
        std::uint32_t e_disp = ev.addEvent(
            Domain::FrontEnd, static_cast<double>(t.dispatch),
            cycle_ps, weight(Domain::FrontEnd));
        // execute (owning domain)
        double exec_dur = static_cast<double>(t.execDone) -
                          static_cast<double>(t.issue);
        std::uint32_t e_exec = ev.addEvent(
            t.domain, static_cast<double>(t.issue),
            std::max(exec_dur, cycle_ps * 0.5), weight(t.domain));
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
            e_mem = ev.addEvent(Domain::Memory,
                                static_cast<double>(t.memStart),
                                std::max(scalable, cycle_ps * 0.5),
                                weight(Domain::Memory));
            if (t.l2Miss && total > scalable) {
                // pf 0: never stretched
                e_ext = ev.addEvent(
                    Domain::External,
                    static_cast<double>(t.memStart) + scalable,
                    total - scalable, 0.0);
            }
        }
        // commit (front end)
        std::uint32_t e_commit = ev.addEvent(
            Domain::FrontEnd, static_cast<double>(t.commit), cycle_ps,
            weight(Domain::FrontEnd));

        // intra-instruction chain
        ev.addEdge(e_fetch, e_disp);
        ev.addEdge(e_disp, e_exec);
        if (e_mem != UINT32_MAX) {
            ev.addEdge(e_exec, e_mem);
            if (e_ext != UINT32_MAX) {
                ev.addEdge(e_mem, e_ext);
                ev.addEdge(e_ext, e_commit);
            } else {
                ev.addEdge(e_mem, e_commit);
            }
        } else {
            ev.addEdge(e_exec, e_commit);
        }

        // mispredict redirect: branch exec -> refill -> this fetch
        if (pending_redirect_from != UINT32_MAX) {
            std::uint32_t e_redir = ev.addEvent(
                Domain::FrontEnd, pending_redirect_start,
                cycle_ps * cfg.mispredictPenalty,
                weight(Domain::FrontEnd));
            ev.addEdge(pending_redirect_from, e_redir);
            ev.addEdge(e_redir, e_fetch);
            pending_redirect_from = UINT32_MAX;
        }

        // width-aware structural bandwidth chains
        fetch_events.push_back(e_fetch);
        const std::size_t fetch_w =
            static_cast<std::size_t>(cfg.fetchWidth);
        if (fetch_events.size() > fetch_w) {
            ev.addEdge(fetch_events[fetch_events.size() - 1 - fetch_w],
                       e_fetch);
        }
        // NOTE: no chain over full mem-access events — cache ports
        // are pipelined (occupied only at initiation), which the
        // memory-domain exec (agen) chain below already models.

        // data dependences (producers outside the segment are simply
        // "ready"; no edge)
        for (std::uint64_t dep : {t.dep1, t.dep2}) {
            if (!dep)
                continue;
            auto it = value_event.find(dep);
            if (it != value_event.end())
                ev.addEdge(it->second, e_exec);
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
            ev.addEdge(commit_events[idx - retire_w], e_commit);
        if (idx >= rob_sz)
            ev.addEdge(commit_events[idx - rob_sz], e_disp);

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
            ev.addEdge(dex[dex.size() - 1 - issue_w], e_exec);
        if (qcap > 0 && dex.size() > queue_cap)
            ev.addEdge(dex[dex.size() - 1 - queue_cap], ddp.back());

        if (t.mispredict) {
            pending_redirect_from = e_exec;
            pending_redirect_start = static_cast<double>(t.execDone);
        }
    }
    ev.finalize();

    const double seg_start =
        static_cast<double>(segment.front().fetch);
    const double seg_end =
        static_cast<double>(segment.back().commit) + cycle_ps;

    // ---- the shaker ----
    // Passes visit events in index order and update them in place,
    // so later events in a pass see this pass's earlier moves.
    double max_pf = 0.0;
    for (double p : ev.pf0)
        max_pf = std::max(max_pf, p);
    double threshold = max_pf * 0.95;

    auto slack_out = [&](std::size_t i) {
        double limit = seg_end;
        for (std::uint32_t k = ev.succOff[i]; k < ev.succOff[i + 1]; ++k)
            limit = std::min(limit, ev.start[ev.succ[k]]);
        return limit - ev.end(i);
    };
    auto slack_in = [&](std::size_t i) {
        double limit = seg_start;
        for (std::uint32_t k = ev.predOff[i]; k < ev.predOff[i + 1]; ++k)
            limit = std::max(limit, ev.end(ev.pred[k]));
        return ev.start[i] - limit;
    };

    // Stretch event i into `avail` ps of slack, honoring the power
    // threshold and the max-stretch floor.  Returns slack consumed.
    auto stretch_event = [&](std::size_t i, double avail) {
        double &stretch = ev.stretch[i];
        if (avail <= 0.0 || stretch >= cfg.maxStretch)
            return 0.0;
        if (ev.pf[i] < threshold)
            return 0.0;
        double want = (ev.dur(i) + avail) / ev.nominalDur[i];
        // Power factor scales as 1/stretch^2; do not drop (far) below
        // the current threshold ("scales the event until ... its
        // power factor drops below the current threshold").
        double pf_limit = std::sqrt(ev.pf0[i] / threshold);
        double s_new = std::min({want, cfg.maxStretch,
                                 std::max(pf_limit, stretch)});
        if (s_new <= stretch)
            return 0.0;
        double before = ev.dur(i);
        stretch = s_new;
        ev.pf[i] = ev.pf0[i] / (stretch * stretch);
        return ev.dur(i) - before;
    };

    for (int pass = 0; pass < cfg.maxPasses; ++pass) {
        bool backward = (pass % 2) == 0;
        bool changed = false;

        if (backward) {
            for (std::size_t i = ev.size(); i-- > 0;) {
                double sl = slack_out(i);
                if (sl <= 1e-9)
                    continue;
                double used = stretch_event(i, sl);
                double remaining = sl - used;
                if (remaining > 1e-9) {
                    // Move the event later: slack migrates to the
                    // incoming edges.
                    ev.start[i] += remaining;
                    changed = true;
                }
                if (used > 0.0)
                    changed = true;
            }
        } else {
            for (std::size_t i = 0; i < ev.size(); ++i) {
                double sl = slack_in(i);
                if (sl <= 1e-9)
                    continue;
                double used = stretch_event(i, sl);
                // Stretching into incoming slack: keep the end fixed.
                if (used > 0.0) {
                    ev.start[i] -= used;
                    changed = true;
                }
                double remaining = sl - used;
                if (remaining > 1e-9) {
                    // Move the event earlier: slack migrates to the
                    // outgoing edges.
                    ev.start[i] -= remaining;
                    changed = true;
                }
            }
        }

        threshold *= cfg.thresholdDecay;
        if (!changed && threshold < max_pf * 0.05)
            break;
    }

    // ---- summarize into per-domain histograms ----
    for (std::size_t i = 0; i < ev.size(); ++i) {
        if (ev.domain[i] == Domain::External)
            continue;
        Mhz f = cfg.steps.quantize(cfg.nominalMhz / ev.stretch[i]);
        double cycles = ev.nominalDur[i] / cycle_ps;
        out.hist[static_cast<int>(ev.domain[i])].add(f, cycles);
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
        selectNode();
    }
    if (!curHist)
        return;  // node 0, or node already analyzed enough
    segment.push_back(t);
    if (segment.size() >= limits.maxSegmentInstrs) {
        flush();
        selectNode();
    }
}

void
AnalysisCollector::selectNode()
{
    curHist = nullptr;
    if (curNode == 0)
        return;
    auto [it, fresh] = results.try_emplace(curNode);
    const NodeHistograms &h = it->second;
    if (fresh || (h.instrs < limits.maxInstrsPerNode &&
                  h.segments < limits.maxSegmentsPerNode))
        curHist = &it->second;
}

void
AnalysisCollector::flush()
{
    if (curHist && !segment.empty())
        analyzer.analyze(segment, *curHist);
    segment.clear();
}

std::map<std::uint32_t, NodeHistograms>
AnalysisCollector::finish()
{
    flush();
    curHist = nullptr;
    return std::move(results);
}

} // namespace mcd::core
