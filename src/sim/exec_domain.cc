#include "sim/exec_domain.hh"

#include <algorithm>
#include <iterator>

#include "sim/processor.hh"
#include "util/logging.hh"

namespace mcd::sim
{

using workload::InstrClass;

void
ExecDomain::tick(Tick now)
{
    auto &queue = p.iq[domainIndex(dom)];
    p.occSum[domainIndex(dom)] += static_cast<double>(queue.size());
    ++p.occSamples[domainIndex(dom)];

    // Every synchronization margin into this domain is fixed for the
    // whole edge, so compute the five once.
    const SyncMargins margin = p.syncMarginsTo(dom);
    const Tick dispatch_margin = margin[domainIndex(Domain::FrontEnd)];
    const std::uint64_t cur_edge = p.clock(dom).edges();
    if (waitValid && stillWaiting(now, cur_edge, margin))
        return;

    IssueWait w;
    int issued = 0;
    for (auto it = queue.begin();
         it != queue.end() && issued < width;) {
        Uop *u = p.findUop(*it);
        if (!u)
            panic("IQ entry %llu missing from ROB",
                  static_cast<unsigned long long>(*it));
        // Dispatch-to-issue-queue synchronization (front end ->
        // domain).  The queue is in dispatch order, so every younger
        // entry is still inside the synchronizer too; a failed
        // tryIssue() has no side effects, so stopping here issues
        // exactly what scanning on would.
        if (now < u->dispatchTime + dispatch_margin) {
            w.atTime(u->dispatchTime + dispatch_margin);
            break;
        }
        if (tryIssue(now, *u, margin, w)) {
            it = queue.erase(it);
            ++issued;
        } else {
            ++it;
        }
    }

    waitValid = issued == 0 && !w.opaque;
    if (waitValid) {
        wait = w;
        waitMargin = margin;
        waitQueueSize = queue.size();
        waitIssues = p.issuedCount;
    }
}

bool
ExecDomain::stillWaiting(Tick now, std::uint64_t cur_edge,
                         const SyncMargins &margin) const
{
    // Only this domain's own scan issues from its queue or frees its
    // functional units, and it issued nothing since the record; a
    // dispatch is the only other way the queue changes, and it only
    // appends.
    if (now >= wait.time || cur_edge >= wait.edge ||
        p.iq[domainIndex(dom)].size() != waitQueueSize ||
        margin != waitMargin)
        return false;
    if (wait.oldestProducer != ~0ULL &&
        p.rob.front().seq > wait.oldestProducer)
        return false;
    for (Domain d : scaledDomains()) {
        if (((wait.domains >> domainIndex(d)) & 1u) &&
            p.issuedCount[domainIndex(d)] != waitIssues[domainIndex(d)])
            return false;
    }
    return true;
}

bool
ExecDomain::tryIssue(Tick now, Uop &u, const SyncMargins &margin,
                     IssueWait &wait)
{
    if (!p.operandReady(u.depSeq1, dom, now, margin, wait) ||
        !p.operandReady(u.depSeq2, dom, now, margin, wait))
        return false;

    // Loads: memory ordering against older in-flight stores to the
    // same address (conservative exact-address disambiguation with
    // store-to-load forwarding).
    bool forwarded = false;
    Tick forward_ready = 0;
    if (u.isLoad) {
        // storeSeqs is sorted: walk back from the youngest older store.
        auto younger = std::lower_bound(p.storeSeqs.begin(),
                                        p.storeSeqs.end(), u.seq);
        for (auto it = std::make_reverse_iterator(younger);
             it != p.storeSeqs.rend(); ++it) {
            const Processor::Uop *s = p.findUop(*it);
            if (!s)
                break;  // older stores retired: no conflict possible
            if (s->di.addr != u.di.addr)
                continue;
            if (!s->completed) {
                // Data not ready yet; the store issues in this domain.
                wait.domains |= 1u << domainIndex(s->domain);
                return false;
            }
            forwarded = true;
            forward_ready = s->execDone;
            break;
        }
    }

    // Functional unit allocation, in domain edge counts (exact under
    // jitter).
    Tick period = p.clock(dom).period();
    std::uint64_t cur_edge = p.clock(dom).edges();
    // A unit frees at its busy edge; only this domain's issues move
    // those edges.
    auto wait_for_unit = [&](const std::vector<Tick> &units) {
        if (!units.empty())
            wait.atEdge(*std::min_element(units.begin(), units.end()));
    };
    auto take_pipelined = [&](std::vector<Tick> &units) -> bool {
        for (auto &busy : units) {
            if (busy <= cur_edge) {
                busy = cur_edge + 1;
                return true;
            }
        }
        wait_for_unit(units);
        return false;
    };
    auto take_blocking = [&](std::vector<Tick> &units,
                             std::uint64_t lat_edges) -> bool {
        for (auto &busy : units) {
            if (busy <= cur_edge) {
                busy = cur_edge + lat_edges;
                return true;
            }
        }
        wait_for_unit(units);
        return false;
    };

    Volt v = p.clock(dom).voltage();
    int lat = 0;
    switch (u.di.cls) {
      case InstrClass::IntAlu:
      case InstrClass::Branch:
        if (!take_pipelined(p.intAluBusy))
            return false;
        lat = p.cfg.latIntAlu;
        p.power_.access(power::Unit::IntAlu, v);
        break;
      case InstrClass::IntMul:
        if (!take_pipelined(p.intMulBusy))
            return false;
        lat = p.cfg.latIntMul;
        p.power_.access(power::Unit::IntMul, v);
        break;
      case InstrClass::IntDiv:
        lat = p.cfg.latIntDiv;
        if (!take_blocking(p.intMulBusy,
                           static_cast<std::uint64_t>(lat)))
            return false;
        p.power_.access(power::Unit::IntMul, v);
        break;
      case InstrClass::FpAdd:
        if (!take_pipelined(p.fpAluBusy))
            return false;
        lat = p.cfg.latFpAdd;
        p.power_.access(power::Unit::FpAlu, v);
        break;
      case InstrClass::FpMul:
        if (!take_pipelined(p.fpMulBusy))
            return false;
        lat = p.cfg.latFpMul;
        p.power_.access(power::Unit::FpMul, v);
        break;
      case InstrClass::FpDiv:
      case InstrClass::FpSqrt:
        lat = u.di.cls == InstrClass::FpDiv ? p.cfg.latFpDiv
                                            : p.cfg.latFpSqrt;
        if (!take_blocking(p.fpMulBusy,
                           static_cast<std::uint64_t>(lat)))
            return false;
        p.power_.access(power::Unit::FpMul, v);
        break;
      case InstrClass::Load:
      case InstrClass::Store:
        if (!take_pipelined(p.memPortBusy))
            return false;
        lat = 1;
        p.power_.access(power::Unit::Lsq, v);
        break;
      default:
        return false;
    }

    // Register file reads for the source operands.
    int n_src = (u.depSeq1 ? 1 : 0) + (u.depSeq2 ? 1 : 0);
    if (n_src > 0) {
        power::Unit rf = dom == Domain::FloatingPoint
                             ? power::Unit::RegFileFp
                             : power::Unit::RegFileInt;
        p.power_.accessTo(rf, dom, v, n_src);
    }

    ++p.issuedCount[domainIndex(dom)];
    u.issueTime = now;
    u.issued = true;
    u.inIq = false;
    u.execDone = now + static_cast<Tick>(lat) * period;
    u.execDoneEdge = cur_edge + static_cast<std::uint64_t>(lat);
    u.completed = true;

    if (u.isLoad) {
        u.memStart = u.execDone;
        Volt mem_v = p.clock(Domain::Memory).voltage();
        if (forwarded) {
            Tick data = std::max(u.memStart, forward_ready);
            u.memDone =
                data + static_cast<Tick>(p.cfg.l1Latency) * period;
        } else {
            p.power_.access(power::Unit::Dcache, mem_v);
            ++p.l1dAccessCount;
            Tick t = u.memStart +
                     static_cast<Tick>(p.cfg.l1Latency) * period;
            if (!p.l1d.access(u.di.addr)) {
                u.l1Miss = true;
                ++p.l1dMissCount;
                p.power_.access(power::Unit::L2, mem_v);
                t = p.l2PortGrant(t) +
                    static_cast<Tick>(p.cfg.l2Latency) * period;
                if (!p.l2.access(u.di.addr)) {
                    u.l2Miss = true;
                    ++p.l2MissCount;
                    p.power_.access(power::Unit::Dram,
                                    p.power_.config().vMax);
                    t = p.memAccess(t) +
                        p.syncMargin(Domain::External, Domain::Memory);
                }
            }
            u.memDone = t;
        }
    }
    return true;
}

} // namespace mcd::sim
