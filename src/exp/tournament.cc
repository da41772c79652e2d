#include "exp/tournament.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"
#include "util/table.hh"
#include "util/text.hh"
#include "workload/registry.hh"
#include "workload/spec.hh"
#include "workload/split.hh"

namespace mcd::exp
{

namespace
{

/** Canonicalize @p text as a policy spec; throws SpecError (the
 *  tournament's malformed-input contract) instead of the registry's
 *  bool+err so one catchable type covers every bad cell part. */
control::PolicySpec
canonicalPolicy(const std::string &text, const char *role,
                const control::Policy **policy_out = nullptr)
{
    control::PolicySpec spec;
    std::string err;
    if (!control::parseSpec(text, spec, err))
        throw workload::SpecError(strprintf(
            "tournament %s spec '%s': %s", role, text.c_str(),
            err.c_str()));
    if (!control::PolicyRegistry::instance().canonicalize(spec, err))
        throw workload::SpecError(strprintf(
            "tournament %s spec '%s': %s", role, text.c_str(),
            err.c_str()));
    if (policy_out)
        *policy_out =
            control::PolicyRegistry::instance().find(spec.policy);
    return spec;
}

} // namespace

Tournament::Tournament(Runner &r, const TournamentConfig &cfg)
    : runner(r)
{
    if (runner.config().sim.sampling.sampled())
        throw workload::SpecError(
            "the tournament ranks feedback controllers (online, "
            "hybrid), whose decisions diverge under sampled "
            "simulation (docs/SAMPLING.md); run the tournament "
            "with --sample exact");

    oracleSpec = canonicalPolicy(cfg.oracle, "oracle").str();

    if (cfg.policies.empty()) {
        for (const control::Policy *p :
             control::PolicyRegistry::instance().list()) {
            if (!p->sweepable())
                continue;
            roster.push_back(
                canonicalPolicy(p->name(), "policy").str());
        }
    } else {
        for (const std::string &text : cfg.policies) {
            const control::Policy *p = nullptr;
            std::string canon =
                canonicalPolicy(text, "policy", &p).str();
            if (!p->sweepable())
                throw workload::SpecError(strprintf(
                    "tournament policy spec '%s': policy '%s' "
                    "cannot run single-core sweep cells",
                    text.c_str(), p->name()));
            roster.push_back(canon);
        }
    }
    // Ranking tie-break order; also collapses duplicate spellings of
    // one cell to one row.
    std::sort(roster.begin(), roster.end());
    roster.erase(std::unique(roster.begin(), roster.end()),
                 roster.end());
    if (roster.empty())
        throw workload::SpecError(
            "tournament policy roster is empty");

    const std::vector<std::string> &wl =
        cfg.workloads.empty() ? workload::tournamentWorkloads()
                              : cfg.workloads;
    for (const std::string &text : wl) {
        // Throws SpecError on a malformed workload spec.
        std::string canon = workload::canonicalWorkloadSpec(text);
        loads.push_back(canon);
        holdout.push_back(canon.rfind("gen:", 0) == 0);
    }
    if (loads.empty())
        throw workload::SpecError(
            "tournament workload list is empty");
}

std::vector<std::string>
Tournament::cellKeys() const
{
    std::vector<std::string> keys;
    control::PolicySpec oracle;
    std::string err;
    parseSpec(oracleSpec, oracle, err);
    for (const std::string &w : loads)
        keys.push_back(runner.cacheKey(w, oracle));
    for (const std::string &p : roster) {
        control::PolicySpec spec;
        parseSpec(p, spec, err);
        for (const std::string &w : loads)
            keys.push_back(runner.cacheKey(w, spec));
    }
    return keys;
}

TournamentResult
Tournament::run(unsigned jobs)
{
    // One flat sweep — oracle row first, then policy-major — so the
    // runner's pool sees every cell at once and results come back in
    // cell order at any thread count.
    std::vector<SweepCell> cells;
    for (const std::string &w : loads)
        cells.push_back(SweepCell::of(w, oracleSpec));
    for (const std::string &p : roster)
        for (const std::string &w : loads)
            cells.push_back(SweepCell::of(w, p));
    std::vector<Outcome> res = runner.runSweep(cells, jobs);

    TournamentResult out;
    out.oracle = oracleSpec;
    out.workloads = loads;
    for (bool h : holdout)
        out.holdoutCount += h ? 1u : 0u;

    const Outcome *oracleRow = res.data();
    for (std::size_t pi = 0; pi < roster.size(); ++pi) {
        TournamentRow row;
        row.policy = roster[pi];
        double holdoutSum = 0.0;
        std::size_t holdoutN = 0;
        for (std::size_t wi = 0; wi < loads.size(); ++wi) {
            const Outcome &o =
                res[(pi + 1) * loads.size() + wi];
            TournamentCell cell;
            cell.workload = loads[wi];
            cell.policy = roster[pi];
            cell.holdout = holdout[wi];
            cell.outcome = o;
            cell.regretPct =
                oracleRow[wi].metrics.energyDelayImprovementPct -
                o.metrics.energyDelayImprovementPct;
            row.meanRegretPct += cell.regretPct;
            row.meanEdGainPct +=
                o.metrics.energyDelayImprovementPct;
            row.meanSlowdownPct += o.metrics.slowdownPct;
            if (cell.holdout) {
                holdoutSum += cell.regretPct;
                ++holdoutN;
            }
            row.cells.push_back(cell);
        }
        double n = static_cast<double>(loads.size());
        row.meanRegretPct /= n;
        row.meanEdGainPct /= n;
        row.meanSlowdownPct /= n;
        row.holdoutRegretPct =
            holdoutN ? holdoutSum / static_cast<double>(holdoutN)
                     : 0.0;
        out.ranking.push_back(row);
    }

    std::stable_sort(out.ranking.begin(), out.ranking.end(),
                     [](const TournamentRow &a,
                        const TournamentRow &b) {
                         if (a.meanRegretPct != b.meanRegretPct)
                             return a.meanRegretPct <
                                    b.meanRegretPct;
                         return a.policy < b.policy;
                     });
    return out;
}

std::string
renderTournamentTable(const TournamentResult &r)
{
    std::ostringstream os;
    os << "policy tournament: regret vs " << r.oracle << " over "
       << r.workloads.size() << " workloads (" << r.holdoutCount
       << " held-out gen:)\n";
    TextTable t;
    t.header({"rank", "policy", "regret %", "holdout regret %",
              "ExD gain %", "slowdown %"});
    for (std::size_t i = 0; i < r.ranking.size(); ++i) {
        const TournamentRow &row = r.ranking[i];
        t.row({strprintf("%zu", i + 1), row.policy,
               TextTable::num(row.meanRegretPct),
               TextTable::num(row.holdoutRegretPct),
               TextTable::num(row.meanEdGainPct),
               TextTable::num(row.meanSlowdownPct)});
    }
    t.print(os);
    return os.str();
}

} // namespace mcd::exp
