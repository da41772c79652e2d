/**
 * @file
 * The `srv` layer probe of the traced pass: an in-process
 * `srv::SweepServer` on loopback TCP with a two-thread pool, driven
 * by two `srv::Client` connections in a closed loop.  Each client
 * sends its next SWEEP (one workload, one to three policies, drawn
 * from the seeded cell universe) only after the previous DONE.
 * Set-up starts the server and warms its memo over the whole
 * universe, so the loop measures framing, admission and ROW
 * streaming rather than the simulator.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common.hh"
#include "srv/client.hh"
#include "srv/server.hh"

namespace perfbench
{

using mcd::control::Outcome;

namespace
{

constexpr unsigned CLIENTS = 2;
constexpr unsigned POOL_THREADS = 2;

/** Bit-exact equality of the fields a ROW carries: every Outcome
 *  field but the two CI half-widths. */
bool
sameWire(Outcome a, Outcome b)
{
    a.timeCiPs = b.timeCiPs = 0.0;
    a.energyCiNj = b.energyCiNj = 0.0;
    return sameOutcome(a, b);
}

/**
 * A started server with a warm memo, plus the outcome a direct
 * `exp::Runner` gives for every universe cell (what each ROW must
 * equal).
 */
class ServeSession
{
  public:
    ServeSession(const SweepPlan &plan, Result &res) : plan(plan)
    {
        cells = makeCells(plan);
        mcd::srv::ServerConfig sc;
        sc.tcpPort = 0;
        sc.exp = plan.cfg;
        sc.exp.jobs = POOL_THREADS;
        server = std::make_unique<mcd::srv::SweepServer>(sc);
        server->start();

        direct = mcd::exp::Runner(plan.cfg).runSweep(cells, POOL_THREADS);
        for (std::size_t i = 0; i < cells.size(); ++i)
            expected[key(cells[i].bench, cells[i].spec.str())] = direct[i];

        // Warm the server's memo over the whole universe.
        mcd::srv::Client c = mcd::srv::Client::connectTcp(port());
        c.hello();
        mcd::srv::SweepReply warm = c.sweep(plan.benches, plan.policies);
        res.attempted += cells.size();
        if (warm.rows.size() != cells.size())
            res.fail(cells.size(), "warm-up row count");
        for (const auto &row : warm.rows)
            if (!rowMatches(row))
                res.fail(1, "warm-up ROW differs from Runner: " +
                                row.workload + " " + row.policy);
        c.quit();
    }

    ~ServeSession() { server->stop(); }

    ServeSession(const ServeSession &) = delete;
    ServeSession &operator=(const ServeSession &) = delete;

    std::uint16_t port() const { return server->tcpPort(); }

    /** Whether a ROW equals the direct outcome for its cell. */
    bool
    rowMatches(const mcd::srv::SweepRow &row) const
    {
        auto it = expected.find(key(row.workload, row.policy));
        return it != expected.end() && sameWire(row.outcome, it->second);
    }

    const SweepPlan plan;
    std::vector<mcd::exp::SweepCell> cells;
    /** What a direct exp::Runner returns for each cell, in order. */
    std::vector<Outcome> direct;

  private:
    static std::string
    key(const std::string &w, const std::string &p)
    {
        return w + "|" + p;
    }

    std::unique_ptr<mcd::srv::SweepServer> server;
    std::map<std::string, Outcome> expected;
};

/** What one closed-loop phase measured. */
struct LoopStats
{
    /** Round trip of each completed SWEEP, us. */
    std::vector<double> rtUs;
    std::uint64_t attempted = 0;
    std::uint64_t rows = 0;
    double seconds = 0.0;
};

/** One client's closed loop; everything it records is its own. */
void
clientLoop(const ServeSession &s, std::uint64_t seed, unsigned id,
           Clock::time_point start, double seconds, LoopStats &out,
           Result &res)
{
    SplitMix rng(seed * 0x9E3779B97F4A7C15ULL + 101 + id);
    std::vector<std::size_t> order(s.plan.policies.size());
    try {
        mcd::srv::Client c = mcd::srv::Client::connectTcp(s.port());
        c.hello();
        while (secondsSince(start) < seconds) {
            const std::string &w =
                s.plan.benches[rng.below(s.plan.benches.size())];
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            std::size_t k = 1 + rng.below(3);
            std::vector<std::string> pols;
            for (std::size_t i = 0; i < k; ++i) {
                std::size_t j = i + rng.below(order.size() - i);
                std::swap(order[i], order[j]);
                pols.push_back(s.plan.policies[order[i]]);
            }
            ++out.attempted;
            Clock::time_point t0 = Clock::now();
            try {
                mcd::srv::SweepReply r = c.sweep({w}, pols);
                out.rtUs.push_back(secondsSince(t0) * 1e6);
                out.rows += r.rows.size();
                bool ok = r.rows.size() == k;
                for (const auto &row : r.rows)
                    ok = ok && s.rowMatches(row);
                if (!ok)
                    res.fail(1, "SWEEP rows differ from Runner: " + w);
            } catch (const mcd::srv::ClientError &e) {
                // Overload, timeout and any ERR count as failed.
                res.fail(1, std::string("SWEEP error: ") + e.what());
            }
        }
        c.quit();
    } catch (const std::exception &e) {
        res.fail(1, std::string("client failed: ") + e.what());
    }
}

LoopStats
closedLoop(const ServeSession &s, std::uint64_t seed, double seconds,
           Result &res)
{
    std::vector<LoopStats> per(CLIENTS);
    std::vector<Result> errs(CLIENTS);
    std::vector<std::thread> threads;
    Clock::time_point start = Clock::now();
    for (unsigned i = 0; i < CLIENTS; ++i)
        threads.emplace_back(clientLoop, std::cref(s), seed, i, start,
                             seconds, std::ref(per[i]),
                             std::ref(errs[i]));
    for (auto &t : threads)
        t.join();
    LoopStats all;
    all.seconds = secondsSince(start);
    for (unsigned i = 0; i < CLIENTS; ++i) {
        all.rtUs.insert(all.rtUs.end(), per[i].rtUs.begin(),
                        per[i].rtUs.end());
        all.attempted += per[i].attempted;
        all.rows += per[i].rows;
        res.failed += errs[i].failed;
        res.problems.insert(res.problems.end(),
                            errs[i].problems.begin(),
                            errs[i].problems.end());
    }
    res.attempted += all.attempted;
    return all;
}

} // namespace

SweepPlan
servePlan(std::uint64_t seed, bool smoke)
{
    SweepPlan p;
    p.jobs = POOL_THREADS;
    p.benches = smoke ? std::vector<std::string>{"adpcm_decode"}
                      : std::vector<std::string>{"gsm_decode",
                                                 "adpcm_decode", "mcf"};
    SplitMix rng(seed * 0x2545F4914F6CDD1DULL + 29);
    p.benches.push_back("gen:phases=3,seed=" +
                        std::to_string(1 + rng.below(100000)));
    p.policies = {"baseline", "offline:d=10", "profile:mode=LF,d=10",
                  "online:aggr=1", "global:d=10"};
    p.cfg.productionWindow = 4'000;
    p.cfg.analysisWindow = 4'000;
    if (smoke)
        p.cfg.profileMaxInstrs = 200'000;
    p.cfg.jobs = POOL_THREADS;
    return p;
}

SrvLayer
probeServer(const Options &opt, double seconds, Result &res)
{
    SrvLayer out;
    ServeSession session(servePlan(opt.seed, opt.smoke), res);
    LoopStats loop = closedLoop(session, opt.seed, seconds, res);
    out.rtP50Us = median(loop.rtUs);
    out.rtP99Us = quantile(loop.rtUs, 0.99);
    out.reqPerS = static_cast<double>(loop.rtUs.size()) / loop.seconds;
    out.rowsPerS = static_cast<double>(loop.rows) / loop.seconds;

    mcd::srv::Client c = mcd::srv::Client::connectTcp(session.port());
    c.hello();
    std::vector<double> ping;
    for (int i = 0; i < (opt.smoke ? 50 : 2000); ++i) {
        Clock::time_point t0 = Clock::now();
        c.ping();
        ping.push_back(secondsSince(t0) * 1e6);
    }
    out.pingP50Us = median(ping);

    std::map<std::string, double> st;
    for (const auto &kv : c.stats())
        st[kv.first] = std::strtod(kv.second.c_str(), nullptr);
    c.quit();
    double lookups = st["memo_hits"] + st["memo_misses"];
    out.memoHitFrac = lookups > 0.0 ? st["memo_hits"] / lookups : 0.0;
    out.overloads = st["rejected"];
    out.timeouts = st["timeouts"];
    out.badRequests = st["bad_requests"];
    return out;
}

} // namespace perfbench
