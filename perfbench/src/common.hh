/**
 * @file
 * Shared pieces of the repository benchmark (`mcd_perfbench`): the
 * command line, the workload plans, timing and order statistics,
 * outcome digests, the result line, and the per-layer clock the
 * traced pass uses.
 *
 * Everything here sits outside the library: the benchmark reaches
 * the reproduction only through the public headers under src/.
 */

#ifndef MCD_PERFBENCH_COMMON_HH
#define MCD_PERFBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "control/policy.hh"
#include "exp/experiment.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny windows and one repetition: the smoke test's size. */
    bool smoke = false;
    /** The figures' windows (ExpConfig defaults) instead of the
     *  workload's own, to compare the traced layer mix with them. */
    bool fullSize = false;
    /** Set up, print one line, exit: one cold set-up for setup_s. */
    bool setupOnly = false;
};

/**
 * Deterministic 64-bit generator for every seeded choice.  It lives
 * here rather than in util/ so the seed-to-input mapping stays the
 * same when the library's own generator changes.
 */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : s(seed) {}
    std::uint64_t next();
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s;
};

/** Median, and the linearly interpolated @p q-quantile (0..1). */
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Bit-exact equality of every Outcome field. */
bool sameOutcome(const mcd::control::Outcome &a,
                 const mcd::control::Outcome &b);

/** FNV-1a over the bits of every Outcome field, in order. */
std::uint64_t digest(const std::vector<mcd::control::Outcome> &outs);

/** Time and energy finite and positive. */
bool plausible(const mcd::control::Outcome &o);

/**
 * Mean of max(0, slowdown - d), in pp, over the d-targeted cells on
 * suite programs (@p suite) or on generator programs (!@p suite).
 */
double overshootPp(const std::vector<mcd::exp::SweepCell> &cells,
                   const std::vector<mcd::control::Outcome> &outs,
                   bool suite);

/**
 * What one sweep workload runs: its harness configuration, its
 * benchmark set (fixed suite programs plus seed-drawn generator
 * specs) and its policy specs; the cells are benches x policies.
 */
struct SweepPlan
{
    mcd::exp::ExpConfig cfg;
    std::vector<std::string> benches;
    std::vector<std::string> policies;
    unsigned jobs = 4;
};

bool isWorkload(const std::string &name);
SweepPlan sweepPlan(const Options &opt);

/** Parse and canonicalize a policy spec; throws on a bad one. */
mcd::control::PolicySpec canonicalPolicy(const std::string &text);

/** Canonical cells of @p plan (benches outer, policies inner). */
std::vector<mcd::exp::SweepCell> makeCells(const SweepPlan &plan);

/** The served session's cell universe (benches x policies) at its
 *  short window, with the server pool size as `jobs`. */
SweepPlan servePlan(std::uint64_t seed, bool smoke);

/** Sweep parallelism: the host's cores, at most four. */
unsigned defaultJobs();

/** The result line: the last line the benchmark prints. */
struct Result
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** One line per failed check, printed to stderr. */
    std::vector<std::string> problems;

    void add(std::string name, double value, std::string unit);
    void fail(std::uint64_t n, const std::string &why);
    std::string json() const;
};

/**
 * Per-layer time of the traced pass: nanoseconds summed by layer
 * name.  A Scope adds to it only while `on` is set, so the same
 * replay can run untimed to measure what the timing costs.
 */
class LayerClock
{
  public:
    static LayerClock &instance();

    void add(const std::string &name, std::int64_t ns);
    /** Total time added under @p name, ms. */
    double ms(const std::string &name) const;

    std::atomic<bool> on{false};

  private:
    mutable std::mutex m;
    std::map<std::string, std::int64_t> totalNs;
};

/** RAII timer: adds its lifetime to a LayerClock name when on. */
class Scope
{
  public:
    explicit Scope(const char *name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    const char *name;
    bool on;
    Clock::time_point t0;
};

/** Per-layer numbers of the `srv` layer, from one served session. */
struct SrvLayer
{
    double rtP50Us = 0.0;
    double rtP99Us = 0.0;
    double reqPerS = 0.0;
    double pingP50Us = 0.0;
    double rowsPerS = 0.0;
    double memoHitFrac = 0.0;
    double overloads = 0.0;
    double timeouts = 0.0;
    double badRequests = 0.0;
};

/** Start a served session, run its closed loop for @p seconds, then
 *  ping it and read its STATS. */
SrvLayer probeServer(const Options &opt, double seconds, Result &res);

// Workload entry points (sweep.cc, layers.cc).
Result runSweepWorkload(const Options &opt);
/** The set-up that setup_s times: plan, cells, workloads, runner. */
void setUp(const Options &opt);
/** The traced pass of any workload: per-layer metrics only. */
Result runTraced(const Options &opt);

} // namespace perfbench

#endif // MCD_PERFBENCH_COMMON_HH
