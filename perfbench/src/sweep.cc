/**
 * @file
 * The sweep workloads (`dsweep`, `headline`, `sampled`), untraced:
 * repeated cold-memo `exp::Runner::runSweep` calls over the plan's
 * cells for the requested number of seconds, with cold set-ups of
 * this program in child processes between them.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <stdexcept>

#include "common.hh"
#include "workload/suite.hh"

extern char **environ;

namespace perfbench
{

using mcd::control::Outcome;

namespace
{

/** Per-cell output checks of one repetition. */
void
checkOutcomes(const std::vector<mcd::exp::SweepCell> &cells,
              const std::vector<Outcome> &outs, Result &res)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Outcome &o = outs[i];
        if (!plausible(o))
            res.fail(1, "implausible time/energy: " + cells[i].bench +
                            " " + cells[i].spec.str());
        bool zero = o.metrics.slowdownPct == 0.0 &&
                    o.metrics.energySavingsPct == 0.0 &&
                    o.metrics.energyDelayImprovementPct == 0.0;
        if (cells[i].spec.policy == "baseline" && !zero)
            res.fail(1, "baseline metrics not zero: " + cells[i].bench);
    }
}

/** The baseline compared with itself gives exactly zero metrics. */
void
checkBaselineSelf(mcd::exp::Runner &runner,
                  const std::vector<std::string> &benches, Result &res)
{
    for (const auto &b : benches) {
        ++res.attempted;
        Outcome base =
            runner.run(b, mcd::control::PolicySpec::of("baseline"));
        mcd::Metrics m = mcd::computeMetrics(base.timePs, base.energyNj,
                                             base.timePs, base.energyNj);
        if (!plausible(base) || m.slowdownPct != 0.0 ||
            m.energySavingsPct != 0.0 ||
            m.energyDelayImprovementPct != 0.0)
            res.fail(1, "baseline vs itself not zero: " + b);
    }
}

/**
 * One cold set-up: this program started again with `--setup-only`,
 * timed from the spawn to the line it prints when set up, the point
 * where the first timed cell would start.
 */
double
coldSetUpSeconds(const Options &opt)
{
    std::vector<std::string> args = {"/proc/self/exe", "--workload",
                                     opt.workload,     "--seed",
                                     std::to_string(opt.seed),
                                     "--setup-only"};
    if (opt.smoke)
        args.push_back("--smoke");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    pid_t pid = 0;
    Clock::time_point t0 = Clock::now();
    int rc = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        throw std::runtime_error("could not start a set-up process");
    }
    char c = 0;
    bool ready = false;
    while (read(fds[0], &c, 1) == 1)
        if (c == '\n') {
            ready = true;
            break;
        }
    double s = secondsSince(t0);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!ready || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up process failed");
    return s;
}

} // namespace

void
setUp(const Options &opt)
{
    SweepPlan plan = sweepPlan(opt);
    std::vector<mcd::exp::SweepCell> cells = makeCells(plan);
    for (const auto &b : plan.benches)
        (void)mcd::workload::makeBenchmark(b);
    mcd::exp::Runner runner(plan.cfg);
}

Result
runSweepWorkload(const Options &opt)
{
    Result res;
    // setup_s is the median of cold set-ups, each a fresh process
    // (see coldSetUpSeconds), spread over the run between the
    // repetitions: set-ups bunched at one instant read the host's
    // speed at that instant only.
    std::vector<double> setups;
    auto cold_set_ups = [&](int n) {
        for (int i = 0; i < n; ++i) {
            ++res.attempted;
            try {
                setups.push_back(coldSetUpSeconds(opt));
            } catch (const std::exception &e) {
                res.fail(1, e.what());
            }
        }
    };
    SweepPlan plan = sweepPlan(opt);
    std::vector<mcd::exp::SweepCell> cells = makeCells(plan);

    const int min_reps = opt.smoke ? 1 : 3;
    std::vector<double> walls;
    std::vector<Outcome> first;
    std::uint64_t first_digest = 0;
    Clock::time_point start = Clock::now();
    while (static_cast<int>(walls.size()) < min_reps ||
           secondsSince(start) < opt.seconds) {
        cold_set_ups(opt.smoke ? 1 : 5);
        // Cold memo, no cache file: a fresh runner per repetition.
        mcd::exp::Runner runner(plan.cfg);
        res.attempted += cells.size();
        Clock::time_point t0 = Clock::now();
        std::vector<Outcome> outs;
        try {
            outs = runner.runSweep(cells, plan.jobs);
        } catch (const std::exception &e) {
            walls.push_back(secondsSince(t0));
            res.fail(cells.size(), std::string("sweep threw: ") +
                                       e.what());
            continue;
        }
        walls.push_back(secondsSince(t0));
        checkOutcomes(cells, outs, res);
        std::uint64_t h = digest(outs);
        if (first.empty()) {
            first = outs;
            first_digest = h;
            checkBaselineSelf(runner, plan.benches, res);
        } else if (h != first_digest) {
            res.fail(cells.size(), "repetition digest differs");
        }
    }
    std::fprintf(stderr,
                 "%s: %zu cells x %zu reps, digest %016llx, walls (s):",
                 opt.workload.c_str(), cells.size(), walls.size(),
                 static_cast<unsigned long long>(first_digest));
    for (double w : walls)
        std::fprintf(stderr, " %.3f", w);
    std::fprintf(stderr, "\n");

    res.add("setup_s", setups.empty() ? 0.0 : median(setups), "s");
    res.add("wall_s", median(walls), "s");
    res.add("peak_rss_mb", peakRssMb(), "MiB");
    res.add("overshoot_pp",
            first.empty() ? 0.0 : overshootPp(cells, first, true), "pp");
    return res;
}

} // namespace perfbench
