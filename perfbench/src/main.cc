/**
 * @file
 * `mcd_perfbench` — the repository benchmark.
 *
 *   mcd_perfbench --workload dsweep|headline|sampled
 *                 --seed N --seconds S --trace 0|1
 *                 [--smoke] [--full-size] [--setup-only]
 *
 * With `--trace 0` it runs the workload for S seconds and reports
 * the end-to-end metrics; with `--trace 1` it runs the traced pass
 * and reports the per-layer metrics.  `--full-size` runs at the
 * figures' windows; `--setup-only` only sets up, prints `ready` and
 * exits (the untraced run starts itself this way to time set-up).  Failed checks are listed on
 * stderr; the last line on stdout is the JSON result
 * (perfbench/README.md describes every metric).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hh"

namespace
{

[[noreturn]] void
usage(const char *argv0, const char *why)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload dsweep|headline|sampled "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--full-size] [--setup-only]\n",
                 argv0, why, argv0);
    std::exit(2);
}

double
number(const char *argv0, const char *text)
{
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 0.0))
        usage(argv0, "expected a non-negative number");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0], "missing value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            opt.workload = value();
        else if (!std::strcmp(argv[i], "--seed"))
            opt.seed = static_cast<std::uint64_t>(number(argv[0], value()));
        else if (!std::strcmp(argv[i], "--seconds"))
            opt.seconds = number(argv[0], value());
        else if (!std::strcmp(argv[i], "--trace"))
            opt.trace = number(argv[0], value()) != 0.0;
        else if (!std::strcmp(argv[i], "--smoke"))
            opt.smoke = true;
        else if (!std::strcmp(argv[i], "--full-size"))
            opt.fullSize = true;
        else if (!std::strcmp(argv[i], "--setup-only"))
            opt.setupOnly = true;
        else
            usage(argv[0], "unknown argument");
    }
    if (!perfbench::isWorkload(opt.workload))
        usage(argv[0], "unknown workload");

    perfbench::Result res;
    try {
        if (opt.setupOnly) {
            perfbench::setUp(opt);
            std::printf("ready\n");
            std::fflush(stdout);
            return 0;
        }
        res = opt.trace ? perfbench::runTraced(opt)
                        : perfbench::runSweepWorkload(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mcd_perfbench: %s\n", e.what());
        return 1;
    }
    for (const auto &p : res.problems)
        std::fprintf(stderr, "FAILED: %s\n", p.c_str());
    std::printf("%s\n", res.json().c_str());
    return 0;
}
