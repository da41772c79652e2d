/**
 * @file
 * Google-benchmark microbenchmarks of the infrastructure itself:
 * workload stream generation, cycle-level simulation (exact,
 * sampled and checkpointed), call-tree profiling and shaker analysis
 * throughput.
 *
 * Beyond the standard Google Benchmark flags, `--json FILE` writes a
 * machine-readable summary ({name, wall_ms, iterations, mode,
 * sample} per benchmark) for the CI perf-trajectory artifact
 * (BENCH_sim.json), `--workload SPEC` (any registry spec: suite
 * name, gen:..., @file) re-points every workload-driven
 * microbenchmark at that workload instead of its default, and
 * `--sample SPEC` (sim::parseSamplingSpec grammar, see
 * docs/SAMPLING.md) re-points the sampled-mode microbenchmarks at
 * that geometry instead of the default sampled configuration.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <locale>
#include <string>
#include <vector>

#include "common.hh"
#include "core/profiler.hh"
#include "core/shaker.hh"
#include "exp/experiment.hh"
#include "sim/checkpoint.hh"
#include "sim/processor.hh"
#include "sim/sampling.hh"
#include "workload/stream.hh"
#include "workload/suite.hh"

using namespace mcd;

namespace
{

/** --workload override; empty = each benchmark's default. */
std::string g_workload_override;

/** The geometry the sampled-mode microbenchmarks run under: the
 *  default sampled configuration, or the --sample override. */
sim::SamplingConfig g_sample_cfg = [] {
    sim::SamplingConfig c;
    c.mode = sim::SamplingMode::Sampled;
    return c;
}();

/** The sampling configuration benchmark @p name ran under (exact for
 *  everything but the sampled-mode microbenchmarks). */
sim::SamplingConfig
samplingFor(const std::string &name)
{
    if (name.rfind("BM_CycleSimulationSampled", 0) == 0 ||
        name.rfind("BM_CycleSimulationCheckpointed", 0) == 0)
        return g_sample_cfg;
    return sim::SamplingConfig{};
}

/** The workload a microbenchmark runs: the --workload override when
 *  given, @p dflt otherwise. */
workload::Benchmark
benchFor(const char *dflt)
{
    return workload::makeBenchmark(g_workload_override.empty()
                                       ? dflt
                                       : g_workload_override);
}

void
BM_StreamGeneration(benchmark::State &state)
{
    workload::Benchmark bm = benchFor("gsm_decode");
    for (auto _ : state) {
        workload::Stream s(bm.program, bm.train);
        workload::StreamItem item;
        std::uint64_t n = 0;
        while (n < 50'000 && s.next(item))
            n += item.kind == workload::StreamItem::Kind::Instr;
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 50'000);
}
BENCHMARK(BM_StreamGeneration)->Unit(benchmark::kMillisecond);

void
BM_CycleSimulation(benchmark::State &state)
{
    workload::Benchmark bm = benchFor("gsm_decode");
    sim::SimConfig scfg;
    power::PowerConfig pcfg;
    for (auto _ : state) {
        sim::Processor proc(scfg, pcfg, bm.program, bm.train);
        auto r = proc.run(30'000);
        benchmark::DoNotOptimize(r.timePs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 30'000);
}
BENCHMARK(BM_CycleSimulation)->Unit(benchmark::kMillisecond);

void
BM_CycleSimulationSampled(benchmark::State &state)
{
    // BM_CycleSimulation's run in sampled mode with an inline
    // functional walk (no checkpoint set): the gap to the exact
    // benchmark is the single-cell speedup, where the walk is paid
    // inside every run.
    workload::Benchmark bm = benchFor("gsm_decode");
    sim::SimConfig scfg;
    scfg.sampling = g_sample_cfg;
    power::PowerConfig pcfg;
    for (auto _ : state) {
        sim::Processor proc(scfg, pcfg, bm.program, bm.train);
        auto r = proc.run(30'000);
        benchmark::DoNotOptimize(r.timePs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 30'000);
}
BENCHMARK(BM_CycleSimulationSampled)->Unit(benchmark::kMillisecond);

void
BM_CycleSimulationCheckpointed(benchmark::State &state)
{
    // The sweep-engine shape: the checkpoint set is built once
    // outside the timed region (runSweep shares it across every cell
    // of a benchmark), so the timed body is the detailed probes plus
    // the skip-span replay alone.  This wall time over
    // BM_CycleSimulation's is the per-cell speedup the CI gate
    // checks (tools/check_sampling.py speedup).
    auto bm = std::make_shared<workload::Benchmark>(
        benchFor("gsm_decode"));
    sim::SimConfig scfg;
    scfg.sampling = g_sample_cfg;
    power::PowerConfig pcfg;
    std::shared_ptr<const sim::CheckpointSet> cps;
    if (scfg.sampling.sampled()) {
        std::shared_ptr<const workload::Program> prog(bm,
                                                      &bm->program);
        cps = sim::CheckpointSet::build(prog, bm->train, scfg,
                                        30'000);
    }
    for (auto _ : state) {
        sim::Processor proc(scfg, pcfg, bm->program, bm->train);
        proc.setCheckpoints(cps);
        auto r = proc.run(30'000);
        benchmark::DoNotOptimize(r.timePs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 30'000);
}
BENCHMARK(BM_CycleSimulationCheckpointed)
    ->Unit(benchmark::kMillisecond);

void
BM_Profiling(benchmark::State &state)
{
    workload::Benchmark bm = benchFor("gzip");
    for (auto _ : state) {
        core::ProfileConfig cfg;
        cfg.maxInstrs = 100'000;
        auto tree = core::profileProgram(bm.program, bm.train,
                                         core::ContextMode::LFCP, cfg);
        benchmark::DoNotOptimize(tree.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 100'000);
}
BENCHMARK(BM_Profiling)->Unit(benchmark::kMillisecond);

void
BM_ShakerAnalysis(benchmark::State &state)
{
    // Build a realistic trace segment once, then time the shaker.
    workload::Benchmark bm = benchFor("gsm_decode");
    sim::SimConfig scfg;
    power::PowerConfig pcfg;
    struct Collect : sim::TraceSink
    {
        std::vector<sim::InstrTiming> items;
        void onInstr(const sim::InstrTiming &t) override
        {
            items.push_back(t);
        }
    } collect;
    sim::Processor proc(scfg, pcfg, bm.program, bm.train);
    proc.setTraceSink(&collect);
    proc.run(10'000);

    core::ShakerConfig cfg;
    core::SegmentAnalyzer analyzer(cfg);
    for (auto _ : state) {
        core::NodeHistograms out;
        analyzer.analyze(collect.items, out);
        benchmark::DoNotOptimize(out.spanPs);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(collect.items.size()));
}
BENCHMARK(BM_ShakerAnalysis)->Unit(benchmark::kMillisecond);

void
BM_SweepEngine(benchmark::State &state)
{
    // The figure-sweep engine end to end: every {benchmark, policy}
    // cell of a small headline-style sweep runs as one job on the
    // work-stealing pool.  The argument is the --jobs thread count;
    // wall-clock time (UseRealTime) is what parallelism improves.
    const char *const benches[] = {"gsm_decode", "adpcm_encode",
                                   "mcf", "gzip"};
    std::vector<exp::SweepCell> cells;
    for (const char *b : benches) {
        cells.push_back(exp::SweepCell::of(b, "baseline"));
        cells.push_back(exp::SweepCell::of(b, "offline:d=10"));
        cells.push_back(exp::SweepCell::of(b, "online:aggr=1"));
    }
    unsigned jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        // A fresh in-memory Runner per iteration so every cell is
        // recomputed rather than served from the memo.
        exp::ExpConfig cfg;
        cfg.productionWindow = 20'000;
        cfg.analysisWindow = 20'000;
        exp::Runner runner(cfg);
        auto out = runner.runSweep(cells, jobs);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_SweepEngine)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Console reporter that additionally records every non-aggregate run
 * and, at exit, writes the machine-readable summary for --json.
 */
class JsonTeeReporter : public benchmark::ConsoleReporter
{
  public:
    explicit JsonTeeReporter(std::string path) : path(std::move(path))
    {
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            if (r.run_type == Run::RT_Aggregate)
                continue;
            Row row;
            row.name = r.benchmark_name();
            row.wallMs = r.iterations
                             ? r.real_accumulated_time /
                                   static_cast<double>(r.iterations) *
                                   1e3
                             : 0.0;
            row.iterations = r.iterations;
            sim::SamplingConfig sp = samplingFor(row.name);
            row.mode = sp.sampled() ? "sampled" : "exact";
            row.sample = sim::canonicalSamplingSpec(sp);
            rows.push_back(std::move(row));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    void
    Finalize() override
    {
        ConsoleReporter::Finalize();
        std::ofstream out;
        out.imbue(std::locale::classic());
        out.open(path);
        if (!out) {
            std::fprintf(stderr,
                         "bench_throughput: cannot write '%s'\n",
                         path.c_str());
            return;
        }
        out.precision(6);
        out << "{\n  \"benchmarks\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            out << "    {\"name\": \"" << rows[i].name
                << "\", \"wall_ms\": " << std::fixed
                << rows[i].wallMs << std::defaultfloat
                << ", \"iterations\": " << rows[i].iterations
                << ", \"mode\": \"" << rows[i].mode
                << "\", \"sample\": \"" << rows[i].sample << "\"}"
                << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }

  private:
    struct Row
    {
        std::string name;
        double wallMs = 0.0;
        std::int64_t iterations = 0;
        std::string mode;    ///< "exact" | "sampled"
        std::string sample;  ///< canonical --sample spec
    };
    std::string path;
    std::vector<Row> rows;
};

} // namespace

int
main(int argc, char **argv)
{
    // Peel off --json FILE, --workload SPEC and --sample SPEC
    // before Google Benchmark sees the args (it hard-errors on flags
    // it does not know).
    std::string json_path;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json")) {
            // A trailing --json used to fall through to Google
            // Benchmark (which rejects it with its own error) —
            // hard-error here like every other flag instead.
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --json needs a value\n",
                             argv[0]);
                return 1;
            }
            json_path = argv[++i];
            continue;
        }
        if (!std::strcmp(argv[i], "--workload")) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: --workload needs a value\n",
                             argv[0]);
                return 1;
            }
            try {
                g_workload_override =
                    bench::resolveWorkloadArg(argv[++i]);
            } catch (const workload::SpecError &e) {
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             e.what());
                return 1;
            }
            continue;
        }
        if (!std::strcmp(argv[i], "--sample")) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --sample needs a value\n",
                             argv[0]);
                return 1;
            }
            try {
                g_sample_cfg = sim::parseSamplingSpec(argv[++i]);
            } catch (const workload::SpecError &e) {
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             e.what());
                return 1;
            }
            continue;
        }
        args.push_back(argv[i]);
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    if (json_path.empty()) {
        benchmark::RunSpecifiedBenchmarks();
    } else {
        JsonTeeReporter reporter(std::move(json_path));
        benchmark::RunSpecifiedBenchmarks(&reporter);
    }
    return 0;
}
