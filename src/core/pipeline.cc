#include "core/pipeline.hh"

#include "util/logging.hh"

namespace mcd::core
{

ProfilePipeline::ProfilePipeline(const workload::Program &p,
                                 const PipelineConfig &c)
    : program(p), cfg(c)
{
}

std::shared_ptr<const TrainingArtifact>
trainArtifact(const workload::Program &program,
              const workload::InputSet &train_input,
              const PipelineConfig &cfg, const sim::SimConfig &scfg,
              const power::PowerConfig &pcfg)
{
    auto art = std::make_shared<TrainingArtifact>();
    art->mode = cfg.mode;
    art->steps = cfg.shaker.steps;

    // Phase 1: profiling run (functional), long-running selection.
    art->tree = std::make_shared<const CallTree>(
        profileProgram(program, train_input, cfg.mode, cfg.profile));

    // Phase 2: full-speed analysis simulation with event tracing.
    NodeTracker tracker(*art->tree);
    AnalysisCollector collector(shakerConfigFor(cfg.shaker, scfg, pcfg),
                                cfg.limits);
    // The shaker needs the complete per-instruction event trace of
    // the analysis window; sampled probes would leave holes in it,
    // so the analysis run is always exact.
    sim::SimConfig acfg = scfg;
    acfg.sampling = sim::SamplingConfig{};
    sim::Processor analysis(acfg, pcfg, program, train_input);
    analysis.setMarkerHandler(&tracker);
    analysis.setTraceSink(&collector);
    analysis.run(cfg.analysisWindow);
    art->nodeHists = collector.finish();
    return art;
}

void
ProfilePipeline::train(const workload::InputSet &train_input,
                       const sim::SimConfig &scfg,
                       const power::PowerConfig &pcfg)
{
    train(trainArtifact(program, train_input, cfg, scfg, pcfg));
}

void
ProfilePipeline::train(std::shared_ptr<const TrainingArtifact> artifact)
{
    if (!artifact || artifact->mode != cfg.mode)
        fatal("ProfilePipeline::train(): the training artifact is "
              "missing or was built for another context mode");
    artifact_ = std::move(artifact);

    // Phase 3: slowdown thresholding.
    ThresholdConfig tcfg;
    tcfg.slowdownPct = cfg.slowdownPct;
    tcfg.steps = artifact_->steps;
    const CallTree &tree = *artifact_->tree;
    nodeFreqs.clear();
    for (const auto &kv : artifact_->nodeHists) {
        if (kv.first != 0 && tree.node(kv.first).longRunning)
            nodeFreqs[kv.first] = chooseFrequencies(kv.second, tcfg);
    }

    // Phase 4: application editing.
    plan_ = buildPlan(tree, nodeFreqs, cfg.mode);
}

sim::RunResult
ProfilePipeline::runProduction(
    const workload::InputSet &input, const sim::SimConfig &scfg,
    const power::PowerConfig &pcfg, std::uint64_t window,
    RuntimeStats *rt_out, sim::IntervalHook *hook,
    std::uint64_t hook_interval,
    std::shared_ptr<const sim::CheckpointSet> checkpoints)
{
    if (!artifact_)
        fatal("ProfilePipeline::runProduction() before train()");
    if (hook && hook_interval == 0)
        fatal("ProfilePipeline::runProduction(): an interval hook "
              "needs a positive hook_interval (0 would silently "
              "disable it)");
    ProfileRuntime runtime(*artifact_->tree, plan_, cfg.costs);
    sim::Processor proc(scfg, pcfg, program, input);
    proc.setMarkerHandler(&runtime);
    proc.setCheckpoints(std::move(checkpoints));
    if (hook)
        proc.setIntervalHook(hook, hook_interval);
    sim::RunResult r = proc.run(window);
    if (rt_out)
        *rt_out = runtime.stats();
    return r;
}

} // namespace mcd::core
