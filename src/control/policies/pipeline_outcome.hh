/**
 * @file
 * Shared pieces of the policies built on the profile pipeline
 * (`profile`, `hybrid`, and any future pipeline-based policy): one
 * definition of how a spec trains the pipeline — thresholding the
 * harness's shared training artifact — and of how a production run's
 * results and the trained plan's diagnostics map onto Outcome
 * fields, so the policies cannot silently diverge.
 */

#ifndef MCD_CONTROL_POLICIES_PIPELINE_OUTCOME_HH
#define MCD_CONTROL_POLICIES_PIPELINE_OUTCOME_HH

#include "control/policy.hh"
#include "core/pipeline.hh"
#include "workload/suite.hh"

namespace mcd::control
{

/**
 * The pipeline of @p spec's `mode` and `d` on @p bm, trained from the
 * (bench, mode) training artifact: shared through the context when
 * the harness provides it, built here otherwise.
 */
inline core::ProfilePipeline
trainedPipeline(const std::string &bench, const workload::Benchmark &bm,
                const PolicySpec &spec, const PolicyContext &ctx)
{
    core::PipelineConfig pc;
    pc.mode = spec.mode("mode");
    pc.slowdownPct = spec.num("d");
    pc.profile.maxInstrs = ctx.profileMaxInstrs;
    pc.analysisWindow = ctx.analysisWindow;
    core::ProfilePipeline pipe(bm.program, pc);
    pipe.train(trainingFor(ctx, bench, pc.mode, [&] {
        return core::trainArtifact(bm.program, bm.train, pc, ctx.sim,
                                   ctx.power);
    }));
    return pipe;
}

inline Outcome
pipelineOutcome(const sim::RunResult &r, const core::RuntimeStats &rt,
                const core::ProfilePipeline &pipe)
{
    Outcome res = outcomeFromRun(r);
    res.overheadCycles = static_cast<double>(r.overheadCycles);
    res.feCycles = static_cast<double>(r.feCycles);
    res.dynReconfigPoints = static_cast<double>(rt.dynReconfigPoints);
    res.dynInstrPoints = static_cast<double>(rt.dynInstrPoints);
    res.staticReconfigPoints = pipe.plan().staticReconfigPoints;
    res.staticInstrPoints = pipe.plan().staticInstrPoints;
    res.tableBytes =
        static_cast<double>(pipe.plan().nextNodeTableBytes +
                            pipe.plan().freqTableBytes);
    return res;
}

} // namespace mcd::control

#endif // MCD_CONTROL_POLICIES_PIPELINE_OUTCOME_HH
