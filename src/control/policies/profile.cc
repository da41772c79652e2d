/**
 * @file
 * The paper's contribution as a policy: the four-phase profile-driven
 * pipeline (profile the training run, shake, threshold at d, edit),
 * then an instrumented production run on the reference input.
 */

#include "control/policies/pipeline_outcome.hh"
#include "control/policy.hh"
#include "core/pipeline.hh"
#include "util/logging.hh"
#include "workload/suite.hh"

namespace mcd::control
{
namespace
{

class ProfilePolicy final : public Policy
{
  public:
    const char *
    name() const override
    {
        return "profile";
    }

    const char *
    description() const override
    {
        return "profile-driven pipeline: train on the training "
               "input, run production instrumented";
    }

    std::vector<ParamInfo>
    params() const override
    {
        return {
            ParamInfo::mode(
                "mode", core::ContextMode::LF,
                "calling-context definition (LFCP|LFP|FCP|FP|LF|F)"),
            ParamInfo::dbl(
                "d", DEFAULT_SLOWDOWN_PCT,
                "slowdown threshold, percent of baseline run time",
                0.0, 1000.0),
        };
    }

    std::string
    contextKey(const PolicyContext &ctx) const override
    {
        return strprintf("w%llu|a%llu",
                         (unsigned long long)ctx.productionWindow,
                         (unsigned long long)ctx.analysisWindow);
    }

    Outcome
    run(const std::string &bench, const PolicySpec &spec,
        const PolicyContext &ctx) const override
    {
        workload::Benchmark bm = workload::makeBenchmark(bench);
        core::ProfilePipeline pipe = trainedPipeline(bench, bm, spec, ctx);
        core::RuntimeStats rt;
        sim::RunResult r = pipe.runProduction(
            bm.ref, ctx.sim, ctx.power, ctx.productionWindow, &rt,
            nullptr, 0, checkpointsFor(ctx, bench));
        return pipelineOutcome(r, rt, pipe);
    }
};

} // namespace

MCD_REGISTER_POLICY(ProfilePolicy);

} // namespace mcd::control
