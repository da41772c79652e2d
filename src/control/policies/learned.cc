/**
 * @file
 * The learned policy: train a per-domain linear regressor/bandit on
 * the *training* input through seeded exploration runs
 * (control/learned.hh), freeze the model, and let it predict
 * per-domain frequencies on the production run.
 *
 * The training regime (window, passes) comes from the harness
 * (`PolicyContext::learned`, fingerprinted under `ln`); the per-run
 * knobs (seed, learning rate, exploration probability, control
 * interval) live in the spec and therefore in the cache key.  Same
 * seed, same spec, same harness => bit-identical weights and a
 * bit-identical production run.
 *
 * Like the other feedback controllers (docs/SAMPLING.md) the learned
 * controller closes its loop through measured per-interval IPC, so
 * sampled production runs would diverge from exact ones in *decision*
 * space, not just measurement; run() refuses sampled mode with a
 * catchable SpecError instead of returning a silently wrong number.
 */

#include "control/learned.hh"
#include "control/policy.hh"
#include "sim/processor.hh"
#include "workload/spec.hh"
#include "workload/suite.hh"

namespace mcd::control
{
namespace
{

class LearnedPolicy final : public Policy
{
  public:
    static LearnedParams
    paramsFor(const PolicySpec &spec)
    {
        LearnedParams lp;
        lp.seed = static_cast<std::uint64_t>(spec.num("seed"));
        lp.lr = spec.num("lr");
        lp.explore = spec.num("explore");
        lp.intervalInstrs =
            static_cast<std::uint64_t>(spec.num("interval"));
        return lp;
    }

    const char *
    name() const override
    {
        return "learned";
    }

    const char *
    description() const override
    {
        return "per-domain linear regressor/bandit trained on "
               "interval stats from the training input, frozen for "
               "production";
    }

    std::vector<ParamInfo>
    params() const override
    {
        return {
            ParamInfo::dbl("seed", 1.0,
                           "exploration RNG seed (training is a pure "
                           "function of it)",
                           0.0, 1e12, true),
            ParamInfo::dbl("lr", 0.08,
                           "SGD learning rate for the per-domain "
                           "regressors",
                           1e-6, 10.0),
            ParamInfo::dbl("explore", 0.25,
                           "probability a training interval explores "
                           "a random frequency instead of exploiting "
                           "the model",
                           0.0, 1.0),
            ParamInfo::dbl("interval", 2000.0,
                           "control interval (instructions) for both "
                           "training and production",
                           1.0, 1e12, true),
        };
    }

    Outcome
    run(const std::string &bench, const PolicySpec &spec,
        const PolicyContext &ctx) const override
    {
        if (ctx.sim.sampling.sampled())
            throw workload::SpecError(
                "the learned policy is a feedback controller and "
                "does not support sampled simulation (see "
                "docs/SAMPLING.md); run learned cells with "
                "--sample exact");

        workload::Benchmark bm = workload::makeBenchmark(bench);
        LearnedParams lp = paramsFor(spec);
        LearnedModel model = trainLearnedModel(
            bm.program, bm.train, ctx.sim, ctx.power, ctx.learned,
            lp);

        LearnedController ctl(model, ctx.sim);
        sim::Processor proc(ctx.sim, ctx.power, bm.program, bm.ref);
        proc.setIntervalHook(&ctl, lp.intervalInstrs);
        Outcome res = outcomeFromRun(proc.run(ctx.productionWindow));
        res.tableBytes = static_cast<double>(sizeof(model.w));
        return res;
    }

    // No contextKey override: the training regime (trainWindow,
    // trainPasses) joins the cache key through the experiment
    // fingerprint (prefix `ln`, CACHE_VERSION v9), and the default
    // key already covers the production window.
};

} // namespace

MCD_REGISTER_POLICY(LearnedPolicy);

} // namespace mcd::control
