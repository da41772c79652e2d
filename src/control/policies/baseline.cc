/**
 * @file
 * The MCD baseline policy: all domains at maximum frequency.  Every
 * other policy's metrics are computed relative to this run
 * (Section 4.1).
 */

#include "control/policy.hh"
#include "sim/processor.hh"
#include "workload/suite.hh"

namespace mcd::control
{
namespace
{

class BaselinePolicy final : public Policy
{
  public:
    const char *
    name() const override
    {
        return "baseline";
    }

    const char *
    description() const override
    {
        return "MCD baseline, all domains at maximum frequency";
    }

    bool
    relativeToBaseline() const override
    {
        return false;
    }

    Outcome
    run(const std::string &bench, const PolicySpec &,
        const PolicyContext &ctx) const override
    {
        workload::Benchmark bm = workload::makeBenchmark(bench);
        sim::Processor proc(ctx.sim, ctx.power, bm.program, bm.ref);
        proc.setCheckpoints(checkpointsFor(ctx, bench));
        Outcome o = outcomeFromRun(proc.run(ctx.productionWindow));
        // All domains stay at maximum speed: nothing to count.
        o.reconfigs = 0.0;
        return o;
    }

    bool
    makeTileController(const PolicySpec &, const PolicyContext &,
                       std::unique_ptr<sim::IntervalHook> *hook,
                       std::uint64_t *interval_instrs) const override
    {
        // Max speed needs no callbacks: a tile with no hook runs all
        // domains at the initial (maximum) frequency.
        hook->reset();
        *interval_instrs = 0;
        return true;
    }
};

} // namespace

MCD_REGISTER_POLICY(BaselinePolicy);

} // namespace mcd::control
