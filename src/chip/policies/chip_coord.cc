/**
 * @file
 * The chip-level coordinator policy: arbitrates the shared
 * uncore/DRAM frequency of a chip::Chip from aggregated queue
 * occupancy.  Every coordinator interval the chip sums the L2-port
 * and DRAM queue wait accumulated by all tiles; when the occupancy
 * (queued time / interval) exceeds `hi` the uncore speeds up by
 * `step` of its range, below `lo` it slows down, in between it
 * holds.
 *
 * Unlike the per-tile policies this one cannot run a single-core
 * benchmark: it exists in the registry so `chip-coord:hi=...`
 * specs canonicalize, list, and cache-key exactly like every other
 * policy, but run() throws workload::SpecError with guidance.
 * chip::parseCoordSpec() is the consumer.
 */

#include "control/policy.hh"
#include "workload/spec.hh"

namespace mcd::chip
{
namespace
{

class ChipCoordPolicy final : public control::Policy
{
  public:
    const char *
    name() const override
    {
        return "chip-coord";
    }

    const char *
    description() const override
    {
        return "chip-level uncore/DRAM frequency coordinator "
               "(aggregated queue occupancy, chip runs only)";
    }

    std::vector<control::ParamInfo>
    params() const override
    {
        using control::ParamInfo;
        return {
            ParamInfo::dbl("hi", 0.25,
                           "occupancy above which the uncore speeds "
                           "up (queued ps per interval ps)",
                           0.0, 1000.0),
            ParamInfo::dbl("lo", 0.05,
                           "occupancy below which the uncore slows "
                           "down",
                           0.0, 1000.0),
            ParamInfo::dbl("step", 0.10,
                           "frequency move per decision, as a "
                           "fraction of the uncore range",
                           0.0, 1.0),
        };
    }

    bool
    relativeToBaseline() const override
    {
        return false;
    }

    bool
    sweepable() const override
    {
        // run() refuses every single-core cell; all-policy sweeps
        // (the tournament) must not pick it up.
        return false;
    }

    control::Outcome
    run(const std::string &bench, const control::PolicySpec &spec,
        const control::PolicyContext &) const override
    {
        // A spec error, not an abort: the spec can arrive on a wire
        // frame or a command line, and the server answers
        // `ERR code=bad-spec`.
        throw workload::SpecError(
            "chip-coord coordinates the shared uncore of a "
            "chip::Chip and cannot run the single-core benchmark '" +
            bench + "'; pass '" + spec.str() +
            "' as the chip coordinator (mcd_client --coord, SWEEP "
            "coord=) and pick a per-tile policy (baseline, online) "
            "for the tiles");
    }
};

} // namespace

MCD_REGISTER_POLICY(ChipCoordPolicy);

} // namespace mcd::chip
