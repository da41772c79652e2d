/**
 * @file
 * The off-line "perfect future knowledge" baseline [30]: the shaker
 * and slowdown-thresholding algorithms applied per fixed instruction
 * interval of the *production* run itself, yielding a frequency
 * schedule that a re-run applies with no instrumentation cost.
 */

#ifndef MCD_CONTROL_OFFLINE_HH
#define MCD_CONTROL_OFFLINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/shaker.hh"
#include "core/threshold.hh"
#include "power/power.hh"
#include "sim/processor.hh"
#include "workload/program.hh"

namespace mcd::control
{

/**
 * Off-line oracle parameters.
 *
 * The controller emits a `sim::SchedulePoint` list: per-domain
 * target frequencies in MHz, keyed by simulated time in picoseconds.
 * Voltage is not a separate knob — each domain's supply follows its
 * frequency through `sim::SimConfig::voltageFor()` (the linear
 * XScale-like curve, 0.65 V / 650 mV at `minMhz` up to 1.20 V /
 * 1200 mV at `maxMhz`).
 */
struct OfflineConfig
{
    /**
     * Reconfiguration interval, in committed instructions (the paper
     * uses fixed intervals; its main results use 10,000).  Smaller
     * intervals track phase changes more closely but amplify ramp
     * overhead.
     */
    std::uint64_t intervalInstrs = 10'000;
    /**
     * Slowdown target d, in percent of baseline run time: the oracle
     * picks per-interval frequencies so the estimated run-time
     * increase stays within d%.  This is the x-axis knob of the
     * Figure 10/11 trade-off curves (paper default: 5%).
     */
    double slowdownPct = 5.0;
    /**
     * Schedule lead, in committed instructions: frequencies are
     * requested this many instructions before the interval starts,
     * hiding the DVFS ramp time — the oracle knows the future.
     */
    std::uint64_t leadInstrs = 2'000;
    /** Phase-2 slack analysis knobs (see core/shaker.hh). */
    core::ShakerConfig shaker;
    /** Phase-3 frequency selection knobs (see core/threshold.hh). */
    core::ThresholdConfig threshold;
};

/** One fixed instruction interval of the analyzed production run. */
struct OfflineInterval
{
    /** First committed instruction of the interval. */
    std::uint64_t startInstr = 0;
    /** The shaker's per-domain histograms of the interval. */
    core::NodeHistograms hist;
};

/**
 * The d-independent half of the oracle: the per-interval shaker
 * histograms of one production run.  Immutable once built, so one
 * analysis serves every threshold d on the same workload, input,
 * window, interval and machine.
 */
struct OfflineHistograms
{
    std::vector<OfflineInterval> intervals;
};

/**
 * Run the exact analysis simulation of a production run and shake
 * each fixed interval of it (cfg.intervalInstrs, cfg.shaker; never
 * cfg.slowdownPct, cfg.threshold or cfg.leadInstrs).
 *
 * The analysis run always executes in exact mode: the shaker needs
 * the complete per-instruction event trace, which sampled probes
 * cannot provide.  Only the production re-run (offlineRun) honours
 * SimConfig::sampling.
 *
 * @param cfg     oracle parameters
 * @param program workload
 * @param input   production input set
 * @param scfg    simulator configuration
 * @param pcfg    power configuration
 * @param window  instructions to analyze
 */
std::shared_ptr<const OfflineHistograms>
offlineHistograms(const OfflineConfig &cfg,
                  const workload::Program &program,
                  const workload::InputSet &input,
                  const sim::SimConfig &scfg,
                  const power::PowerConfig &pcfg, std::uint64_t window);

/**
 * The d-dependent half: threshold each interval at cfg.slowdownPct
 * and request it cfg.leadInstrs early.
 */
std::vector<sim::SchedulePoint>
offlineSchedule(const OfflineConfig &cfg, const OfflineHistograms &hists);

/**
 * Analyze a production run with future knowledge and produce the
 * frequency schedule to apply on the re-run:
 * offlineSchedule(cfg, *offlineHistograms(...)).
 */
std::vector<sim::SchedulePoint>
offlineAnalyze(const OfflineConfig &cfg,
               const workload::Program &program,
               const workload::InputSet &input,
               const sim::SimConfig &scfg,
               const power::PowerConfig &pcfg, std::uint64_t window);

/**
 * Convenience: analyze, then re-run the production input under the
 * schedule and return the result.  @p checkpoints (optional) is a
 * prebuilt sampled-mode checkpoint set for the production re-run
 * (sim/checkpoint.hh); ignored in exact mode.  @p hists (optional)
 * is a precomputed offlineHistograms() of the same run, which skips
 * the analysis.
 */
sim::RunResult
offlineRun(const OfflineConfig &cfg, const workload::Program &program,
           const workload::InputSet &input, const sim::SimConfig &scfg,
           const power::PowerConfig &pcfg, std::uint64_t window,
           std::shared_ptr<const sim::CheckpointSet> checkpoints =
               nullptr,
           std::shared_ptr<const OfflineHistograms> hists = nullptr);

} // namespace mcd::control

#endif // MCD_CONTROL_OFFLINE_HH
