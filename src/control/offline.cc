#include "control/offline.hh"

namespace mcd::control
{

namespace
{

/** Slices the trace into fixed instruction intervals and shakes
 *  each one. */
class IntervalCollector : public sim::TraceSink
{
  public:
    IntervalCollector(const core::ShakerConfig &shaker_cfg,
                      std::uint64_t interval_instrs)
        : analyzer(shaker_cfg), interval(interval_instrs)
    {
    }

    void
    onInstr(const sim::InstrTiming &t) override
    {
        segment.push_back(t);
        if (segment.size() >= interval)
            flush();
    }

    void
    flush()
    {
        if (segment.empty())
            return;
        OfflineInterval iv;
        iv.startInstr = startInstr;
        analyzer.analyze(segment, iv.hist);
        out.intervals.push_back(std::move(iv));
        startInstr += segment.size();
        segment.clear();
    }

    OfflineHistograms out;

  private:
    core::SegmentAnalyzer analyzer;
    std::uint64_t interval;
    std::uint64_t startInstr = 0;
    std::vector<sim::InstrTiming> segment;
};

} // namespace

std::shared_ptr<const OfflineHistograms>
offlineHistograms(const OfflineConfig &cfg,
                  const workload::Program &program,
                  const workload::InputSet &input,
                  const sim::SimConfig &scfg,
                  const power::PowerConfig &pcfg, std::uint64_t window)
{
    IntervalCollector collector(
        core::shakerConfigFor(cfg.shaker, scfg, pcfg),
        cfg.intervalInstrs);
    // The shaker consumes every committed instruction's timing
    // record; sampled probes would leave holes in the dependence
    // DAG, so the analysis run is always exact.
    sim::SimConfig acfg = scfg;
    acfg.sampling = sim::SamplingConfig{};
    sim::Processor analysis(acfg, pcfg, program, input);
    analysis.setTraceSink(&collector);
    analysis.run(window);
    collector.flush();
    return std::make_shared<const OfflineHistograms>(
        std::move(collector.out));
}

std::vector<sim::SchedulePoint>
offlineSchedule(const OfflineConfig &cfg, const OfflineHistograms &hists)
{
    core::ThresholdConfig tcfg = cfg.threshold;
    tcfg.slowdownPct = cfg.slowdownPct;
    std::vector<sim::SchedulePoint> sched;
    sched.reserve(hists.intervals.size());
    for (const OfflineInterval &iv : hists.intervals) {
        sim::SchedulePoint pt;
        // Apply each interval's setting slightly early: the oracle
        // knows the future and hides the ramp.
        pt.atInstr = iv.startInstr > cfg.leadInstrs
                         ? iv.startInstr - cfg.leadInstrs
                         : 0;
        pt.freqs = core::chooseFrequencies(iv.hist, tcfg);
        sched.push_back(pt);
    }
    return sched;
}

std::vector<sim::SchedulePoint>
offlineAnalyze(const OfflineConfig &cfg,
               const workload::Program &program,
               const workload::InputSet &input,
               const sim::SimConfig &scfg,
               const power::PowerConfig &pcfg, std::uint64_t window)
{
    return offlineSchedule(
        cfg, *offlineHistograms(cfg, program, input, scfg, pcfg, window));
}

sim::RunResult
offlineRun(const OfflineConfig &cfg, const workload::Program &program,
           const workload::InputSet &input, const sim::SimConfig &scfg,
           const power::PowerConfig &pcfg, std::uint64_t window,
           std::shared_ptr<const sim::CheckpointSet> checkpoints,
           std::shared_ptr<const OfflineHistograms> hists)
{
    if (!hists)
        hists = offlineHistograms(cfg, program, input, scfg, pcfg,
                                  window);
    sim::Processor proc(scfg, pcfg, program, input);
    proc.setSchedule(offlineSchedule(cfg, *hists));
    proc.setCheckpoints(std::move(checkpoints));
    return proc.run(window);
}

} // namespace mcd::control
