/**
 * @file
 * The front-end clock domain component: fetch (with markers, branch
 * prediction and the I-cache), decode/dispatch into the per-domain
 * issue queues, and in-order commit from the ROB — the stage logic
 * that runs on every front-end clock edge.
 *
 * State lives on the owning Processor (the instruction window is
 * shared with the exec domains); this class is the front-end *logic*.
 */

#ifndef MCD_SIM_FRONTEND_HH
#define MCD_SIM_FRONTEND_HH

#include "sim/kernel.hh"
#include "sim/trace.hh"
#include "util/types.hh"

namespace mcd::sim
{

class Processor;

class Frontend final : public DomainComponent
{
  public:
    explicit Frontend(Processor &p) : p(p) {}

    /** One front-end edge: commit, dispatch, fetch (in that order,
     *  so a dispatch slot freed by commit is usable this cycle). */
    void tick(Tick now) override;

    /** Apply a marker action to the pipeline (stall, injected-code
     *  energy, reconfiguration register write).  Public so the
     *  sampled-mode skip replay (sim/sampling.cc) reuses the one
     *  implementation for reconfig actions. */
    void applyMarker(const MarkerAction &a, Tick now);

  private:
    void fetch(Tick now);
    void dispatch(Tick now);
    void commit(Tick now);
    bool streamFetchBlocked(Tick now);

    Processor &p;
};

} // namespace mcd::sim

#endif // MCD_SIM_FRONTEND_HH
