/**
 * @file
 * Wattch-style activity-based power model (Brooks et al.), adapted to
 * per-domain voltage/frequency scaling as in the paper's modified
 * SimpleScalar/Wattch toolkit.
 *
 * Dynamic energy per unit access scales with V^2; per-cycle clock-tree
 * energy scales with V^2 and accrues on every domain clock edge (so it
 * also scales with f through elapsed cycles); leakage scales with V
 * and elapsed time.  Absolute joules are not calibrated to the Alpha
 * 21264 — all evaluation metrics are relative to the MCD baseline.
 */

#ifndef MCD_POWER_POWER_HH
#define MCD_POWER_POWER_HH

#include <array>
#include <cstdint>

#include "util/types.hh"

namespace mcd::power
{

/** Microarchitectural units with per-access energies. */
enum class Unit : std::uint8_t
{
    Icache = 0,
    Bpred,
    Rename,
    Rob,
    IssueQueue,
    RegFileInt,
    RegFileFp,
    IntAlu,
    IntMul,
    FpAlu,
    FpMul,
    Lsq,
    Dcache,
    L2,
    Dram,
    NumUnits,
};

constexpr int numUnits = static_cast<int>(Unit::NumUnits);

/** The domain a unit's activity is charged to. */
constexpr Domain
unitDomain(Unit u)
{
    switch (u) {
      case Unit::Icache:
      case Unit::Bpred:
      case Unit::Rename:
      case Unit::Rob:
        return Domain::FrontEnd;
      case Unit::IssueQueue:  // charged per owning queue via access site
      case Unit::RegFileInt:
      case Unit::IntAlu:
      case Unit::IntMul:
        return Domain::Integer;
      case Unit::RegFileFp:
      case Unit::FpAlu:
      case Unit::FpMul:
        return Domain::FloatingPoint;
      case Unit::Lsq:
      case Unit::Dcache:
      case Unit::L2:
        return Domain::Memory;
      case Unit::Dram:
        return Domain::External;
      default:
        return Domain::FrontEnd;
    }
}

/** Per-access / per-cycle energy constants (pJ at Vmax). */
struct PowerConfig
{
    std::array<double, numUnits> unitPj;
    /** Clock-tree energy per cycle per scaled domain (pJ at Vmax). */
    std::array<double, NUM_SCALED_DOMAINS> clockPj;
    /** Leakage power per scaled domain (W at Vmax). */
    std::array<double, NUM_SCALED_DOMAINS> leakW;
    Volt vMax = 1.20;
    /**
     * Relative domain power weights used to initialize shaker event
     * power factors (Section 3.2: "initial value based on the
     * relative power consumption of the corresponding clock domain").
     */
    std::array<double, NUM_SCALED_DOMAINS> domainWeight;

    PowerConfig();
};

/**
 * Accumulates energy per domain during a simulation run.
 */
class PowerModel
{
  public:
    explicit PowerModel(const PowerConfig &cfg);

    // The per-access and per-edge charges below sit on the
    // simulator's hot path, so they are defined here to inline.

    /** Charge @p n accesses of @p u at supply voltage @p v. */
    void
    access(Unit u, Volt v, int n = 1)
    {
        accessTo(u, unitDomain(u), v, n);
    }

    /**
     * Charge accesses of @p u to an explicit domain @p d (used for
     * units that exist per domain, e.g. issue queues).
     */
    void
    accessTo(Unit u, Domain d, Volt v, int n = 1)
    {
        double nj =
            cfg.unitPj[static_cast<int>(u)] * scaleV2(v) * n / 1000.0;
        unitNj[static_cast<int>(u)] += nj;
        if (d == Domain::External)
            dramNj += nj;
        else
            domainNj[domainIndex(d)] += nj;
    }

    /** Charge one clock cycle of domain @p d at voltage @p v. */
    void
    clockCycle(Domain d, Volt v)
    {
        if (d == Domain::External)
            return;
        domainNj[domainIndex(d)] +=
            cfg.clockPj[domainIndex(d)] * scaleV2(v) / 1000.0;
    }

    /**
     * Charge @p n clock cycles of domain @p d at the constant
     * voltage @p v in closed form.  Used by the simulation kernel to
     * account the clock-tree energy of fast-forwarded idle edges (a
     * parked domain never ramps, so one voltage covers the whole
     * span); identical to @p n clockCycle() calls up to
     * floating-point summation order.
     */
    void clockCycles(Domain d, Volt v, std::uint64_t n);

    /** Charge leakage of domain @p d over @p dt_ps at voltage @p v. */
    void
    leakage(Domain d, Volt v, Tick dt_ps)
    {
        if (d == Domain::External)
            return;
        // W * ps = 1e-12 J = 1e-3 nJ
        domainNj[domainIndex(d)] +=
            cfg.leakW[domainIndex(d)] * (v / cfg.vMax) *
            static_cast<double>(dt_ps) * 1e-3;
    }

    /** Charge an arbitrary extra energy (instrumentation) to @p d. */
    void extra(Domain d, double pj);

    /** Total on-chip energy (all scaled domains; excludes DRAM). */
    double chipEnergyNj() const;

    /** External DRAM energy (reported separately). */
    double dramEnergyNj() const { return dramNj; }

    /** Energy charged to one scaled domain so far. */
    double domainEnergyNj(Domain d) const;

    /** Per-unit energy totals (nJ), for breakdown reporting. */
    const std::array<double, numUnits> &unitEnergyNj() const
    {
        return unitNj;
    }

    const PowerConfig &config() const { return cfg; }

  private:
    double
    scaleV2(Volt v) const
    {
        double r = v / cfg.vMax;
        return r * r;
    }

    PowerConfig cfg;
    std::array<double, numUnits> unitNj{};
    std::array<double, NUM_SCALED_DOMAINS> domainNj{};
    double dramNj = 0.0;
};

} // namespace mcd::power

#endif // MCD_POWER_POWER_HH
