#include "power/power.hh"

namespace mcd::power
{

PowerConfig::PowerConfig()
{
    // pJ per access at Vmax; relative magnitudes follow Wattch's
    // Alpha-like model (caches and FP units dominate per access,
    // clock trees dominate per cycle).
    unitPj.fill(0.0);
    unitPj[static_cast<int>(Unit::Icache)] = 380.0;
    unitPj[static_cast<int>(Unit::Bpred)] = 120.0;
    unitPj[static_cast<int>(Unit::Rename)] = 100.0;
    unitPj[static_cast<int>(Unit::Rob)] = 80.0;
    unitPj[static_cast<int>(Unit::IssueQueue)] = 90.0;
    unitPj[static_cast<int>(Unit::RegFileInt)] = 70.0;
    unitPj[static_cast<int>(Unit::RegFileFp)] = 90.0;
    unitPj[static_cast<int>(Unit::IntAlu)] = 160.0;
    unitPj[static_cast<int>(Unit::IntMul)] = 350.0;
    unitPj[static_cast<int>(Unit::FpAlu)] = 420.0;
    unitPj[static_cast<int>(Unit::FpMul)] = 520.0;
    unitPj[static_cast<int>(Unit::Lsq)] = 110.0;
    unitPj[static_cast<int>(Unit::Dcache)] = 460.0;
    unitPj[static_cast<int>(Unit::L2)] = 1900.0;
    unitPj[static_cast<int>(Unit::Dram)] = 4200.0;

    clockPj = {230.0, 190.0, 160.0, 210.0};
    leakW = {0.05, 0.04, 0.04, 0.05};
    domainWeight = {0.30, 0.25, 0.15, 0.30};
}

PowerModel::PowerModel(const PowerConfig &c)
    : cfg(c)
{
}

void
PowerModel::extra(Domain d, double pj)
{
    if (d == Domain::External)
        dramNj += pj / 1000.0;
    else
        domainNj[domainIndex(d)] += pj / 1000.0;
}

double
PowerModel::chipEnergyNj() const
{
    double sum = 0.0;
    for (double e : domainNj)
        sum += e;
    return sum;
}

double
PowerModel::domainEnergyNj(Domain d) const
{
    if (d == Domain::External)
        return dramNj;
    return domainNj[domainIndex(d)];
}

} // namespace mcd::power
