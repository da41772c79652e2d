/**
 * @file
 * Registers the 19 suite benchmarks (the Table 2 MediaBench/SPEC
 * stand-ins built in workload/suite.cc) with the WorkloadRegistry,
 * one parameterless factory per name, so a bare suite name is a
 * valid workload spec everywhere (`--workload gzip`, sweep cells,
 * cache keys).
 */

#include "workload/registry.hh"

namespace mcd::workload
{
namespace
{

class SuiteWorkload final : public WorkloadFactory
{
  public:
    explicit SuiteWorkload(const detail::SuiteEntry &entry) : e(entry)
    {
    }

    const char *
    name() const override
    {
        return e.name;
    }

    const char *
    description() const override
    {
        return e.description;
    }

    Benchmark
    make(const WorkloadSpec &) const override
    {
        return e.make();
    }

  private:
    detail::SuiteEntry e;
};

/** One registrar covering the whole suite (the per-class
 *  MCD_REGISTER_WORKLOAD macro registers one factory; the suite is
 *  a family of 19 sharing one implementation). */
// mcd-lint: allow-file(registration): the SuiteRegistrar below
// registers all 19 factories from one static object; the file is in
// the mcd_workloads OBJECT library, so the registrar is never
// dropped.
struct SuiteRegistrar
{
    SuiteRegistrar()
    {
        for (const detail::SuiteEntry &e : detail::suiteTable())
            WorkloadRegistry::instance().add(
                std::make_unique<SuiteWorkload>(e));
    }
};

const SuiteRegistrar mcdSuiteWorkloadRegistrar;

} // namespace
} // namespace mcd::workload
