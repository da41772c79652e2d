// Miniature ExpConfig for mcd_lint's fixture tests.

#ifndef FIX_EXP_EXPERIMENT_HH
#define FIX_EXP_EXPERIMENT_HH

#include <cstdint>
#include <string>

#include "chip/config.hh"
#include "power/power.hh"
#include "sim/config.hh"

namespace mcd::exp
{

struct ExpConfig
{
    sim::SimConfig sim;
    power::PowerConfig power;
    chip::ChipConfig chip;
    std::uint64_t profileMaxInstrs = 4000;

    // mcd-lint: allow(fingerprint-complete): spelled into the
    // cache-key text by the policies' contextKey() fragments.
    std::uint64_t productionWindow = 150;

    // mcd-lint: allow(fingerprint-complete): names where outcomes
    // are stored, never what they are.
    std::string cacheFile;
};

std::uint64_t configFingerprint(const ExpConfig &cfg);

} // namespace mcd::exp

#endif
