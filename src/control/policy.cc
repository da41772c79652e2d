#include "control/policy.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <locale>
#include <map>
#include <mutex>
#include <sstream>

#include "util/logging.hh"
#include "util/text.hh"

namespace mcd::control
{

Outcome
outcomeFromRun(const sim::RunResult &r)
{
    Outcome o;
    o.timePs = static_cast<double>(r.timePs);
    o.energyNj = r.chipEnergyNj;
    o.reconfigs = static_cast<double>(r.reconfigs);
    o.timeCiPs = static_cast<double>(r.timeCiPs);
    o.energyCiNj = r.energyCiNj;
    return o;
}

// ---------------------------------------------------------------- //
// Formatting / parsing helpers                                     //
// ---------------------------------------------------------------- //

const char *
compactModeName(core::ContextMode m)
{
    switch (m) {
      case core::ContextMode::LFCP: return "LFCP";
      case core::ContextMode::LFP: return "LFP";
      case core::ContextMode::FCP: return "FCP";
      case core::ContextMode::FP: return "FP";
      case core::ContextMode::LF: return "LF";
      case core::ContextMode::F: return "F";
    }
    return "?";
}

bool
parseContextMode(const std::string &text, core::ContextMode &m)
{
    // Accept the compact form case-insensitively and the printable
    // "L+F+C+P" form.
    std::string t;
    for (char c : text)
        if (c != '+')
            t.push_back(static_cast<char>(
                std::toupper(static_cast<unsigned char>(c))));
    const core::ContextMode all[] = {
        core::ContextMode::LFCP, core::ContextMode::LFP,
        core::ContextMode::FCP,  core::ContextMode::FP,
        core::ContextMode::LF,   core::ContextMode::F,
    };
    for (core::ContextMode cand : all) {
        if (t == compactModeName(cand)) {
            m = cand;
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------- //
// ParamInfo                                                        //
// ---------------------------------------------------------------- //

ParamInfo
ParamInfo::dbl(std::string name, double def, std::string help,
               double min, double max, bool integer)
{
    ParamInfo p;
    p.name = std::move(name);
    p.type = ParamType::Double;
    p.defaultDouble = def;
    p.help = std::move(help);
    p.minDouble = min;
    p.maxDouble = max;
    p.integer = integer;
    return p;
}

ParamInfo
ParamInfo::mode(std::string name, core::ContextMode def,
                std::string help)
{
    ParamInfo p;
    p.name = std::move(name);
    p.type = ParamType::Mode;
    p.defaultMode = def;
    p.help = std::move(help);
    return p;
}

// ---------------------------------------------------------------- //
// PolicySpec                                                       //
// ---------------------------------------------------------------- //

PolicySpec
PolicySpec::of(std::string policy_name)
{
    PolicySpec s;
    s.policy = std::move(policy_name);
    return s;
}

PolicySpec &
PolicySpec::set(const std::string &key, const std::string &value)
{
    auto assign = [&](Param &p) {
        p.text = value;
        // Keep the typed mirrors in sync (best effort before
        // canonicalization pins them) so a set() on an already
        // canonical spec cannot leave num()/mode() returning a
        // stale previous value.
        p.num = 0.0;
        p.mode = core::ContextMode::LF;
        util::parseDouble(value, p.num);
        parseContextMode(value, p.mode);
    };
    for (Param &p : params) {
        if (p.name == key) {
            assign(p);
            return *this;
        }
    }
    Param p;
    p.name = key;
    assign(p);
    params.push_back(std::move(p));
    return *this;
}

PolicySpec &
PolicySpec::set(const std::string &key, double value)
{
    return set(key, util::fmtFixed(value, 3));
}

PolicySpec &
PolicySpec::set(const std::string &key, core::ContextMode mode)
{
    return set(key, std::string(compactModeName(mode)));
}

std::string
PolicySpec::str() const
{
    std::string s = policy;
    for (std::size_t i = 0; i < params.size(); ++i) {
        s += i == 0 ? ':' : ',';
        s += params[i].name;
        s += '=';
        s += params[i].text;
    }
    return s;
}

const PolicySpec::Param *
PolicySpec::find(const std::string &key) const
{
    for (const Param &p : params)
        if (p.name == key)
            return &p;
    return nullptr;
}

double
PolicySpec::num(const std::string &key) const
{
    const Param *p = find(key);
    if (!p)
        panic("spec '%s' has no parameter '%s' (not canonical?)",
              str().c_str(), key.c_str());
    return p->num;
}

core::ContextMode
PolicySpec::mode(const std::string &key) const
{
    const Param *p = find(key);
    if (!p)
        panic("spec '%s' has no parameter '%s' (not canonical?)",
              str().c_str(), key.c_str());
    return p->mode;
}

bool
parseSpec(const std::string &text, PolicySpec &out, std::string &err)
{
    out = PolicySpec();
    std::vector<std::pair<std::string, std::string>> kvs;
    if (!util::splitSpec(text, "policy spec", out.policy, kvs, err))
        return false;
    for (auto &kv : kvs)
        out.set(kv.first, kv.second);
    return true;
}

// ---------------------------------------------------------------- //
// Policy                                                           //
// ---------------------------------------------------------------- //

std::string
Policy::contextKey(const PolicyContext &ctx) const
{
    return strprintf("w%llu",
                     (unsigned long long)ctx.productionWindow);
}

// ---------------------------------------------------------------- //
// PolicyRegistry                                                   //
// ---------------------------------------------------------------- //

struct PolicyRegistry::Impl
{
    mutable std::mutex m;
    std::map<std::string, std::unique_ptr<const Policy>> policies;
};

PolicyRegistry &
PolicyRegistry::instance()
{
    // Leaked singleton: policies registered from static initializers
    // must stay valid through program exit in any TU order.
    static PolicyRegistry *reg = new PolicyRegistry();
    return *reg;
}

PolicyRegistry::Impl &
PolicyRegistry::impl() const
{
    static Impl *i = new Impl();
    return *i;
}

void
PolicyRegistry::add(std::unique_ptr<const Policy> p)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> l(i.m);
    std::string name = p->name();
    if (!util::validSpecName(name))
        panic("policy name '%s' is not [a-z0-9_-]+", name.c_str());
    if (!i.policies.emplace(name, std::move(p)).second)
        panic("duplicate policy registration '%s'", name.c_str());
}

const Policy *
PolicyRegistry::find(const std::string &name) const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> l(i.m);
    auto it = i.policies.find(name);
    return it == i.policies.end() ? nullptr : it->second.get();
}

std::vector<const Policy *>
PolicyRegistry::list() const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> l(i.m);
    std::vector<const Policy *> out;
    out.reserve(i.policies.size());
    for (const auto &kv : i.policies)
        out.push_back(kv.second.get());
    // The name-sorted order is a contract, not a side effect of the
    // Impl container: `--list-policies` output, unknown-spec error
    // listings and docs pins all diff against it (see
    // tests/test_chip.cc, Registries.ListingsAreNameSorted).
    std::sort(out.begin(), out.end(),
              [](const Policy *a, const Policy *b) {
                  return std::strcmp(a->name(), b->name()) < 0;
              });
    return out;
}

bool
PolicyRegistry::canonicalize(PolicySpec &spec, std::string &err) const
{
    const Policy *p = find(spec.policy);
    if (!p) {
        err = "unknown policy '" + spec.policy + "'";
        std::vector<const Policy *> known = list();
        if (!known.empty()) {
            err += " (known:";
            for (const Policy *k : known) {
                err += ' ';
                err += k->name();
            }
            err += ')';
        }
        return false;
    }
    std::vector<ParamInfo> schema = p->params();
    for (const PolicySpec::Param &given : spec.params) {
        bool known = std::any_of(
            schema.begin(), schema.end(),
            [&](const ParamInfo &pi) { return pi.name == given.name; });
        if (!known) {
            err = "policy '" + spec.policy +
                  "' has no parameter '" + given.name + "'";
            if (!schema.empty()) {
                err += " (takes:";
                for (const ParamInfo &pi : schema) {
                    err += ' ';
                    err += pi.name;
                }
                err += ')';
            } else {
                err += " (takes none)";
            }
            return false;
        }
    }
    // Rebuild the parameter list in schema order, falling back to
    // the documented schema default for anything unset, and caching
    // the typed value next to its canonical text.
    std::vector<PolicySpec::Param> canon;
    canon.reserve(schema.size());
    for (const ParamInfo &pi : schema) {
        PolicySpec::Param out;
        out.name = pi.name;
        const PolicySpec::Param *given = spec.find(pi.name);
        switch (pi.type) {
          case ParamType::Double: {
            double v = pi.defaultDouble;
            if (given && !util::parseDouble(given->text, v)) {
                err = "policy '" + spec.policy + "' parameter '" +
                      pi.name + "': '" + given->text +
                      "' is not a number";
                return false;
            }
            // NaN fails both comparisons, so it is rejected too.
            if (!(v >= pi.minDouble && v <= pi.maxDouble)) {
                auto g = [](double x) {
                    std::ostringstream os;
                    os.imbue(std::locale::classic());
                    os << x;
                    return os.str();
                };
                err = "policy '" + spec.policy + "' parameter '" +
                      pi.name + "': " + g(v) + " is out of range [" +
                      g(pi.minDouble) + ", " + g(pi.maxDouble) + "]";
                return false;
            }
            if (pi.integer && v != std::floor(v)) {
                err = "policy '" + spec.policy + "' parameter '" +
                      pi.name + "': '" +
                      (given ? given->text : std::string()) +
                      "' must be an integer";
                return false;
            }
            // Canonical text is the 3-digit fixed form, and the
            // typed value is re-parsed from it so the cache key and
            // the computation can never disagree.
            out.text = util::fmtFixed(v, 3);
            util::parseDouble(out.text, out.num);
            break;
          }
          case ParamType::Mode: {
            core::ContextMode m = pi.defaultMode;
            if (given && !parseContextMode(given->text, m)) {
                err = "policy '" + spec.policy + "' parameter '" +
                      pi.name + "': '" + given->text +
                      "' is not a context mode "
                      "(LFCP|LFP|FCP|FP|LF|F)";
                return false;
            }
            out.mode = m;
            out.text = compactModeName(m);
            break;
          }
        }
        canon.push_back(std::move(out));
    }
    spec.params = std::move(canon);
    return true;
}

PolicyRegistrar::PolicyRegistrar(std::unique_ptr<const Policy> p)
{
    PolicyRegistry::instance().add(std::move(p));
}

std::string
describePolicies()
{
    std::ostringstream os;
    os.imbue(std::locale::classic());
    for (const Policy *p : PolicyRegistry::instance().list()) {
        os << "  " << p->name();
        for (std::size_t n = std::strlen(p->name()); n < 10; ++n)
            os << ' ';
        os << ' ' << p->description() << '\n';
        for (const ParamInfo &pi : p->params()) {
            os << "      " << pi.name << "=<"
               << (pi.type == ParamType::Mode ? "mode" : "number")
               << "> (default "
               << (pi.type == ParamType::Mode
                       ? std::string(compactModeName(pi.defaultMode))
                       : util::fmtFixed(pi.defaultDouble, 3))
               << "): " << pi.help << '\n';
        }
    }
    return os.str();
}

} // namespace mcd::control
