/**
 * @file
 * The open policy API: every reconfiguration strategy the harness
 * can run — the paper's five (baseline, profile, off-line oracle,
 * on-line attack/decay, global DVS) and any future controller — is a
 * `control::Policy` subclass registered with the `PolicyRegistry`.
 *
 * A policy is addressed by a `PolicySpec`, a parsed/printable string
 * of the form
 *
 *     name[:key=value[,key=value...]]
 *
 * e.g. `profile:mode=LFCP,d=5`, `online:aggr=1.5`, `global`.  Specs
 * canonicalize against the policy's parameter schema (unset
 * parameters take their documented schema defaults, values are
 * reformatted, parameters are put in schema order), and the
 * canonical string is the single source of truth for memo/CSV cache
 * keys, CLI selection (`--policy <spec>`) and sweep construction.
 *
 * Adding a policy is a one-file affair: subclass `Policy` in a new
 * translation unit under `src/control/policies/`, register it with
 * `MCD_REGISTER_POLICY(...)`, and list the file in
 * `src/control/CMakeLists.txt`.  No changes to `exp/` or `bench/`
 * are needed — the registry makes it selectable in every bench
 * binary and sweepable like any built-in.
 */

#ifndef MCD_CONTROL_POLICY_HH
#define MCD_CONTROL_POLICY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/calltree.hh"
#include "power/power.hh"
#include "sim/config.hh"
#include "sim/trace.hh"
#include "util/stats.hh"

namespace mcd::sim
{
class CheckpointSet;
} // namespace mcd::sim

namespace mcd::core
{
struct TrainingArtifact;
} // namespace mcd::core

namespace mcd::control
{

struct OfflineHistograms;

/**
 * Result of one policy run on one benchmark.  Raw time/energy plus
 * per-policy diagnostics; `metrics` (always relative to the MCD
 * baseline, Section 4.1) is filled in by the harness after the raw
 * outcome is computed or served from cache.
 */
struct Outcome
{
    double timePs = 0.0;
    double energyNj = 0.0;
    Metrics metrics;  ///< vs the MCD baseline
    double reconfigs = 0.0;
    double overheadCycles = 0.0;
    double feCycles = 0.0;
    // profile-policy extras
    double dynReconfigPoints = 0.0;
    double dynInstrPoints = 0.0;
    double staticReconfigPoints = 0.0;
    double staticInstrPoints = 0.0;
    double tableBytes = 0.0;
    // global-policy extras
    double globalFreq = 0.0;
    // Sampled-simulation extras (sim/sampling.hh): 95% confidence
    // half-widths of timePs/energyNj.  Both 0 in exact mode — and
    // exact/sampled cells can never swap cache lines anyway, because
    // every SamplingConfig field joins the config fingerprint.
    double timeCiPs = 0.0;
    double energyCiNj = 0.0;
};

/**
 * The Outcome fields every policy reads straight off its production
 * run: time, chip energy, reconfigurations and the two sampled-mode
 * confidence half-widths.  Policy-specific fields stay zero.
 */
Outcome outcomeFromRun(const sim::RunResult &r);

/** Types a policy parameter can take. */
enum class ParamType
{
    Double,  ///< locale-independent decimal, canonicalized to 3 digits
    Mode,    ///< a core::ContextMode (canonical: LFCP, LFP, ..., F)
};

/**
 * One entry of a policy's parameter schema: name, type, documented
 * default (the value an unset spec parameter falls back to — never
 * an implicit zero), a one-line help string for `--list-policies`,
 * and an allowed [min, max] range for Double parameters, enforced at
 * canonicalization so an out-of-range value fails at the CLI, not
 * mid-sweep.
 */
struct ParamInfo
{
    std::string name;
    ParamType type = ParamType::Double;
    double defaultDouble = 0.0;
    core::ContextMode defaultMode = core::ContextMode::LF;
    std::string help;
    double minDouble = -1e300;
    double maxDouble = 1e300;
    /** Double parameters only: reject fractional values, so values
     *  the computation would truncate to the same integer cannot
     *  canonicalize to distinct cache keys. */
    bool integer = false;

    /** Named builders — schemas read better and cannot misorder the
     *  positional fields. */
    static ParamInfo dbl(std::string name, double def,
                         std::string help, double min = -1e300,
                         double max = 1e300, bool integer = false);
    static ParamInfo mode(std::string name, core::ContextMode def,
                          std::string help);
};

/** The paper's default slowdown threshold d (percent), shared by
 *  every policy schema that takes a `d` parameter. */
constexpr double DEFAULT_SLOWDOWN_PCT = 5.0;

class Policy;

/**
 * A parsed policy selection: registry name plus key=value
 * parameters.  Build programmatically with `of()`/`set()` or from
 * text with `parseSpec()`; print with `str()`.
 *
 * A spec becomes *canonical* once validated against its policy's
 * schema (see `PolicyRegistry::canonicalize()`): every schema
 * parameter present in schema order with a canonically formatted
 * value and the typed value cached.  parse -> print -> parse of a
 * canonical spec is the identity, and the canonical string is used
 * verbatim in cache keys.
 */
struct PolicySpec
{
    /** One key=value parameter.  `num`/`mode` are the typed values,
     *  valid once the spec is canonical. */
    struct Param
    {
        std::string name;
        std::string text;
        double num = 0.0;
        core::ContextMode mode = core::ContextMode::LF;
    };

    std::string policy;
    std::vector<Param> params;

    /** Start a spec for the named policy. */
    static PolicySpec of(std::string policy_name);

    /** Set a raw textual parameter (overwrites an existing key). */
    PolicySpec &set(const std::string &key, const std::string &value);
    /** Set a numeric parameter (canonical 3-digit fixed format). */
    PolicySpec &set(const std::string &key, double value);
    /** Set a context-mode parameter (canonical compact name). */
    PolicySpec &set(const std::string &key, core::ContextMode mode);

    /** The spec as text, `name:key=value,...` (params as stored). */
    std::string str() const;

    /** Typed accessors; fatal if the key is absent or untyped (call
     *  only on canonical specs). */
    double num(const std::string &key) const;
    core::ContextMode mode(const std::string &key) const;

    /** Pointer to a parameter by name, or nullptr. */
    const Param *find(const std::string &key) const;
};

/**
 * Parse `name[:key=value,...]` into @p out (syntax only — the
 * registry does semantic validation).  On failure returns false and
 * sets @p err to a human-readable message.
 */
bool parseSpec(const std::string &text, PolicySpec &out,
               std::string &err);

/**
 * What a policy run may use: the simulator/power configurations, the
 * harness windows, and a recursive evaluator for outcomes of *other*
 * specs on the same harness (memoized, thread-safe), which is how
 * cross-policy dependencies are expressed — e.g. global DVS matches
 * the off-line oracle's run time via `evaluate(bench, offline spec)`.
 */
struct PolicyContext
{
    sim::SimConfig sim;
    power::PowerConfig power;
    /** Production-run window (instructions). */
    std::uint64_t productionWindow = 150'000;
    /** Analysis-run window for profile-style pipelines. */
    std::uint64_t analysisWindow = 150'000;
    /** Profiling cap for phase-1 functional runs. */
    std::uint64_t profileMaxInstrs = 4'000'000;
    /** Off-line oracle reconfiguration interval (instructions). */
    std::uint64_t offlineInterval = 10'000;
    /** Memoized evaluation of another (bench, spec) cell. */
    std::function<Outcome(const std::string &bench,
                          const PolicySpec &spec)>
        evaluate;
    /**
     * Sampled mode only: the harness's shared per-benchmark
     * checkpoint set for production runs at `productionWindow` (see
     * sim/checkpoint.hh — one functional walk serves every cell of a
     * sweep on the same benchmark).  Unset in exact mode; may return
     * nullptr.  Policies reach it through `checkpointsFor()`.
     */
    std::function<std::shared_ptr<const sim::CheckpointSet>(
        const std::string &bench)>
        checkpoints;

    /** Computes a value the harness may share between cells. */
    template <class V>
    using Compute = std::function<std::shared_ptr<const V>()>;

    /**
     * Compute-once sharing of the d-independent half of profile
     * training (phases 1-2, core/pipeline.hh) per (bench, context
     * mode): the hook returns the shared artifact, running
     * @p compute only for the first request.  Everything else the
     * artifact depends on (Sim/PowerConfig, analysis window,
     * profiling cap) is fixed per context.  Unset, policies compute
     * locally; they reach it through `trainingFor()`.
     */
    std::function<std::shared_ptr<const core::TrainingArtifact>(
        const std::string &bench, core::ContextMode mode,
        const Compute<core::TrainingArtifact> &compute)>
        training;

    /**
     * The same for the off-line oracle's per-interval histograms of
     * the production run (control/offline.hh), per bench at
     * `productionWindow` and `offlineInterval`.  Reached through
     * `oracleFor()`.
     */
    std::function<std::shared_ptr<const OfflineHistograms>(
        const std::string &bench,
        const Compute<OfflineHistograms> &compute)>
        oracle;
};

/** Null-safe access to PolicyContext::checkpoints. */
inline std::shared_ptr<const sim::CheckpointSet>
checkpointsFor(const PolicyContext &ctx, const std::string &bench)
{
    return ctx.checkpoints ? ctx.checkpoints(bench) : nullptr;
}

/** PolicyContext::training when set, else @p compute(). */
inline std::shared_ptr<const core::TrainingArtifact>
trainingFor(const PolicyContext &ctx, const std::string &bench,
            core::ContextMode mode,
            const PolicyContext::Compute<core::TrainingArtifact> &compute)
{
    return ctx.training ? ctx.training(bench, mode, compute)
                        : compute();
}

/** PolicyContext::oracle when set, else @p compute(). */
inline std::shared_ptr<const OfflineHistograms>
oracleFor(const PolicyContext &ctx, const std::string &bench,
          const PolicyContext::Compute<OfflineHistograms> &compute)
{
    return ctx.oracle ? ctx.oracle(bench, compute) : compute();
}

/**
 * Abstract reconfiguration policy.  Implementations are stateless
 * const singletons owned by the registry; all run state lives on the
 * stack of `run()`, which may be called concurrently from any number
 * of sweep threads.
 */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Registry name, also the spec prefix (e.g. "profile"). */
    virtual const char *name() const = 0;

    /** One-line description for `--list-policies`. */
    virtual const char *description() const = 0;

    /** Parameter schema (defaults documented per entry). */
    virtual std::vector<ParamInfo> params() const { return {}; }

    /**
     * Whether `Outcome::metrics` should be computed against the MCD
     * baseline after the raw run (everything but the baseline
     * itself).
     */
    virtual bool relativeToBaseline() const { return true; }

    /**
     * Whether the policy participates in all-policy sweeps
     * (`exp::Tournament`'s default roster).  Policies whose `run()`
     * does not model the paper's single-core production run — e.g.
     * the many-core chip coordinator — opt out; they stay fully
     * selectable by explicit spec.
     */
    virtual bool sweepable() const { return true; }

    /**
     * The harness-configuration fragment of this policy's cache key:
     * every `PolicyContext` knob (beyond Sim/PowerConfig, which are
     * fingerprinted separately) that shapes the outcome.  The default
     * covers the production window only.
     */
    virtual std::string contextKey(const PolicyContext &ctx) const;

    /**
     * Run the policy on @p bench.  @p spec is canonical (every
     * schema parameter present and typed).  Returns the raw outcome;
     * `metrics` is filled in by the harness.
     */
    virtual Outcome run(const std::string &bench,
                        const PolicySpec &spec,
                        const PolicyContext &ctx) const = 0;

    /**
     * Per-tile capability: build a fresh interval controller that
     * drives one tile of a `chip::Chip` under this policy.  Policies
     * that can run per-tile return true and fill @p hook (may stay
     * null for policies that need no callbacks, e.g. the max-speed
     * baseline) and @p interval_instrs (its firing interval; 0 with
     * a null hook).  The default is false: the chip layer rejects
     * the spec with a message naming the tile-capable policies.
     * Each call must return an independent controller — tiles do not
     * share state.
     */
    virtual bool
    makeTileController(const PolicySpec &, const PolicyContext &,
                       std::unique_ptr<sim::IntervalHook> *,
                       std::uint64_t *) const
    {
        return false;
    }
};

/**
 * Global name -> Policy table.  Policies register themselves at
 * static-initialization time via `MCD_REGISTER_POLICY`; lookups are
 * thread-safe.
 */
class PolicyRegistry
{
  public:
    static PolicyRegistry &instance();

    /** Register @p p; fatal on a duplicate name. */
    void add(std::unique_ptr<const Policy> p);

    /** The policy named @p name, or nullptr. */
    const Policy *find(const std::string &name) const;

    /** Every registered policy, sorted by name. */
    std::vector<const Policy *> list() const;

    /**
     * Validate @p spec against its policy's schema and rewrite it in
     * canonical form: unknown policy/parameter names and malformed
     * values fail (returns false, sets @p err); unset parameters
     * take their schema defaults; parameters are ordered as in the
     * schema with canonical value formatting and typed values
     * cached.
     */
    bool canonicalize(PolicySpec &spec, std::string &err) const;

  private:
    PolicyRegistry() = default;
    struct Impl;
    Impl &impl() const;
};

/** Registers a policy instance at static-initialization time. */
struct PolicyRegistrar
{
    explicit PolicyRegistrar(std::unique_ptr<const Policy> p);
};

/**
 * Place at namespace scope in a policy's translation unit.  The
 * policy objects are linked into every executable unconditionally
 * (see src/control/CMakeLists.txt), so registration cannot be
 * dead-stripped.
 */
#define MCD_REGISTER_POLICY(cls)                                     \
    static const ::mcd::control::PolicyRegistrar                     \
        mcdPolicyRegistrar_##cls { std::make_unique<cls>() }

/**
 * Human-readable listing of every registered policy — name,
 * description, and each parameter with its type and default — one
 * definition shared by `--list-policies` and the explorer example.
 */
std::string describePolicies();

/** Parse a context mode from its compact ("LFCP"), printable
 *  ("L+F+C+P") or lower-case form.  Returns false on no match. */
bool parseContextMode(const std::string &text, core::ContextMode &m);

/** Compact canonical context-mode name ("LFCP", ..., "F"). */
const char *compactModeName(core::ContextMode m);

} // namespace mcd::control

#endif // MCD_CONTROL_POLICY_HH
