/**
 * @file
 * The cycle-level MCD out-of-order processor model.
 *
 * Four on-chip clock domains (front end, integer, floating point,
 * memory) tick on independent jittered clocks; values crossing domain
 * boundaries pay the Sjogren-Myers synchronization cost (one extra
 * consumer cycle when produced within the synchronization window of
 * the consuming edge).  Main memory is external and always full
 * speed.  The microarchitecture follows Table 1 of the paper:
 * 4-wide fetch/dispatch, 80-entry ROB, 20/15/64-entry issue queues,
 * 72+72 physical registers, combined bimodal+PAg branch prediction,
 * 64KB 2-way L1s, 1MB direct-mapped L2.
 *
 * The Processor itself is a facade: it owns the shared pipeline
 * state (instruction window, rename resources, caches, power model)
 * and the public run/control surface, while the per-edge stage logic
 * lives in the per-domain components (Frontend, ExecDomain) and the
 * edge scheduling in the Kernel (see sim/kernel.hh).
 */

#ifndef MCD_SIM_PROCESSOR_HH
#define MCD_SIM_PROCESSOR_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "power/power.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/clock.hh"
#include "sim/config.hh"
#include "sim/exec_domain.hh"
#include "sim/frontend.hh"
#include "sim/kernel.hh"
#include "sim/ring.hh"
#include "sim/trace.hh"
#include "workload/program.hh"
#include "workload/stream.hh"

namespace mcd::sim
{

class CheckpointSet;
class FuncState;

/**
 * Chip-level shared memory side.  When installed (by the chip layer,
 * src/chip/), a core's L2 lookups first win the shared L2 port and
 * its L2 misses go through the shared DRAM queue, so co-scheduled
 * cores contend for both.  When not installed — the default, and
 * always for a single core — the core owns its memory side privately
 * and the timing below is byte-identical to the pre-chip simulator.
 */
class SharedMemSide
{
  public:
    virtual ~SharedMemSide() = default;

    /**
     * Arbitrate the shared L2 port for @p tile's lookup arriving at
     * @p t; returns the grant time (>= t) at which the lookup starts.
     */
    virtual Tick l2PortGrant(int tile, Tick t) = 0;

    /**
     * Enqueue a DRAM request from @p tile at time @p t; returns the
     * data-return time.
     */
    virtual Tick dramAccess(int tile, Tick t) = 0;
};

/** In-flight instruction state (one ROB entry). */
struct Uop
{
    workload::DynInstr di;
    std::uint64_t seq = 0;
    std::uint32_t node = 0;
    Domain domain = Domain::Integer;
    bool inIq = false;
    bool issued = false;
    bool completed = false;   ///< result available (execDone set)
    bool isLoad = false;
    bool isStore = false;
    bool l1Miss = false;
    bool l2Miss = false;
    bool mispredicted = false;
    std::uint64_t depSeq1 = 0;
    std::uint64_t depSeq2 = 0;
    /** Edge count in the exec domain at which the result is
     *  available; used for exact same-domain back-to-back timing
     *  (jittered edge times make period arithmetic inexact). */
    std::uint64_t execDoneEdge = 0;
    Tick fetchTime = 0;
    Tick dispatchTime = 0;
    Tick issueTime = 0;
    Tick execDone = 0;   ///< FU done (loads: address generation)
    Tick memStart = 0;
    Tick memDone = 0;    ///< loads: data return time
};

/**
 * Processor facade: constructs the microarchitecture, runs a
 * workload stream under optional observation/control hooks, and
 * reports time and energy.
 */
class Processor : public DvfsControl
{
  public:
    /**
     * @param cfg     architectural configuration
     * @param pcfg    power model configuration
     * @param program workload to execute (must outlive the processor)
     * @param input   input set for the workload
     */
    Processor(const SimConfig &cfg, const power::PowerConfig &pcfg,
              const workload::Program &program,
              const workload::InputSet &input);

    /** Install the marker handler (profile runtime / tree builder). */
    void setMarkerHandler(MarkerHandler *h) { markerHandler = h; }

    /** Install a sink for committed-instruction timing records. */
    void setTraceSink(TraceSink *s) { traceSink = s; }

    /** Install an interval controller fired every @p instrs commits. */
    void setIntervalHook(IntervalHook *h, std::uint64_t instrs);

    /** Install a precomputed frequency schedule (sorted by atInstr). */
    void setSchedule(std::vector<SchedulePoint> sched);

    /** Set initial frequencies (applied instantly, before cycle 0). */
    void setInitialFreqs(const FreqSet &freqs);

    /**
     * Install a prebuilt checkpoint set for sampled runs (see
     * sim/checkpoint.hh).  Used only when SimConfig::sampling is in
     * sampled mode and the set matches its geometry and the run
     * window; otherwise the sampler walks the functional state
     * inline.  Must be called before the run starts; the set is
     * retained for the processor's lifetime.
     */
    void
    setCheckpoints(std::shared_ptr<const CheckpointSet> set)
    {
        checkpoints_ = std::move(set);
    }

    /**
     * Run until @p max_instrs instructions commit (or the program
     * ends), then drain the pipeline.  In sampled mode @p max_instrs
     * counts *virtual* instructions (detailed + functionally
     * skipped) and the result carries CI fields (RunResult::sampled).
     */
    RunResult run(std::uint64_t max_instrs);

    // --- step-wise run surface ---
    //
    // run() is exactly beginRun(n); while (!runDone()) stepEdge();
    // finishRun().  The chip layer drives several cores through
    // these calls in global time order, so one core under a chip
    // executes the same code path as run() — the N=1 equivalence is
    // structural, not maintained in parallel.

    /** Arm a run: set the commit budget and reset the watchdog. */
    void beginRun(std::uint64_t max_instrs);

    /** Stop condition: fetch exhausted and the pipeline drained. */
    bool
    runDone() const
    {
        bool fetch_exhausted =
            streamEnded || fetchedInstrs >= maxInstrs_;
        return fetch_exhausted && rob.empty() && fetchQueue.empty();
    }

    /** Time of this core's next edge (never consumes it). */
    Tick nextEventTime() { return kernel.peekNextTime(); }

    /** Process exactly one edge, then run the watchdog check. */
    void stepEdge();

    /** Assemble the result of the run. */
    RunResult finishRun();

    /**
     * Join a chip: route L2-port and DRAM traffic through @p side as
     * tile @p tile.  Must be called before the run starts.
     */
    void
    setSharedMemSide(SharedMemSide *side, int tile)
    {
        sharedMem = side;
        tileId_ = tile;
    }

    /** Edges consumed so far by one domain's clock (edge schedule). */
    std::uint64_t
    domainEdges(Domain d) const
    {
        return clock(d).edges();
    }

    // DvfsControl interface
    void setTarget(Domain d, Mhz f) override;
    Mhz freq(Domain d) const override;
    Mhz targetFreq(Domain d) const override;

    const SimConfig &config() const { return cfg; }

  private:
    friend class Frontend;
    friend class ExecDomain;

    // --- sampled-mode machinery (sim/sampling.cc) ---

    /** The sampled counterpart of run(): detailed probes separated
     *  by functional skips, extrapolated with confidence intervals. */
    RunResult runSampled(std::uint64_t max_instrs);
    /** Overwrite the warm microarchitectural state from @p f at a
     *  probe start (stream, caches, predictor, fetch line). */
    void copyInFuncState(const FuncState &f);
    /** Apply schedule points with atInstr <= @p v (virtual index). */
    void applyScheduleUpTo(std::uint64_t v);
    /** Deliver a skip-span marker: the handler sees it (call-tree
     *  position, reconfig decisions) and only the *state* effect of
     *  its action (reconfig) is applied — transient stall/energy
     *  costs are captured statistically by the probes. */
    void deliverSkipMarker(const workload::Marker &m);

    using Uop = sim::Uop;

    struct FetchEntry
    {
        Uop uop;
        std::uint64_t readyFeTick = 0;
    };

    /** Retired-producer value-ready times (small ring by seq). */
    static constexpr std::uint32_t VALUE_RING = 1024;
    struct ValueEntry
    {
        std::uint64_t seq = 0;
        Tick ready = 0;
    };

    // --- shared helpers used by the domain components ---
    //
    // These run several times per issue-queue entry per edge, so
    // they are defined here to inline.

    /** The in-flight uop @p seq, or null if it is not in the ROB.
     *  ROB entries hold consecutive sequence numbers. */
    Uop *
    findUop(std::uint64_t seq)
    {
        if (rob.empty())
            return nullptr;
        std::uint64_t front = rob.front().seq;
        if (seq < front || seq >= front + rob.size())
            return nullptr;
        return &rob[seq - front];
    }

    const Uop *
    findUop(std::uint64_t seq) const
    {
        return const_cast<Processor *>(this)->findUop(seq);
    }

    Tick
    syncMargin(Domain src, Domain dst) const
    {
        if (cfg.singleClock || src == dst)
            return 0;
        // External memory runs at the (fixed) maximum frequency.
        Tick sp = src == Domain::External ? extPeriodPs
                                          : clock(src).period();
        Tick dp = dst == Domain::External ? extPeriodPs
                                          : clock(dst).period();
        return syncMarginPs(cfg, src, dst, sp, dp);
    }

    /** syncMargin(src, @p dst) for every source domain.  Fixed
     *  between clock edges: periods change only as clocks advance. */
    SyncMargins
    syncMarginsTo(Domain dst) const
    {
        SyncMargins m{};
        for (Domain src : scaledDomains())
            m[domainIndex(src)] = syncMargin(src, dst);
        m[domainIndex(Domain::External)] =
            syncMargin(Domain::External, dst);
        return m;
    }

    /**
     * Operand readiness: ready time as seen from domain @p d, whose
     * margins from every source domain are @p margin_to_d
     * (syncMarginsTo(d), computed once per edge by the caller).  A
     * not-ready operand records what it waits on in @p wait.
     */
    bool
    operandReady(std::uint64_t producer_seq, Domain d, Tick now,
                 const SyncMargins &margin_to_d, IssueWait &wait) const
    {
        if (producer_seq == 0)
            return true;
        if (const Uop *p = findUop(producer_seq)) {
            if (!p->completed) {
                wait.domains |= 1u << domainIndex(p->domain);
                return false;
            }
            // Same-domain, non-memory producers: compare edge counts
            // so that back-to-back dependent issue is exact under
            // jitter.
            if (p->domain == d && !p->isLoad) {
                if (clock(d).edges() >= p->execDoneEdge)
                    return true;
                wait.atEdge(p->execDoneEdge);
            } else {
                Tick t = p->isLoad ? p->memDone : p->execDone;
                Tick ready = t + margin_to_d[domainIndex(p->domain)];
                if (now >= ready)
                    return true;
                wait.atTime(ready);
            }
            wait.oldestProducer =
                std::min(wait.oldestProducer, producer_seq);
            return false;
        }
        // Producer has retired; the value ring remembers recent ones.
        const ValueEntry &e = valueRing[producer_seq % VALUE_RING];
        if (e.seq == producer_seq) {
            if (now >= e.ready)
                return true;
            wait.opaque = true;
            return false;
        }
        return true;  // retired long ago
    }

    /** L2 lookup start: shared-port grant under a chip, else @p t. */
    Tick
    l2PortGrant(Tick t)
    {
        return sharedMem ? sharedMem->l2PortGrant(tileId_, t) : t;
    }
    /** Main-memory access: shared DRAM queue under a chip, else the
     *  core-private memory model. */
    Tick
    memAccess(Tick t)
    {
        ++dramAccessCount;
        return sharedMem ? sharedMem->dramAccess(tileId_, t)
                         : memory.access(t);
    }
    DomainClock &clock(Domain d) { return kernel.clock(d); }
    const DomainClock &clock(Domain d) const
    {
        return kernel.clock(d);
    }

    // --- configuration ---
    SimConfig cfg;
    Tick extPeriodPs;  ///< external memory's period (always maxMhz)
    const workload::Program &program;
    workload::InputSet input;

    // --- components ---
    power::PowerModel power_;
    Cache l1i;
    Cache l1d;
    Cache l2;
    MainMemory memory;
    BranchPredictor bpred;
    workload::Stream stream;
    Kernel kernel;
    Frontend frontend;
    std::array<ExecDomain, NUM_SCALED_DOMAINS - 1> execDomains;

    // --- hooks ---
    MarkerHandler *markerHandler = nullptr;
    TraceSink *traceSink = nullptr;
    SharedMemSide *sharedMem = nullptr;
    int tileId_ = 0;
    IntervalHook *intervalHook = nullptr;
    std::uint64_t intervalInstrs = 0;
    std::vector<SchedulePoint> schedule;
    std::size_t schedulePos = 0;
    std::shared_ptr<const CheckpointSet> checkpoints_;

    // --- pipeline state ---
    Ring<Uop> rob;
    Ring<FetchEntry> fetchQueue;
    std::array<std::vector<std::uint64_t>, NUM_SCALED_DOMAINS> iq;
    /** Instructions issued so far, per domain (ExecDomain scan
     *  skipping watches its awaited producers' domains). */
    std::array<std::uint64_t, NUM_SCALED_DOMAINS> issuedCount{};
    std::array<ValueEntry, VALUE_RING> valueRing{};
    std::vector<std::uint64_t> producerRing;  ///< recent producer seqs
    std::size_t producerHead = 0;
    std::uint64_t producerCount = 0;
    std::deque<std::uint64_t> storeSeqs;  ///< in-flight stores (age order)
    int intRegsFree = 0;
    int fpRegsFree = 0;

    // FU occupancy
    std::vector<Tick> intAluBusy;
    std::vector<Tick> intMulBusy;
    std::vector<Tick> fpAluBusy;
    std::vector<Tick> fpMulBusy;
    std::vector<Tick> memPortBusy;

    // fetch state
    bool streamEnded = false;
    bool haveHoldover = false;
    workload::StreamItem holdover;
    Tick fetchStallUntil = 0;       ///< instrumentation stalls
    Tick icacheBlockedUntil = 0;
    std::uint64_t blockedBranchSeq = 0;  ///< mispredict in flight
    Tick redirectAt = 0;
    std::uint64_t lastFetchLine = ~0ULL;
    std::uint64_t feTickCount = 0;
    std::uint64_t fetchedInstrs = 0;
    std::uint64_t nextSeq = 1;
    std::uint64_t maxInstrs_ = 0;

    // watchdog (reset by beginRun, advanced by stepEdge)
    Tick watchdogLastCheck = 0;
    std::uint64_t watchdogLastInstrs = 0;

    // interval accounting.  intervalStartInstrs counts *virtual*
    // instructions (committed + skipped) so sampled runs fire hooks
    // and schedules at the same program positions as exact runs; in
    // exact mode skippedInstrs is always 0 and the arithmetic is
    // identical to the pre-sampling simulator.
    std::array<double, NUM_SCALED_DOMAINS> occSum{};
    std::array<std::uint64_t, NUM_SCALED_DOMAINS> occSamples{};
    double robOccSum = 0.0;
    std::uint64_t intervalStartInstrs = 0;
    Tick intervalStartTime = 0;
    std::uint64_t intervalStartFeCycles = 0;
    std::uint64_t intervalStartDetailedInstrs = 0;

    // stats
    std::uint64_t committedInstrs = 0;
    std::uint64_t skippedInstrs = 0;  ///< sampled mode: func-skipped
    Tick lastCommitTime = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t l1dAccessCount = 0;
    std::uint64_t l1dMissCount = 0;
    std::uint64_t l2MissCount = 0;
    std::uint64_t icacheMissCount = 0;
    std::uint64_t dramAccessCount = 0;
    std::uint64_t reconfigCount = 0;
    std::uint64_t overheadCycleCount = 0;
};

} // namespace mcd::sim

#endif // MCD_SIM_PROCESSOR_HH
