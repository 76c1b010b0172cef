/**
 * @file
 * The repository benchmark: one workload per invocation.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--spans PATH] [--commit SHA] [--source-digest HEX]
 *
 * --trace 0 measures the end-to-end metrics with all tracing off: each
 * step is timed around Simulation::run(1) (RankedSimulation::run(1) for
 * the ranked workload). --trace 1 makes three runs of equal length from
 * identical inputs: an untraced reference, a traced run that replays the
 * loop of Simulation::run through public calls with one in-memory span per
 * call (layer counters reset before it), and a run with the engine's own
 * tracer switched on. The per-layer metrics come from the traced run.
 *
 * Every run is checked: owned atoms are conserved, energies and pressure
 * stay finite, NVE workloads keep their total-energy drift and net
 * momentum within bounds, and the traced run ends in exactly the state of
 * the untraced one. The last line of standard output is one JSON object
 * with the keys correct, attempted, failed and metrics. README.md in this
 * directory lists the workloads and metric names.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/suite.h"
#include "kspace/pppm.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "parallel/ranked_sim.h"
#include "util/neigh_layout.h"
#include "util/precision.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace {

using namespace mdbench;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- workloads

/** Fixed workload parameters; everything else stays at engine defaults. */
struct Workload
{
    const char *name;
    int threads;     ///< pool size (clamped to the hardware threads)
    int ranks;       ///< 0 = serial Simulation, else simulated ranks
    bool nve;        ///< check NVE energy drift and net momentum
};

constexpr int kLjCells = 20;         // 20^3 fcc cells = 32,000 atoms
constexpr int kEamCells = 20;        // 32,000 Cu atoms
constexpr int kRhodoMolecules = 14;  // ~8,200 atoms
constexpr double kRhodoAccuracy = 1e-5;

// rhodo-pppm and lj-ranked8 cross many pool barriers per step (PPPM,
// SHAKE, per-phase rank regions). On 4 shared vCPUs a 4-thread pool waits
// at each one for whichever vCPU the host has descheduled, which spread
// their step times by 30-40% between runs; 2 threads leave the pool room.
const Workload kWorkloads[] = {
    {"lj-melt", 4, 0, true},
    {"eam-cu-1t", 1, 0, true},
    {"rhodo-pppm", 2, 0, false},
    {"lj-ranked8", 2, 8, false},
};

/** Untimed steps after set-up (pool spin-up, first-touch of scratch). */
constexpr long kWarmupSteps = 10;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 7;
/** Steps between physics checkpoints. */
constexpr long kCheckEvery = 100;
/**
 * NVE bound on |E - E0| / |E0|, as in the engine's own NVE acceptance
 * test. The LJ melt plateaus near 2e-3 within its first 1,000 steps;
 * EAM Cu stays near 4e-5.
 */
constexpr double kDriftBound = 5e-3;
/** Net momentum bound relative to the summed momentum magnitudes. */
constexpr double kMomentumBound = 1e-9;
/** Share of the traced run's step time its spans must cover. */
constexpr double kMinSpanCoverage = 0.95;

/** One built and set-up instance of a workload. */
struct Instance
{
    const Workload *workload = nullptr;
    std::unique_ptr<Simulation> sim;           ///< serial workloads
    std::unique_ptr<RankedSimulation> ranked;  ///< ranked workload
    std::size_t atoms = 0;                     ///< owned atoms at set-up

    void
    step()
    {
        if (ranked)
            ranked->run(1);
        else
            sim->run(1);
    }

    std::size_t
    ownedAtoms() const
    {
        return ranked ? ranked->totalAtoms() : sim->atoms.nlocal();
    }

    long
    steps() const
    {
        return ranked ? ranked->rank(0).step : sim->step;
    }

    /** Neighbor rebuilds so far (every rank rebuilds together). */
    long
    rebuilds() const
    {
        return (ranked ? ranked->rank(0) : *sim).neighbor.buildCount();
    }
};

SuiteOptions
suiteOptions(std::uint64_t seed)
{
    SuiteOptions options;
    options.seed = seed;
    options.kspaceAccuracy = kRhodoAccuracy;
    return options;
}

/** Styles of the LJ melt moved onto one rank (as core/experiment.cpp). */
void
configureLjRank(Simulation &sim, const SuiteOptions &options)
{
    auto reference = buildLJ(4, options);
    sim.pair = std::move(reference->pair);
    sim.fixes = std::move(reference->fixes);
    sim.neighbor.skin = reference->neighbor.skin;
    sim.dt = reference->dt;
    sim.units = reference->units;
}

/** Suite build call plus setup(): the span setup_s measures. */
Instance
buildInstance(const Workload &workload, std::uint64_t seed)
{
    const SuiteOptions options = suiteOptions(seed);
    Instance inst;
    inst.workload = &workload;
    const std::string name = workload.name;
    if (name == "lj-melt") {
        inst.sim = buildLJ(kLjCells, options);
    } else if (name == "eam-cu-1t") {
        inst.sim = buildEAM(kEamCells, options);
    } else if (name == "rhodo-pppm") {
        inst.sim = buildRhodoProxy(kRhodoMolecules, options);
    } else {
        auto global = buildLJ(kLjCells, options);
        global->pair.reset();
        global->fixes.clear();
        inst.ranked = std::make_unique<RankedSimulation>(
            *global, workload.ranks,
            [&](Simulation &sim) { configureLjRank(sim, options); });
        inst.ranked->setExecution(RankExecution::Concurrent);
        inst.ranked->setCommOverlap(true);
        inst.ranked->setup();
        inst.atoms = inst.ranked->totalAtoms();
        return inst;
    }
    inst.sim->setup();
    inst.atoms = inst.sim->atoms.nlocal();
    return inst;
}

// ---------------------------------------------------------------- checks

/** Physics summary of the current state. */
struct State
{
    double total = 0.0;    ///< kinetic + potential energy
    bool finite = true;    ///< energies and pressure finite
    double momentumRatio = 0.0; ///< |sum m v| / sum |m v|
};

State
sampleState(Instance &inst)
{
    State state;
    Vec3 momentum{0, 0, 0};
    double magnitude = 0.0;
    auto addSim = [&](Simulation &sim) {
        const double ke = sim.kineticEnergy();
        const double pe = sim.potentialEnergy();
        const double p = sim.pressure();
        state.total += ke + pe;
        state.finite = state.finite && std::isfinite(ke) &&
                       std::isfinite(pe) && std::isfinite(p);
        for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i) {
            const Vec3 mv = sim.atoms.v[i] * sim.atoms.massOf(i);
            momentum += mv;
            magnitude += std::sqrt(mv.normSq());
        }
    };
    if (inst.ranked) {
        for (int r = 0; r < inst.ranked->nranks(); ++r)
            addSim(inst.ranked->rank(r));
    } else {
        addSim(*inst.sim);
    }
    state.finite = state.finite && std::isfinite(state.total);
    state.momentumRatio =
        magnitude > 0.0 ? std::sqrt(momentum.normSq()) / magnitude : 0.0;
    return state;
}

/** Outcome tallies shared by every run in the process. */
struct Tally
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures;

    /** Fail all @p steps of a run that failed a whole-run check. */
    void
    failRun(const std::string &what, long steps)
    {
        failures.push_back(what);
        failed += steps;
    }
};

/**
 * Counts checked steps. Atom conservation is checked after every step;
 * energy, pressure, drift and momentum at every checkpoint. A failed
 * checkpoint fails every step since the previous one.
 */
class Checker
{
  public:
    Checker(Instance &inst, Tally &tally)
        : inst_(inst), tally_(tally), initial_(sampleState(inst))
    {
        checkState(initial_);
    }

    void
    afterStep()
    {
        ++tally_.attempted;
        ++pending_;
        if (inst_.ownedAtoms() != inst_.atoms)
            fail("owned atoms not conserved");
        if (pending_ >= kCheckEvery)
            checkpoint();
    }

    void
    checkpoint()
    {
        checkState(sampleState(inst_));
        if (bad_)
            tally_.failed += pending_;
        pending_ = 0;
        bad_ = false;
    }

    /** Largest NVE drift and momentum ratio seen so far. */
    double maxDrift() const { return maxDrift_; }
    double maxMomentum() const { return maxMomentum_; }

  private:
    void
    fail(const std::string &what)
    {
        if (!bad_)
            tally_.failures.push_back(what + " at step " +
                                std::to_string(inst_.steps()));
        bad_ = true;
    }

    void
    checkState(const State &state)
    {
        if (!state.finite)
            fail("non-finite energy or pressure");
        if (inst_.workload->nve) {
            const double drift = std::abs(state.total - initial_.total) /
                                 std::abs(initial_.total);
            maxDrift_ = std::max(maxDrift_, drift);
            maxMomentum_ = std::max(maxMomentum_, state.momentumRatio);
            if (!(drift <= kDriftBound))
                fail("NVE energy drift " + std::to_string(drift));
            if (!(state.momentumRatio <= kMomentumBound))
                fail("net momentum " + std::to_string(state.momentumRatio));
        }
    }

    Instance &inst_;
    Tally &tally_;
    State initial_;
    long pending_ = 0;
    bool bad_ = false;
    double maxDrift_ = 0.0;
    double maxMomentum_ = 0.0;
};

/** Final-state checksum: total energy plus a hash of tag-ordered positions. */
struct Checksum
{
    double energy = 0.0;
    std::uint64_t positions = 0;

    bool
    operator==(const Checksum &o) const
    {
        return std::memcmp(&energy, &o.energy, sizeof energy) == 0 &&
               positions == o.positions;
    }
};

Checksum
checksum(Instance &inst)
{
    std::vector<std::pair<std::int64_t, Vec3>> byTag;
    auto collect = [&](const Simulation &sim) {
        for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
            byTag.emplace_back(sim.atoms.tag[i], sim.atoms.x[i]);
    };
    if (inst.ranked) {
        for (int r = 0; r < inst.ranked->nranks(); ++r)
            collect(inst.ranked->rank(r));
    } else {
        collect(*inst.sim);
    }
    std::sort(byTag.begin(), byTag.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    std::uint64_t hash = 1469598103934665603ull; // FNV-1a
    for (const auto &entry : byTag) {
        const double xyz[3] = {entry.second.x, entry.second.y,
                               entry.second.z};
        unsigned char bytes[sizeof xyz];
        std::memcpy(bytes, xyz, sizeof xyz);
        for (unsigned char b : bytes)
            hash = (hash ^ b) * 1099511628211ull;
    }
    return {sampleState(inst).total, hash};
}

// ----------------------------------------------------------------- spans

/** In-memory span log of the traced replay, written out at the end. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Time @p fn as span @p name of step @p step; returns fn's result. */
    template <typename Fn>
    auto
    time(const char *name, long step, Fn &&fn)
    {
        const auto t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            record(name, step, t0, Clock::now());
        } else {
            auto result = fn();
            record(name, step, t0, Clock::now());
            return result;
        }
    }

    void
    record(const char *name, long step, Clock::time_point t0,
           Clock::time_point t1)
    {
        spans_.push_back({name, step, t0, t1});
    }

    /** Summed seconds of every span named @p name. */
    double
    seconds(const std::string &name) const
    {
        double sum = 0.0;
        for (const Span &s : spans_)
            if (name == s.name)
                sum += secondsBetween(s.begin, s.end);
        return sum;
    }

    /** Summed seconds of every span except those named @p name. */
    double
    secondsExcept(const std::string &name) const
    {
        double sum = 0.0;
        for (const Span &s : spans_)
            if (name != s.name)
                sum += secondsBetween(s.begin, s.end);
        return sum;
    }

    /** Chrome trace_event JSON; call spans carry their step as parent. */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            throw std::runtime_error("cannot write spans to " + path);
        auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin_)
                .count();
        };
        os << "{\"traceEvents\":[\n";
        for (std::size_t k = 0; k < spans_.size(); ++k) {
            const Span &s = spans_[k];
            char line[256];
            std::snprintf(line, sizeof line,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"step\":%ld}}%s\n",
                          s.name, us(s.begin), us(s.end) - us(s.begin),
                          s.step, k + 1 < spans_.size() ? "," : "");
            os << line;
        }
        os << "]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        long step;
        Clock::time_point begin;
        Clock::time_point end;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/**
 * One timestep of Simulation::run through public calls, one span per
 * call. Must stay operation-for-operation identical to the engine loop:
 * the checksum comparison against an untraced run enforces it.
 */
void
replayStep(Simulation &sim, SpanLog &log)
{
    const long step = ++sim.step;
    log.time("integrate_initial", step, [&] { sim.integrateInitial(); });
    const bool rebuild = log.time("needs_reneighbor", step,
                                  [&] { return sim.needsReneighbor(); });
    if (rebuild)
        log.time("reneighbor", step, [&] { sim.reneighbor(); });
    else
        log.time("forward_positions", step,
                 [&] { sim.comm->forwardPositions(sim); });
    log.time("zero_forces", step, [&] { sim.zeroForceAccumulators(); });
    if (sim.pair) {
        log.time("pair", step, [&] {
            sim.neighbor.ensureFreshPacking(sim);
            sim.pair->compute(sim, sim.neighbor.list());
        });
    }
    if (sim.bondStyle || sim.angleStyle) {
        log.time("bond", step, [&] {
            if (sim.bondStyle)
                sim.bondStyle->compute(sim);
            if (sim.angleStyle)
                sim.angleStyle->compute(sim);
        });
    }
    if (sim.kspace)
        log.time("kspace", step, [&] { sim.kspace->compute(sim); });
    log.time("reverse_comm", step, [&] { sim.reverseForceComm(); });
    log.time("integrate_final", step, [&] { sim.integrateFinal(); });
    log.time("thermo", step, [&] { sim.maybeSampleThermo(); });
}

// --------------------------------------------------------------- metrics

/** Ordered name -> (value, unit) list printed as the result. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    void
    printTable(std::ostream &os) const
    {
        for (const Entry &e : entries_) {
            char line[160];
            std::snprintf(line, sizeof line, "  %-32s %16.6g  %s\n",
                          e.name.c_str(), e.value, e.unit.c_str());
            os << line;
        }
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os.precision(17);
        os << "{";
        for (std::size_t k = 0; k < entries_.size(); ++k) {
            const Entry &e = entries_[k];
            os << (k ? ", " : "") << "\"" << e.name << "\": {\"value\": "
               << (std::isfinite(e.value) ? e.value : 0.0)
               << ", \"unit\": \"" << e.unit << "\"}";
        }
        os << "}";
        return os.str();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

double
percentile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
counter(Counter c)
{
    return static_cast<double>(counterValue(c));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Modeled-cluster state of the ranked workload, for window deltas. */
struct RankedSnapshot
{
    double virtualTime = 0.0;
    std::vector<double> clocks;
    std::vector<double> mpi;   ///< per-rank total MPI seconds
    std::vector<double> wait;  ///< per-rank Wait + Waitall seconds
    double neigh = 0.0;
    double pair = 0.0;
    double bytes = 0.0;

    explicit RankedSnapshot(const RankedSimulation &ranked)
        : virtualTime(ranked.virtualTime()), clocks(ranked.clocks())
    {
        const MpiStats &stats = ranked.mpiStats();
        for (int r = 0; r < ranked.nranks(); ++r) {
            mpi.push_back(stats.rankTotal(r));
            wait.push_back(stats.seconds(r, MpiFunction::Wait) +
                           stats.seconds(r, MpiFunction::Waitall));
        }
        const TaskTimer tasks = ranked.aggregateTaskTimer();
        neigh = tasks.seconds(Task::Neigh);
        pair = tasks.seconds(Task::Pair);
        bytes = static_cast<double>(ranked.commBytes());
    }
};

// ------------------------------------------------------------------ runs

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string spansPath;
    std::string commit = "none";
    std::string sourceDigest = "none";
};

/** Result of one timed run of whole steps. */
struct TimedRun
{
    std::vector<double> stepSeconds;
    std::vector<bool> rebuilt; ///< per step: a neighbor rebuild ran
    Checksum finalState;

    double
    total() const
    {
        double sum = 0.0;
        for (double s : stepSeconds)
            sum += s;
        return sum;
    }

    long steps() const { return static_cast<long>(stepSeconds.size()); }
    double tsPerSecond() const { return ratio(steps(), total()); }
};

/**
 * Warm up, call @p onStart, then step until @p seconds elapse
 * (@p fixedSteps < 0) or for exactly @p fixedSteps steps, timing each
 * step around @p stepFn.
 */
TimedRun
timedRun(Instance &inst, Tally &tally, double seconds, long fixedSteps,
         const std::function<void()> &stepFn,
         const std::function<void()> &onStart = [] {})
{
    for (long k = 0; k < kWarmupSteps; ++k)
        inst.step();
    Checker checker(inst, tally);
    onStart();
    TimedRun run;
    const auto start = Clock::now();
    while (fixedSteps < 0 ? secondsBetween(start, Clock::now()) < seconds
                          : run.steps() < fixedSteps) {
        const long builds = inst.rebuilds();
        const auto t0 = Clock::now();
        stepFn();
        run.stepSeconds.push_back(secondsBetween(t0, Clock::now()));
        run.rebuilt.push_back(inst.rebuilds() != builds);
        checker.afterStep();
    }
    checker.checkpoint();
    if (inst.workload->nve)
        std::cout << "nve: max |E - E0| / |E0| " << checker.maxDrift()
                  << " (bound " << kDriftBound
                  << "), max |P| / sum |mv| " << checker.maxMomentum()
                  << " (bound " << kMomentumBound << ")\n";
    run.finalState = checksum(inst);
    return run;
}

Metrics
endToEnd(const Workload &workload, const Options &opt, Tally &tally)
{
    std::vector<double> setups;
    Instance inst;
    for (int k = 0; k < kSetupRepeats; ++k) {
        inst = Instance{}; // free the previous system first
        const auto t0 = Clock::now();
        inst = buildInstance(workload, opt.seed);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    const TimedRun run =
        timedRun(inst, tally, opt.seconds, -1, [&] { inst.step(); });

    // Each step kind is charged at the lower quartile of its wall times.
    // On a shared host, CPU time stolen by other tenants slows whole
    // stretches of a run; that moves a mean or a median of a 4-thread
    // step by up to 2x, its lower quartile far less. Splitting by kind
    // keeps the statistic off the boundary between plain and rebuild
    // steps (rebuilds are 0-15% of the steps, by workload and seed).
    std::vector<double> plainMs;
    std::vector<double> rebuildMs;
    for (long k = 0; k < run.steps(); ++k)
        (run.rebuilt[k] ? rebuildMs : plainMs)
            .push_back(run.stepSeconds[k] * 1e3);
    const double plain = plainMs.empty() ? 0.0 : percentile(plainMs, 0.25);
    const double rebuild =
        rebuildMs.empty() ? 0.0 : percentile(rebuildMs, 0.25);
    const double modelMs =
        plain * static_cast<double>(plainMs.size()) +
        rebuild * static_cast<double>(rebuildMs.size());
    Metrics m;
    m.add("ts_per_s", ratio(run.steps() * 1e3, modelMs), "1/s");
    m.add("plain_step_ms_q25", plain, "ms");
    m.add("setup_s", percentile(setups, 0.5), "s");
    m.add("peak_rss_mb", peakRssMb(), "MiB");
    for (const auto &[kind, ms] :
         {std::pair{"plain", &plainMs}, std::pair{"rebuild", &rebuildMs}}) {
        if (ms->empty())
            continue;
        std::cout << kind << " steps " << ms->size() << ": ms p10 "
                  << percentile(*ms, 0.1) << " p25 " << percentile(*ms, 0.25)
                  << " p50 " << percentile(*ms, 0.5) << " p90 "
                  << percentile(*ms, 0.9) << "\n";
    }
    std::cout << "mean-based TS/s " << run.tsPerSecond() << "  setups_s";
    for (double s : setups)
        std::cout << " " << s;
    std::cout << "\n";
    return m;
}

/** Window deltas of the ranked workload's modeled-cluster accessors. */
struct ParallelLayer
{
    double modeledSeconds = 0.0; ///< virtual-time delta of the window
    double mpiPct = 0.0;
    double waitSeconds = 0.0;
    double imbalancePct = 0.0;
    double bytes = 0.0;
    double neighSeconds = 0.0;
    double pairSeconds = 0.0;
    double ghosts = 0.0;
};

ParallelLayer
parallelLayer(const RankedSimulation &ranked, const RankedSnapshot &before)
{
    const RankedSnapshot after(ranked);
    ParallelLayer p;
    std::vector<double> busy;
    double mpi = 0.0;
    for (int r = 0; r < ranked.nranks(); ++r) {
        const double wait = after.wait[r] - before.wait[r];
        mpi += after.mpi[r] - before.mpi[r];
        p.waitSeconds += wait / ranked.nranks();
        busy.push_back(after.clocks[r] - before.clocks[r] - wait);
        p.ghosts += static_cast<double>(ranked.rank(r).atoms.nghost());
    }
    p.modeledSeconds = after.virtualTime - before.virtualTime;
    p.mpiPct = ratio(mpi / ranked.nranks(), p.modeledSeconds) * 100.0;
    p.imbalancePct = Imbalance::fromSamples(busy).imbalancePercent();
    p.bytes = after.bytes - before.bytes;
    p.neighSeconds = after.neigh - before.neigh;
    p.pairSeconds = after.pair - before.pair;
    return p;
}

Metrics
perLayer(const Workload &workload, const Options &opt, Tally &tally)
{
    const double share = opt.seconds / 3.0;

    // (a) Untraced reference: fixes the step count of the other two runs.
    Instance ref = buildInstance(workload, opt.seed);
    const TimedRun untraced =
        timedRun(ref, tally, share, -1, [&] { ref.step(); });
    ref = Instance{};
    const long steps = untraced.steps();
    const double ts = untraced.tsPerSecond();

    // (b) Traced run from identical inputs, counters reset after warmup.
    Instance inst = buildInstance(workload, opt.seed);
    SpanLog log(Clock::now());
    std::unique_ptr<RankedSnapshot> before;
    const TimedRun traced = timedRun(
        inst, tally, 0.0, steps,
        [&] {
            const auto t0 = Clock::now();
            if (inst.ranked)
                inst.ranked->run(1);
            else
                replayStep(*inst.sim, log);
            log.record("step", inst.steps(), t0, Clock::now());
        },
        [&] {
            resetCounters();
            if (inst.ranked)
                before = std::make_unique<RankedSnapshot>(*inst.ranked);
        });
    // Step spans bracket the call spans: coverage is calls / steps. The
    // ranked workload is timed through accessors, one span per step.
    const double stepTime = log.seconds("step");
    const double coverage =
        inst.ranked ? 1.0 : ratio(log.secondsExcept("step"), stepTime);
    if (!(traced.finalState == untraced.finalState))
        tally.failRun("traced final state differs from untraced", steps);
    if (coverage < kMinSpanCoverage)
        tally.failRun("spans cover " + std::to_string(coverage * 100.0) +
                          "% of traced step time",
                      steps);
    std::cout << "checksum untraced E=" << untraced.finalState.energy
              << " hash=" << untraced.finalState.positions
              << "  traced E=" << traced.finalState.energy
              << " hash=" << traced.finalState.positions
              << "  span coverage " << coverage * 100.0 << "%\n";

    ParallelLayer par;
    double neighSeconds = log.seconds("reneighbor");
    double pairSeconds = log.seconds("pair");
    double nranks = 1.0;
    double gridPoints = 0.0;
    if (inst.ranked) {
        par = parallelLayer(*inst.ranked, *before);
        neighSeconds = par.neighSeconds;
        pairSeconds = par.pairSeconds;
        nranks = inst.ranked->nranks();
    } else {
        par.ghosts = static_cast<double>(inst.sim->atoms.nghost());
        if (const auto *pppm =
                dynamic_cast<const Pppm *>(inst.sim->kspace.get()))
            gridPoints = static_cast<double>(pppm->grid()[0]) *
                         pppm->grid()[1] * pppm->grid()[2];
    }
    const double builds = counter(Counter::NeighBuilds);
    const double kspaceSeconds = log.seconds("kspace");
    const double lanes = counter(Counter::PairSimdLanesActive);

    Metrics m;
    m.add("neigh.reneighbor_s", log.seconds("reneighbor"), "s");
    m.add("neigh.ms_per_build", ratio(neighSeconds * 1e3, builds), "ms");
    m.add("neigh.builds", builds, "count");
    m.add("neigh.check_s", log.seconds("needs_reneighbor"), "s");
    m.add("neigh.accept_ratio",
          ratio(counter(Counter::NeighBuildAccepted),
                counter(Counter::NeighBuildCandidates)),
          "ratio");
    m.add("neigh.pairs_per_atom",
          ratio(counter(Counter::NeighPairs) * nranks,
                builds * static_cast<double>(inst.atoms)),
          "count");
    m.add("pair.compute_s", log.seconds("pair"), "s");
    m.add("pair.mpairs_per_s",
          ratio(counter(Counter::PairInteractions) / 1e6, pairSeconds),
          "1/s");
    m.add("pair.lane_util",
          ratio(lanes, lanes + counter(Counter::PairSimdPaddingWaste)),
          "ratio");
    m.add("bond.compute_s", log.seconds("bond"), "s");
    m.add("kspace.compute_s", kspaceSeconds, "s");
    m.add("kspace.fft1d_lines_per_s",
          ratio(counter(Counter::KspaceFft1dLines), kspaceSeconds), "1/s");
    m.add("kspace.grid_points", gridPoints, "count");
    m.add("comm.forward_s", log.seconds("forward_positions"), "s");
    m.add("comm.reverse_s", log.seconds("reverse_comm"), "s");
    m.add("comm.ghost_atoms", par.ghosts, "count");
    m.add("modify.integrate_s",
          log.seconds("integrate_initial") + log.seconds("integrate_final"),
          "s");
    m.add("parallel.modeled_ts_per_s", ratio(steps, par.modeledSeconds),
          "1/s");
    m.add("parallel.mpi_pct", par.mpiPct, "%");
    m.add("parallel.wait_s", par.waitSeconds, "s");
    m.add("parallel.imbalance_pct", par.imbalancePct, "%");
    m.add("parallel.bytes_per_step", par.bytes / steps, "B");
    m.add("parallel.msgs_per_step", counter(Counter::MpiMessages) / steps,
          "count");
    m.add("parallel.neigh_s", inst.ranked ? par.neighSeconds : 0.0, "s");
    m.add("parallel.pair_s", inst.ranked ? par.pairSeconds : 0.0, "s");
    m.add("pool.regions_per_step", counter(Counter::PoolRegions) / steps,
          "count");
    m.add("pool.slices_per_region",
          ratio(counter(Counter::PoolSlices), counter(Counter::PoolRegions)),
          "count");
    const double tracedTs = ratio(steps, stepTime);
    inst = Instance{};
    if (!opt.spansPath.empty())
        log.write(opt.spansPath);

    // (c) The engine's own tracer on, against the untraced reference.
    Instance on = buildInstance(workload, opt.seed);
    const TimedRun tracerOn = timedRun(
        on, tally, 0.0, steps, [&] { on.step(); },
        [] {
            traceClear();
            traceEnable();
        });
    traceDisable();
    const std::size_t events = traceRecordedEvents();
    traceClear();
    if (!(tracerOn.finalState == untraced.finalState))
        tally.failRun("tracer-on final state differs from untraced", steps);

    m.add("obs.bench_trace_overhead_pct", (ts - tracedTs) / ts * 100.0, "%");
    m.add("obs.tracer_on_overhead_pct",
          (ts - tracerOn.tsPerSecond()) / ts * 100.0, "%");
    std::cout << "steps per run " << steps << "  untraced " << ts
              << " TS/s  traced " << tracedTs << " TS/s  tracer-on "
              << tracerOn.tsPerSecond() << " TS/s (" << events
              << " tracer events)\n";
    return m;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload")
            opt.workload = value;
        else if (key == "--seed")
            opt.seed = std::stoull(value);
        else if (key == "--seconds")
            opt.seconds = std::stod(value);
        else if (key == "--trace")
            opt.trace = std::stoi(value);
        else if (key == "--spans")
            opt.spansPath = value;
        else if (key == "--commit")
            opt.commit = value;
        else if (key == "--source-digest")
            opt.sourceDigest = value;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (!(opt.seconds > 0.0) || (opt.trace != 0 && opt.trace != 1))
        throw std::invalid_argument("--seconds must be > 0, --trace 0|1");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads)
        if (opt.workload == w.name)
            workload = &w;
    if (!workload) {
        std::cerr << "perfbench: unknown workload '" << opt.workload
                  << "'\n";
        return 2;
    }

    const int nproc =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    ThreadPool::setThreads(std::min(workload->threads, nproc));
    std::cout << "stamp {\"workload\": \"" << workload->name
              << "\", \"seed\": " << opt.seed << ", \"seconds\": "
              << opt.seconds << ", \"trace\": " << opt.trace
              << ", \"nproc\": " << nproc
              << ", \"pool_threads\": " << ThreadPool::threads()
              << ", \"ranks\": " << workload->ranks
              << ", \"simd_width\": " << simdWidth()
              << ", \"simd_isa\": \"" << simdIsaName()
              << "\", \"precision\": \"" << precisionName(precisionTier())
              << "\", \"neigh_layout\": \"" << neighLayoutName(neighLayout())
              << "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                 "\", \"native_arch\": "
              << PERFBENCH_NATIVE_ARCH << ", \"commit\": \"" << opt.commit
              << "\", \"source_digest\": \"" << opt.sourceDigest << "\"}\n";

    Tally tally;
    Metrics metrics;
    try {
        metrics = opt.trace ? perLayer(*workload, opt, tally)
                            : endToEnd(*workload, opt, tally);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    for (const std::string &f : tally.failures)
        std::cout << "CHECK FAILED: " << f << "\n";
    metrics.printTable(std::cout);
    std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return 0;
}
