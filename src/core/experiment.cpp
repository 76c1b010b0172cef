#include "core/experiment.h"

#include "core/suite.h"
#include "parallel/ranked_sim.h"
#include "perf/power.h"
#include "util/error.h"
#include "util/precision.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mdbench {

namespace {

/** Styles-only configurator for decomposed ranks. */
void
configureRankFor(Simulation &sim, BenchmarkId id,
                 const SuiteOptions &options)
{
    // Construct a minimal suite instance and move its styles and fixes
    // onto the rank; re-deriving them here would duplicate the Table 2
    // configuration in two places.
    std::unique_ptr<Simulation> reference;
    switch (id) {
      case BenchmarkId::LJ:
        reference = buildLJ(4, options);
        break;
      case BenchmarkId::Chain:
        reference = buildChain(1, options);
        break;
      case BenchmarkId::Chute:
        reference = buildChute(4, 4, 2, options);
        break;
      default:
        fatal("native decomposed runs support LJ, Chain, and Chute only");
    }
    sim.pair = std::move(reference->pair);
    sim.bondStyle = std::move(reference->bondStyle);
    sim.angleStyle = std::move(reference->angleStyle);
    sim.fixes = std::move(reference->fixes);
    sim.neighbor.skin = reference->neighbor.skin;
    sim.dt = reference->dt;
    sim.units = reference->units;
    sim.box.setPeriodic(reference->box.periodic(0),
                        reference->box.periodic(1),
                        reference->box.periodic(2));
}

ExperimentRecord
runNativeSerial(const ExperimentSpec &spec)
{
    SuiteOptions options;
    options.kspaceAccuracy = spec.kspaceAccuracy;
    auto sim = buildNative(spec.benchmark, spec.natoms, options);
    sim->thermoEvery = 0;
    if (spec.sortEvery >= 0)
        sim->setSortEvery(spec.sortEvery);

    // Apply the requested shared-memory thread count, SIMD width, and
    // precision tier for the duration of this experiment, restoring
    // them afterwards so experiments in a sweep do not leak
    // configuration into each other.
    const int previousThreads = ThreadPool::threads();
    if (spec.threads > 0)
        ThreadPool::setThreads(spec.threads);
    if (spec.simdWidth >= 0)
        setSimdWidth(spec.simdWidth);
    if (spec.precision != Precision::EngineDefault)
        setPrecisionTier(spec.precision);
    sim->setup();

    WallTimer wall;
    sim->run(spec.steps);
    const double elapsed = wall.seconds();
    if (spec.precision != Precision::EngineDefault)
        setPrecisionTier(Precision::EngineDefault);
    if (spec.simdWidth >= 0)
        setSimdWidth(-1);
    if (spec.threads > 0)
        ThreadPool::setThreads(previousThreads);

    ExperimentRecord record;
    record.spec = spec;
    record.timestepsPerSecond =
        elapsed > 0.0 ? static_cast<double>(spec.steps) / elapsed : 0.0;
    record.parallelEfficiencyPct = 100.0;
    record.wallSeconds = elapsed;
    record.taskBreakdown = sim->timer;
    return record;
}

ExperimentRecord
runNativeRanked(const ExperimentSpec &spec)
{
    SuiteOptions options;
    auto global = buildNative(spec.benchmark, spec.natoms, options);
    // The ranked driver configures each rank itself.
    global->pair.reset();
    global->bondStyle.reset();
    global->angleStyle.reset();
    global->kspace.reset();
    global->fixes.clear();

    RankedSimulation ranked(
        *global, spec.resources,
        [&](Simulation &sim) {
            configureRankFor(sim, spec.benchmark, options);
            if (spec.sortEvery >= 0)
                sim.setSortEvery(spec.sortEvery);
        });
    if (spec.commOverlap >= 0)
        ranked.setCommOverlap(spec.commOverlap != 0);
    if (spec.rankExec >= 0)
        ranked.setExecution(spec.rankExec != 0 ? RankExecution::Concurrent
                                               : RankExecution::Sequential);
    const int previousThreads = ThreadPool::threads();
    if (spec.threads > 0)
        ThreadPool::setThreads(spec.threads);
    if (spec.simdWidth >= 0)
        setSimdWidth(spec.simdWidth);
    if (spec.precision != Precision::EngineDefault)
        setPrecisionTier(spec.precision);
    ranked.setup();
    WallTimer wall;
    ranked.run(spec.steps);
    const double elapsed = wall.seconds();
    if (spec.precision != Precision::EngineDefault)
        setPrecisionTier(Precision::EngineDefault);
    if (spec.simdWidth >= 0)
        setSimdWidth(-1);
    if (spec.threads > 0)
        ThreadPool::setThreads(previousThreads);

    ExperimentRecord record;
    record.spec = spec;
    const double virtualTime = ranked.virtualTime();
    record.timestepsPerSecond =
        virtualTime > 0.0 ? static_cast<double>(spec.steps) / virtualTime
                          : 0.0;
    record.wallSeconds = elapsed;
    record.taskBreakdown = ranked.aggregateTaskTimer();
    const MpiStats &stats = ranked.mpiStats();
    for (std::size_t f = 0; f < kNumMpiFunctions; ++f)
        record.mpiFunctionSeconds[f] =
            stats.meanFunction(static_cast<MpiFunction>(f)) *
            stats.nranks();
    record.mpiTimePercent =
        virtualTime > 0.0 ? stats.meanTotal() / virtualTime * 100.0 : 0.0;
    std::vector<double> busy(ranked.nranks());
    for (int r = 0; r < ranked.nranks(); ++r)
        busy[r] = ranked.clocks()[r] -
                  stats.seconds(r, MpiFunction::Wait);
    const Imbalance imbalance = Imbalance::fromSamples(busy);
    record.mpiImbalancePercent = imbalance.imbalancePercent();
    return record;
}

} // namespace

ExperimentRecord
runExperiment(const ExperimentSpec &spec)
{
    switch (spec.mode) {
      case ExperimentMode::ModelCpu:
      case ExperimentMode::ModelGpu:
        return runModelExperiment(spec);
      case ExperimentMode::NativeSerial:
        return runNativeSerial(spec);
      case ExperimentMode::NativeRanked:
        return runNativeRanked(spec);
      default:
        panic("invalid ExperimentMode");
    }
}

std::vector<ExperimentRecord>
runSweep(const std::vector<ExperimentSpec> &specs)
{
    std::vector<ExperimentRecord> records;
    records.reserve(specs.size());
    for (const ExperimentSpec &spec : specs)
        records.push_back(runExperiment(spec));
    return records;
}

} // namespace mdbench
