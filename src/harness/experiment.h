/**
 * @file
 * Experiment specification and result record — the "Settings" and
 * "Formatted Output" boxes of the paper's Figure 2 automation framework.
 */

#ifndef MDBENCH_HARNESS_EXPERIMENT_H
#define MDBENCH_HARNESS_EXPERIMENT_H

#include <string>
#include <vector>

#include "parallel/mpi_model.h"
#include "perf/workload.h"
#include "util/timer.h"

namespace mdbench {

/** How an experiment executes (the framework's platform substitution). */
enum class ExperimentMode {
    NativeSerial, ///< run the real engine on the host, one domain
    NativeRanked, ///< run the real engine decomposed with simulated MPI
    ModelCpu,     ///< replay the paper's CPU instance via the cost model
    ModelGpu      ///< replay the paper's GPU instance via the cost model
};

const char *experimentModeName(ExperimentMode mode);

/** One point of the parameter space. */
struct ExperimentSpec
{
    ExperimentMode mode = ExperimentMode::ModelCpu;
    BenchmarkId benchmark = BenchmarkId::LJ;
    long natoms = 32000;
    int resources = 1; ///< MPI ranks (CPU) or devices (GPU)
    double kspaceAccuracy = 1e-4;

    /**
     * Compute precision tier (util/precision.h). EngineDefault defers
     * to the engine: native modes keep the process-wide tier
     * (MDBENCH_PRECISION, Double when unset), model modes replay the
     * paper's default study point (mixed). Any concrete tier applies
     * to both.
     */
    Precision precision = Precision::EngineDefault;
    long steps = 10000; ///< modeled run length / native step count

    /**
     * Shared-memory threads for native modes (0 = leave the process-wide
     * pool as configured; see ThreadPool::setThreads / MDBENCH_THREADS).
     * Orthogonal to `resources`, which counts simulated MPI ranks.
     */
    int threads = 0;

    /**
     * Spatial sort interval in neighbor rebuilds for native modes
     * (-1 = engine default from MDBENCH_SORT_EVERY, 0 = disabled;
     * see Simulation::setSortEvery).
     */
    int sortEvery = -1;

    /**
     * SIMD vector width for native modes (-1 = engine default from
     * MDBENCH_SIMD, 0 = scalar kernels, otherwise the packing width;
     * see setSimdWidth in util/simd.h). Takes effect at the run's
     * first neighbor build.
     */
    int simdWidth = -1;

    /**
     * Overlap the halo exchange with the interior force pass in
     * NativeRanked mode (-1 = engine default from MDBENCH_COMM_OVERLAP,
     * 0 = blocking exchange, 1 = nonblocking overlap; DESIGN.md §17).
     */
    int commOverlap = -1;

    /**
     * Rank scheduling for NativeRanked mode (-1 = engine default from
     * MDBENCH_RANK_EXEC, 0 = sequential oracle, 1 = concurrent over the
     * shared ThreadPool).
     */
    int rankExec = -1;

    /** "<bench>-<size>k" label as the paper's plots use. */
    std::string label() const;
};

/** Uniform result record across all modes. */
struct ExperimentRecord
{
    ExperimentSpec spec;
    double timestepsPerSecond = 0.0;
    double parallelEfficiencyPct = 0.0;
    double energyEfficiency = 0.0; ///< TS/s/W
    double powerWatts = 0.0;
    double mpiTimePercent = 0.0;
    double mpiImbalancePercent = 0.0;
    double deviceUtilization = 0.0; ///< GPU mode only
    double nsPerDay = 0.0;

    /**
     * Measured host wall-clock seconds of the run (native modes only;
     * 0 for model replays). Distinct from the modeled virtual time that
     * timestepsPerSecond is derived from: this is what the concurrent
     * rank scheduler and the comm-overlap knob actually move.
     */
    double wallSeconds = 0.0;
    TaskTimer taskBreakdown;
    /** MPI function seconds over the run (CPU modes). */
    std::array<double, kNumMpiFunctions> mpiFunctionSeconds{};

    double mpiFunctionFraction(MpiFunction fn) const;
};

/**
 * Run a ModelCpu / ModelGpu experiment (platform replay).
 * Native modes additionally need the system builders and are dispatched
 * by runExperiment() in src/core/experiment.h.
 */
ExperimentRecord runModelExperiment(const ExperimentSpec &spec);

} // namespace mdbench

#endif // MDBENCH_HARNESS_EXPERIMENT_H
