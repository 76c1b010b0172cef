/**
 * @file
 * EngineConfig: the compute settings of one simulation — SIMD width,
 * precision tier, spatial-sort interval, rank scheduling and halo
 * overlap, the study axes of the paper — as one value type
 * (DESIGN.md §16).
 *
 * Every Simulation owns a copy (`Simulation::config`), initialised
 * from EngineConfig::fromEnv(): the `MDBENCH_*` environment variables,
 * read and checked once per process. Code changes a simulation's own
 * copy; no other engine state holds these settings, so differently
 * configured simulations can run side by side in one process. The
 * thread pool stays one process resource (results do not depend on
 * its size); `MDBENCH_THREADS` is read here with the rest.
 */

#ifndef MDBENCH_UTIL_ENGINE_CONFIG_H
#define MDBENCH_UTIL_ENGINE_CONFIG_H

#include <optional>

#include "util/precision.h"

namespace mdbench {

/** How a RankedSimulation schedules its ranks each phase. */
enum class RankExecution {
    Sequential, ///< one rank at a time (the bitwise oracle)
    Concurrent  ///< ranks multiplexed over the shared ThreadPool
};

/** "sequential" or "concurrent". */
const char *rankExecutionName(RankExecution exec);

/** The compute settings of one Simulation. */
struct EngineConfig
{
    /**
     * Packed SIMD width. Unset runs the native compiled width, gated by
     * a runtime CPU check, with twice the lanes for float tiers. 0 turns
     * the SIMD layer off (the double W = 1 kernels over unpadded rows,
     * whatever the tier). 1, 2, 4, 8 or 16 forces that lane count for
     * both lane types, through the generic backend when no ISA backend
     * matches.
     */
    std::optional<int> simdWidth;

    /** Compute precision tier (util/precision.h). */
    Precision precision = Precision::Double;

    /** Spatial sort interval in neighbor rebuilds (0 = never). */
    int sortEvery = 0;

    /** Rank scheduling of a RankedSimulation. */
    RankExecution rankExec = RankExecution::Concurrent;

    /** Overlap the halo exchange with the interior force pass. */
    bool commOverlap = false;

    /** Lanes per vector for float (@p floatLanes) or double elements. */
    int laneWidth(bool floatLanes) const;

    /** Width the neighbor list is packed at for this tier (0 = off). */
    int
    packWidth() const
    {
        return laneWidth(precision != Precision::Double);
    }

    /** fatal() unless the width is supported and sortEvery >= 0. */
    void validate() const;

    bool operator==(const EngineConfig &) const = default;

    /** The process default: the environment as first read. */
    static EngineConfig fromEnv();
};

/** Every `MDBENCH_*` compute variable, read and checked in one pass. */
struct EngineEnv
{
    /** MDBENCH_SIMD, _PRECISION, _SORT_EVERY, _RANK_EXEC, _COMM_OVERLAP. */
    EngineConfig config;

    /** MDBENCH_THREADS; 0 when unset (the hardware concurrency). */
    int threads = 0;

    /**
     * Read the variables now. Unset or empty means the default; any
     * value outside the documented set is a fatal() error (README
     * "Engine knobs").
     */
    static EngineEnv read();

    /** read() of the first call in this process, cached. */
    static const EngineEnv &process();
};

} // namespace mdbench

#endif // MDBENCH_UTIL_ENGINE_CONFIG_H
