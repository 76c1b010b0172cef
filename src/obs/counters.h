/**
 * @file
 * Process-wide observability counters (DESIGN.md §9).
 *
 * A fixed registry of monotonically increasing event counters covering
 * the engine's hot layers (neighbor rebuilds, pair interactions, ghost
 * exchange, FFT transforms, thread-pool work, modeled MPI traffic),
 * plus a process-global per-Task seconds accumulator that mirrors the
 * Simulation-local TaskTimer into the run manifest.
 *
 * counterAdd() is the COUNTER_ADD-style accessor: one relaxed atomic
 * fetch_add, safe from any thread, cheap enough to stay always-on (call
 * it once per kernel invocation or slice, never per atom).
 */

#ifndef MDBENCH_OBS_COUNTERS_H
#define MDBENCH_OBS_COUNTERS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/timer.h"

namespace mdbench {

/** The registered counters. Keep counterName() in sync. */
enum class Counter : std::size_t {
    NeighBuilds = 0,    ///< neighbor-list builds
    NeighTriggerChecks, ///< displacement trigger evaluations
    NeighPairs,         ///< pairs stored by neighbor builds
    NeighPaddedSlots,   ///< sentinel slots added by SIMD padded packing
    NeighBuildCandidates, ///< stencil candidates examined by builds
    NeighBuildAccepted,   ///< candidates accepted into the list
    NeighExcludedPairs,   ///< in-range pairs dropped by special lists
    SortApplied,        ///< spatial atom reorders applied
    SortSkipped,        ///< sort-enabled rebuilds that did not reorder
    PairComputes,       ///< pair-style compute() calls
    PairInteractions,   ///< neighbor pairs visited by pair kernels
    PairSimdLanesActive,  ///< real-pair lanes processed by SIMD kernels
    PairSimdPaddingWaste, ///< sentinel lanes processed by SIMD kernels
    PairFloatComputes,    ///< pair compute() calls run at a float tier
    PairInteriorPairs,    ///< pairs computed in interior (pre-halo) passes
    PairBoundaryPairs,    ///< pairs computed in boundary (post-halo) passes
    CommExchanges,      ///< comm exchange/borders rebuilds
    CommGhostAtoms,     ///< ghost atoms created by borders()
    CommOverlapSteps,   ///< steps whose halo exchange overlapped compute
    CommBytesInflight,  ///< halo bytes in flight during interior compute
    KspaceFfts,         ///< 3-D FFT transforms executed
    KspaceFft1dLines,   ///< 1-D line transforms batched by 3-D FFTs
    KspacePlanCacheHits,///< FFT plan cache lookups served from cache
    KspaceSolves,       ///< k-space solver compute() calls
    PoolRegions,        ///< thread-pool parallel regions dispatched
    PoolSlices,         ///< slices executed across all regions
    MpiMessages,        ///< modeled MPI messages (ranked runs)
    MpiModeledBytes,    ///< modeled MPI payload bytes (ranked runs)
    NumCounters
};

constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::NumCounters);

namespace detail {
extern std::array<std::atomic<std::uint64_t>, kNumCounters> gCounters;
extern std::array<std::atomic<std::uint64_t>, kNumTasks> gTaskNs;
} // namespace detail

/** Stable machine-readable name, e.g. "neigh.builds". */
const char *counterName(Counter counter);

/** Add @p n to @p counter (relaxed; safe from any thread). */
inline void
counterAdd(Counter counter, std::uint64_t n = 1) noexcept
{
    detail::gCounters[static_cast<std::size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
}

/** Current value of @p counter. */
inline std::uint64_t
counterValue(Counter counter) noexcept
{
    return detail::gCounters[static_cast<std::size_t>(counter)].load(
        std::memory_order_relaxed);
}

/** Zero every counter and the global task accumulator (tests/benches). */
void resetCounters();

/**
 * Charge @p seconds of wall time to the process-global accumulator for
 * @p task (inclusive time: nested scopes charge their full extent).
 */
void chargeGlobalTask(Task task, double seconds);

/** Process-global accumulated seconds per Table 1 task. */
std::array<double, kNumTasks> globalTaskSeconds();

} // namespace mdbench

#endif // MDBENCH_OBS_COUNTERS_H
