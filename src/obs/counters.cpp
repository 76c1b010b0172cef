#include "obs/counters.h"

#include "util/error.h"

namespace mdbench {

namespace detail {
std::array<std::atomic<std::uint64_t>, kNumCounters> gCounters{};
std::array<std::atomic<std::uint64_t>, kNumTasks> gTaskNs{};
} // namespace detail

const char *
counterName(Counter counter)
{
    switch (counter) {
      case Counter::NeighBuilds: return "neigh.builds";
      case Counter::NeighTriggerChecks: return "neigh.trigger_checks";
      case Counter::NeighPairs: return "neigh.pairs";
      case Counter::NeighPaddedSlots: return "neigh.padded_slots";
      case Counter::NeighBuildCandidates: return "neigh.build_candidates";
      case Counter::NeighBuildAccepted: return "neigh.build_accepted";
      case Counter::NeighExcludedPairs: return "neigh.excluded_pairs";
      case Counter::SortApplied: return "neigh.sorts_applied";
      case Counter::SortSkipped: return "neigh.sorts_skipped";
      case Counter::PairComputes: return "pair.computes";
      case Counter::PairInteractions: return "pair.interactions";
      case Counter::PairSimdLanesActive: return "pair.simd_lanes_active";
      case Counter::PairSimdPaddingWaste: return "pair.simd_padding_waste";
      case Counter::PairCompactedSlots: return "pair.compacted_slots";
      case Counter::PairFloatComputes: return "pair.float_computes";
      case Counter::PairInteriorPairs: return "pair.interior_pairs";
      case Counter::PairBoundaryPairs: return "pair.boundary_pairs";
      case Counter::CommExchanges: return "comm.exchanges";
      case Counter::CommGhostAtoms: return "comm.ghost_atoms";
      case Counter::CommOverlapSteps: return "comm.overlap_steps";
      case Counter::CommBytesInflight: return "comm.bytes_inflight";
      case Counter::KspaceFfts: return "kspace.ffts";
      case Counter::KspaceFft1dLines: return "kspace.fft1d_lines";
      case Counter::KspacePlanCacheHits: return "kspace.plan_cache_hits";
      case Counter::KspaceSolves: return "kspace.solves";
      case Counter::PoolRegions: return "pool.regions";
      case Counter::PoolSlices: return "pool.slices";
      case Counter::MpiMessages: return "mpi.messages";
      case Counter::MpiModeledBytes: return "mpi.modeled_bytes";
      case Counter::ModifyShakeIterations: return "modify.shake_iterations";
      default: panic("invalid Counter enumerator");
    }
}

void
resetCounters()
{
    for (auto &counter : detail::gCounters)
        counter.store(0, std::memory_order_relaxed);
    for (auto &ns : detail::gTaskNs)
        ns.store(0, std::memory_order_relaxed);
}

void
chargeGlobalTask(Task task, double seconds)
{
    if (seconds <= 0.0)
        return;
    detail::gTaskNs[static_cast<std::size_t>(task)].fetch_add(
        static_cast<std::uint64_t>(seconds * 1e9),
        std::memory_order_relaxed);
}

std::array<double, kNumTasks>
globalTaskSeconds()
{
    std::array<double, kNumTasks> seconds{};
    for (std::size_t t = 0; t < kNumTasks; ++t) {
        seconds[t] = static_cast<double>(detail::gTaskNs[t].load(
                         std::memory_order_relaxed)) *
                     1e-9;
    }
    return seconds;
}

} // namespace mdbench
