/**
 * @file
 * Multi-rank execution of an MD simulation over a spatial decomposition,
 * with simulated MPI (the platform substitution documented in DESIGN.md).
 *
 * Ranks are real execution contexts: by default they run *concurrently*,
 * multiplexed over the shared ThreadPool (one parallel region per
 * timestep phase, the region boundaries standing in for the blocking
 * collectives of a real MPI run); `EngineConfig::rankExec` Sequential
 * (`MDBENCH_RANK_EXEC=seq`) retains the one-rank-at-a-time loop as
 * the bitwise oracle. Data movement between subdomains is real (atoms
 * migrate, halos are exchanged, forces fold back), while
 * communication *time* is charged to per-rank virtual clocks through
 * the MpiMachineModel. Physics is therefore bit-honest (validated
 * against serial runs — and the concurrent driver against the
 * sequential one, bitwise) and timing is modeled.
 *
 * With `EngineConfig::commOverlap` (`MDBENCH_COMM_OVERLAP=1`) the halo
 * exchange is nonblocking (modeled Isend/Irecv at the end of each
 * step, Waitall charging only the *exposed* wire time) and overlaps
 * the interior force pass: each rank computes the pairs that read no
 * ghost data while the halo is in flight, then completes the boundary
 * pairs after it lands (DESIGN.md §17). Decomposed ranks always run
 * the split interior/boundary arithmetic, so overlap on/off and
 * sequential/concurrent execution all produce bitwise-identical
 * trajectories.
 *
 * Limitations (documented): k-space solvers, EAM (which needs per-atom
 * density communication), and SHAKE clusters are not supported in
 * decomposed native runs; the paper-scale figures for those come from
 * the src/perf platform model.
 */

#ifndef MDBENCH_PARALLEL_RANKED_SIM_H
#define MDBENCH_PARALLEL_RANKED_SIM_H

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "md/simulation.h"
#include "parallel/decomp.h"
#include "parallel/mpi_model.h"

namespace mdbench {

class RankedSimulation;

/**
 * Communication layer of one rank inside a RankedSimulation.
 */
class RankComm : public CommLayer
{
  public:
    RankComm(RankedSimulation &parent, int rank);

    void exchange(Simulation &sim) override;
    void borders(Simulation &sim) override;
    void forwardPositions(Simulation &sim) override;
    void reverseForces(Simulation &sim) override;
    void forwardScalar(Simulation &sim, std::vector<double> &values) override;
    void reverseScalar(Simulation &sim, std::vector<double> &values) override;

  private:
    friend class RankedSimulation;

    /** Cross-rank ghost record. */
    struct GhostRecord
    {
        int srcRank;
        std::uint32_t srcIndex;
        std::array<std::int8_t, 3> image;
    };

    /**
     * Reverse-exchange record: another rank holds a ghost copy of one
     * of our owned atoms. The owner *pulls* the accumulated ghost force
     * home and zeroes the holder's slot — each slot has exactly one
     * owner, so concurrent ranks' pulls touch disjoint memory, and the
     * (holderRank, ghostSlot) ascending build order fixes the fold
     * order independently of scheduling.
     */
    struct PullRecord
    {
        int holderRank;
        std::uint32_t ghostSlot;  ///< index into the holder's ghost range
        std::uint32_t ownedIndex; ///< our owned atom receiving the force
    };

    /** Copy fresh owner positions (and, for styles that read them,
     * velocities/spin) into our ghost slots — the data movement of
     * forwardPositions, without the charge. */
    void copyHalo(Simulation &sim);

    /** Wire bytes per ghost atom of a forward exchange: x always, v and
     * omega only when the rank's pair style reads ghost velocities
     * (LAMMPS's comm_x_only optimization). */
    std::size_t
    perGhostBytes() const
    {
        return haloVelocities_ ? 9 * sizeof(double) : 3 * sizeof(double);
    }

    RankedSimulation &parent_;
    int rank_;
    std::vector<GhostRecord> ghosts_;
    std::vector<PullRecord> incoming_;

    /** True when per-step halo copies must include v and omega
     * (granular styles; see PairStyle::needsGhostVelocities). */
    bool haloVelocities_ = true;

    /** Halo bytes received from each source rank per forward exchange
     * (size nranks; 0 for non-sources). Rebuilt with the ghosts. */
    std::vector<std::size_t> bytesFromSource_;
    /** Ranks with bytesFromSource_ > 0, ascending (Waitall iterates
     * this instead of scanning all nranks). */
    std::vector<int> sourceRanks_;
    int sourceCount_ = 0; ///< ranks we receive halo data from
};

/**
 * Driver that steps all ranks through each timestep phase in lockstep.
 */
class RankedSimulation
{
  public:
    /**
     * Partition @p global (a fully built serial system: box, atoms,
     * topology, units, dt) across @p nranks subdomains. Every rank
     * starts from a copy of global.config, whose rankExec and
     * commOverlap set this driver's execution knobs.
     *
     * @param configureRank Callback that installs the pair/bond styles
     *        and fixes on each rank's Simulation (called once per rank
     *        after partitioning).
     */
    RankedSimulation(Simulation &global, int nranks,
                     const std::function<void(Simulation &)> &configureRank,
                     MpiMachineModel machine = {});

    /** Prepare all ranks (ghosts, lists, initial forces, fixes). */
    void setup();

    /** Advance all ranks @p nsteps timesteps in lockstep. */
    void run(long nsteps);

    int nranks() const { return static_cast<int>(sims_.size()); }
    Simulation &rank(int r) { return *sims_[r]; }
    const Simulation &rank(int r) const { return *sims_[r]; }
    const Decomposition &decomposition() const { return decomp_; }

    // -- execution knobs ---------------------------------------------------

    /** Schedule ranks sequentially (oracle) or concurrently. */
    void setExecution(RankExecution exec) { exec_ = exec; }
    RankExecution execution() const { return exec_; }

    /** Overlap halo exchange with the interior force pass. */
    void setCommOverlap(bool on) { overlap_ = on; }
    bool commOverlap() const { return overlap_; }

    // -- results -----------------------------------------------------------

    /** Simulated per-rank MPI time accounting. */
    const MpiStats &mpiStats() const { return mpiStats_; }

    /** Per-rank virtual clocks (compute measured, comm modeled). */
    const std::vector<double> &clocks() const { return clocks_; }

    /** Virtual wall time of the run so far (slowest rank). */
    double virtualTime() const;

    /** Sum of all ranks' task timers (Table 1 breakdown). */
    TaskTimer aggregateTaskTimer() const;

    /** Total owned atoms across ranks (conservation checks). */
    std::size_t totalAtoms() const;

    /** Copy all owned atoms back into @p out (sorted by tag). */
    void gather(Simulation &out) const;

    /** Bytes exchanged so far (forward + reverse + migration). */
    std::size_t
    commBytes() const
    {
        return commBytes_.load(std::memory_order_relaxed);
    }

  private:
    friend class RankComm;

    // Serial (between-region) orchestration.
    void migrateAtoms();
    void sortAtoms();
    void rebuildGhosts();
    void assignTopology();
    void synchronizeClocks(MpiFunction blockedIn);

    /**
     * Run @p fn(rank) for every rank: a loop in sequential mode, one
     * ThreadPool region in concurrent mode. The region boundary is the
     * barrier standing in for a blocking collective — per-rank work
     * inside a region may read other ranks' data only if no rank
     * mutates it within the same region.
     */
    void forRanks(const std::function<void(int)> &fn);

    // Per-rank step program (shared by both execution modes; each call
    // touches only rank-local state plus the cross-rank reads/writes
    // documented on the reverse/forward exchanges).
    void rankIntegrate(int r);      ///< ++step, first half, rebuild vote
    void rankPostHalo(int r);       ///< post modeled Isend/Irecv
    void rankForwardBlocking(int r);///< blocking halo copy + Send charge
    void rankBuildNeighbors(int r); ///< neighbor list rebuild
    void rankForces(int r, bool haloInFlight); ///< zero+interior[+wait+copy]+boundary
    void rankReverse(int r);        ///< pull ghost forces home
    void rankFinal(int r);          ///< second half + thermo

    /** Charge the modeled Waitall: the exposed part of the in-flight
     * halo wire time, given when each source posted its send. */
    void completeHaloRecv(int r);

    /** Counter/stat bookkeeping with explicit modeled seconds. */
    void chargeCommTime(int rank, MpiFunction fn, double seconds,
                        std::size_t bytes, int messages);

    /** chargeCommTime with seconds = messages·latency + bytes/bandwidth. */
    void chargeComm(int rank, MpiFunction fn, std::size_t bytes,
                    int messages);

    Box globalBox_;
    Topology globalTopology_;
    Decomposition decomp_;
    MpiMachineModel machine_;
    std::vector<std::unique_ptr<Simulation>> sims_;
    std::vector<RankComm *> comms_; ///< borrowed from sims_
    MpiStats mpiStats_;
    std::vector<double> clocks_;

    RankExecution exec_; ///< from the global Simulation's config
    bool overlap_;       ///< from the global Simulation's config

    /** Clock snapshot each rank took when posting its halo sends (read
     * by receivers' Waitall in the following region). */
    std::vector<double> postClock_;

    /** Per-rank reneighbor votes gathered at the collective decision. */
    std::vector<std::uint8_t> rebuildVote_;

    /** Halo bytes each rank sends per forward exchange. */
    std::vector<std::size_t> outBytes_;

    /** Ranks each rank sends halo data to. */
    std::vector<int> destCount_;

    /** Ceiling of the previous synchronizeClocks (monotonicity check). */
    double lastSyncClock_ = 0.0;

    std::atomic<std::size_t> commBytes_{0};
    bool setupDone_ = false;
};

} // namespace mdbench

#endif // MDBENCH_PARALLEL_RANKED_SIM_H
