/**
 * @file
 * The Simulation: owns all state and runs the Verlet timestep loop of the
 * paper's Figure 1, charging each phase to the Table 1 task it belongs to.
 */

#ifndef MDBENCH_MD_SIMULATION_H
#define MDBENCH_MD_SIMULATION_H

#include <memory>
#include <string>
#include <vector>

#include "md/atoms.h"
#include "md/box.h"
#include "md/comm.h"
#include "md/fix.h"
#include "md/neighbor.h"
#include "md/styles.h"
#include "md/topology.h"
#include "md/units.h"
#include "util/engine_config.h"
#include "util/timer.h"

namespace mdbench {

/** One row of thermodynamic output ("Output" task of Table 1). */
struct ThermoRow
{
    long step = 0;
    double temperature = 0.0;
    double kinetic = 0.0;
    double potential = 0.0;
    double total = 0.0;
    double pressure = 0.0;
    double volume = 0.0;
};

/**
 * A molecular dynamics simulation of one spatial domain.
 *
 * In serial runs the domain is the whole box; in decomposed runs
 * (src/parallel) each rank's Simulation covers one subdomain and a
 * RankComm stitches them together.
 */
class Simulation
{
  public:
    Simulation();

    // -- state ------------------------------------------------------------
    Box box;
    AtomStore atoms;
    Topology topology;
    Units units = Units::lj();
    double dt = 0.005;
    long step = 0;

    // -- styles and fixes ---------------------------------------------------
    std::unique_ptr<PairStyle> pair;
    std::unique_ptr<BondStyle> bondStyle;
    std::unique_ptr<AngleStyle> angleStyle;
    std::unique_ptr<KspaceStyle> kspace;
    std::vector<std::unique_ptr<Fix>> fixes;

    Neighbor neighbor;
    std::unique_ptr<CommLayer> comm;

    /**
     * This simulation's SIMD width, precision tier, sort interval and
     * rank settings, copied from the environment default at
     * construction. setup() checks it; the neighbor list follows a
     * width or tier change at its next build or force call.
     */
    EngineConfig config = EngineConfig::fromEnv();

    /** Add a fix and return a reference to it. */
    template <typename FixT, typename... Args>
    FixT &
    addFix(Args &&...args)
    {
        fixes.push_back(std::make_unique<FixT>(std::forward<Args>(args)...));
        return static_cast<FixT &>(*fixes.back());
    }

    // -- execution ----------------------------------------------------------

    /**
     * Prepare for a run: wrap atoms, build ghosts and neighbor lists,
     * evaluate initial forces, and call every fix's setup().
     */
    void setup();

    /** Advance @p nsteps timesteps. setup() must have been called. */
    void run(long nsteps);

    /** Record thermo output every this many steps (0 = never). */
    int thermoEvery = 100;

    /** Collected thermo rows. */
    const std::vector<ThermoRow> &thermoLog() const { return thermoLog_; }

    /** Per-task time breakdown of all run() calls so far. */
    TaskTimer timer;

    // -- thermodynamics -------------------------------------------------------

    /** Total kinetic energy of owned atoms. */
    double kineticEnergy() const;

    /** Instantaneous temperature from kinetic energy and DOF. */
    double temperature() const;

    /** Potential energy from the last force evaluation. */
    double potentialEnergy() const;

    /** Scalar pressure from kinetic + virial contributions. */
    double pressure() const;

    /** Degrees of freedom (3N - 3 - fix-removed). */
    long degreesOfFreedom() const;

    /** Take one thermo sample now (also used by tests). */
    ThermoRow sampleThermo();

    // -- hooks used by comm/parallel ------------------------------------------

    /** Communication cutoff = pair cutoff + skin (and bond stretch room). */
    double commCutoff() const;

    /** Number of reneighbor events during run(). */
    long reneighborCount() const { return reneighborCount_; }

    /**
     * Threads of the shared pool executing this simulation's pair and
     * neighbor kernels (process-wide; see ThreadPool::setThreads).
     */
    int threadCount() const;

    /** True when setup() has run. */
    bool isSetup() const { return setupDone_; }

    /** Force a reneighbor (exchange + borders + build) now. */
    void reneighbor();

    /**
     * Spatially reorder the owned atoms into neighbor-bin order if the
     * sort policy is due (config.sortEvery; DESIGN.md §10). May only
     * run while no ghosts exist; reneighbor() and the ranked driver
     * call it right after migration, before ghost/list rebuilds. Fixes
     * are notified through Fix::onAtomsReordered.
     * @return true when a reorder was applied.
     */
    bool maybeSortAtoms();

    /** Evaluate all forces for the current positions. */
    void computeForces();

    /**
     * Split force phases for decomposed runs (a rank must not zero its
     * accumulators after a neighbor already folded ghost forces into
     * them): zero -> local -> reverse, each across all ranks in turn.
     */
    void zeroForceAccumulators();
    void computeLocalForces();
    void reverseForceComm();

    /**
     * Overlap-split force phases (DESIGN.md §17). When the Neighbor
     * carries interior/boundary sublists (decomposed ranks), the
     * interior pairs read no ghost data and can run while the halo
     * exchange is in flight; the boundary pairs plus the bonded terms
     * (which may read ghost positions) run after it lands. With the
     * split inactive, computePairInterior() is a no-op and
     * computeBoundaryForces() evaluates everything, so in every mode
     * computeLocalForces() == the two calls in order.
     */
    void computePairInterior();
    void computeBoundaryForces();

    /**
     * Individual timestep phases, public so that a multi-rank driver
     * (parallel::RankedSimulation) can run all ranks through each phase
     * in lockstep. Serial run() composes exactly these.
     */
    void integrateInitial();
    void integrateFinal();

    /** True when the neighbor rebuild criterion fires this step. */
    bool needsReneighbor();

    /** Take the periodic thermo sample if due ("Output" task). */
    void maybeSampleThermo();

  private:
    /** Interior-pass accumulators folded back after the boundary pass. */
    double pairInteriorEnergy_ = 0.0;
    double pairInteriorVirial_ = 0.0;

    std::vector<ThermoRow> thermoLog_;
    std::vector<std::uint32_t> sortOrder_; ///< reusable sort scratch
    long reneighborCount_ = 0;
    bool setupDone_ = false;
};

} // namespace mdbench

#endif // MDBENCH_MD_SIMULATION_H
