/**
 * @file
 * SHAKE/RATTLE holonomic constraints (LAMMPS `fix shake`), used by the
 * Rhodopsin workload to keep solvent molecules rigid.
 *
 * After the unconstrained position update, SHAKE iteratively projects the
 * positions of each cluster back onto the constraint manifold; after the
 * final velocity update, RATTLE removes velocity components along the
 * constrained directions.
 */

#ifndef MDBENCH_MD_FIX_SHAKE_H
#define MDBENCH_MD_FIX_SHAKE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "md/fix.h"
#include "md/vec3.h"

namespace mdbench {

/**
 * Constrains the clusters listed in Topology::shakeClusters.
 *
 * The clusters are resolved from tags to local atom indices once per
 * reneighbor (LAMMPS `shake_atom`/`shake_flag`) and solved in parallel
 * over the thread pool. Clusters share no atoms and each one is solved
 * by a single thread in its fixed Gauss-Seidel order, so positions,
 * velocities and maxResidual() are bitwise identical at any thread
 * count.
 *
 * This fix must be added *after* the integrator fix so that its
 * initialIntegrate() hook sees the already-drifted positions.
 */
class FixShake : public Fix
{
  public:
    /**
     * @param tolerance Relative tolerance on squared distances.
     * @param maxIterations Iteration cap per cluster per step.
     */
    explicit FixShake(double tolerance = 1e-8, int maxIterations = 100);

    std::string name() const override { return "shake"; }
    void setup(Simulation &sim) override;
    void preIntegrate(Simulation &sim) override;
    void initialIntegrate(Simulation &sim) override;
    void finalIntegrate(Simulation &sim) override;
    void onAtomsReordered(Simulation &sim,
                          const std::vector<std::uint32_t> &oldOf) override;
    long removedDof(const Simulation &sim) const override;

    /** Largest relative constraint violation after the last solve. */
    double maxResidual() const { return maxResidual_; }

  private:
    /** A constraint between two slots of the resolved atom arrays. */
    struct SlotConstraint
    {
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        double distance = 0.0;
    };

    /**
     * Resolve the clusters to local indices, unless already done since
     * the last reneighbor.
     */
    void resolveClusters(const Simulation &sim);
    void savePositions(const Simulation &sim);
    void solvePositions(Simulation &sim);
    void solveVelocities(Simulation &sim);

    double tolerance_;
    int maxIterations_;
    double maxResidual_ = 0.0;
    /** Owned positions before the drift, indexed like the atom store. */
    std::vector<Vec3> savedPos_;

    // Clusters resolved to local indices. Cluster c owns constraints
    // [clusterBegin_[c], clusterBegin_[c + 1]); a constraint names two
    // slots, each a local atom index in atom_ with its 1/m in invMass_.
    std::vector<std::uint32_t> clusterBegin_;
    std::vector<std::size_t> atom_;
    std::vector<double> invMass_;
    std::vector<SlotConstraint> constraints_;
    /** reneighborCount() at the last resolve; -1 = stale. */
    long resolvedAt_ = -1;

    // Per-constraint sweep invariants of the running solve: SHAKE's
    // displacement at the saved positions, or RATTLE's (fixed) current
    // displacement and its denominator |rab|^2 (1/ma + 1/mb).
    std::vector<Vec3> rabFixed_;
    std::vector<double> rattleDenom_;
};

} // namespace mdbench

#endif // MDBENCH_MD_FIX_SHAKE_H
