/**
 * @file
 * SHAKE/RATTLE holonomic constraints (LAMMPS `fix shake`), used by the
 * Rhodopsin workload to keep solvent molecules rigid.
 *
 * After the unconstrained position update, SHAKE moves the positions of
 * each cluster back onto the constraint manifold along the saved bond
 * directions; after the final velocity update, RATTLE removes the
 * velocity components along the constrained directions. Both solve all
 * of a cluster's Lagrange multipliers together (LAMMPS `shake3angle`,
 * `vrattle3angle`, generalised to any cluster of up to
 * kMaxClusterConstraints constraints).
 */

#ifndef MDBENCH_MD_FIX_SHAKE_H
#define MDBENCH_MD_FIX_SHAKE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "md/fix.h"
#include "md/vec3.h"

namespace mdbench {

class Box;

/**
 * Constrains the clusters listed in Topology::shakeClusters.
 *
 * The clusters are resolved from tags to local atom indices once per
 * reneighbor (LAMMPS `shake_atom`/`shake_flag`) and solved in parallel
 * over the thread pool. Per cluster of m constraints, SHAKE runs a
 * Newton iteration on the m multipliers alone (an m x m dense solve
 * per iteration, built from the cluster's Gram terms) and then moves
 * the atoms once; RATTLE is one m x m linear solve. Clusters share no
 * atoms and each one is solved by a single thread, so positions,
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
     * Most constraints one cluster may have (a fully rigid 4-atom
     * cluster); larger clusters are fatal() at resolve time.
     */
    static constexpr std::size_t kMaxClusterConstraints = 6;

    /**
     * @param tolerance Relative tolerance on squared distances.
     * @param maxIterations Newton iteration cap per cluster per step.
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

    /** The relative tolerance on squared distances. */
    double tolerance() const { return tolerance_; }

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
    /**
     * SHAKE cluster @p c; returns its Newton iteration count and raises
     * @p worst to its largest relative residual.
     */
    int solveClusterPositions(std::size_t c, const Box &box, Vec3 *x,
                              Vec3 *v, double invDt, double &worst) const;
    /** RATTLE cluster @p c. */
    void solveClusterVelocities(std::size_t c, const Box &box,
                                const Vec3 *x, Vec3 *v) const;
    /** Mass coupling of constraints @p p and @p k (symmetric). */
    double coupling(const SlotConstraint &p, const SlotConstraint &k) const;

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
};

} // namespace mdbench

#endif // MDBENCH_MD_FIX_SHAKE_H
