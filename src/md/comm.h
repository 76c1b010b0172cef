/**
 * @file
 * Communication layer abstraction (ghost atoms, force folding, migration).
 *
 * The MD engine is written against this interface so that the same timestep
 * loop runs in two settings:
 *  - SerialComm: a single domain whose ghosts are periodic images of its
 *    own atoms (this file);
 *  - RankComm (src/parallel): one subdomain of a spatial decomposition
 *    whose ghosts come from neighboring ranks.
 *
 * The "Comm" task of the paper's Table 1 is exactly the time spent inside
 * these methods.
 */

#ifndef MDBENCH_MD_COMM_H
#define MDBENCH_MD_COMM_H

#include <array>
#include <cstdint>
#include <vector>

#include "md/vec3.h"

namespace mdbench {

class Simulation;

/**
 * Abstract ghost/exchange layer.
 */
class CommLayer
{
  public:
    virtual ~CommLayer() = default;

    /**
     * Migrate atoms to their owners and wrap positions into the box.
     * Called only on reneighbor steps, before borders().
     */
    virtual void exchange(Simulation &sim) = 0;

    /**
     * Rebuild the ghost set out to the communication cutoff.
     * Called only on reneighbor steps, after exchange().
     */
    virtual void borders(Simulation &sim) = 0;

    /** Refresh ghost positions (and velocities) from their owners. */
    virtual void forwardPositions(Simulation &sim) = 0;

    /** Fold ghost forces (and torques) into their owners. */
    virtual void reverseForces(Simulation &sim) = 0;

    /** Copy a per-atom scalar from owners to their ghosts. */
    virtual void forwardScalar(Simulation &sim,
                               std::vector<double> &values) = 0;

    /** Accumulate a per-atom scalar from ghosts into their owners. */
    virtual void reverseScalar(Simulation &sim,
                               std::vector<double> &values) = 0;

    /** Ghost cutoff distance used by the last borders() call. */
    double ghostCutoff() const { return ghostCutoff_; }

  protected:
    double ghostCutoff_ = 0.0;
};

/**
 * Single-domain communication: ghosts are periodic images.
 *
 * Each ghost records its owner plus an integer image code per axis in
 * {-1, 0, +1}; positions are re-derived from the owner and the *current*
 * box lengths, so box dilation (NPT) is handled transparently.
 */
class SerialComm : public CommLayer
{
  public:
    void exchange(Simulation &sim) override;
    void borders(Simulation &sim) override;
    void forwardPositions(Simulation &sim) override;
    void reverseForces(Simulation &sim) override;
    void forwardScalar(Simulation &sim, std::vector<double> &values) override;
    void reverseScalar(Simulation &sim, std::vector<double> &values) override;

  private:
    /** Image code of a ghost along each axis, in {-1, 0, +1}. */
    using Image = std::array<std::int8_t, 3>;

    /** Upper bound on the slices borders() collects ghosts over. */
    static constexpr std::size_t kBorderSlices = 16;

    // Owner index and image code of each ghost, parallel to the ghost
    // range.
    std::vector<std::uint32_t> owner_;
    std::vector<Image> image_;
};

} // namespace mdbench

#endif // MDBENCH_MD_COMM_H
