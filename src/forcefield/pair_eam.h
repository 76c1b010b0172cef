/**
 * @file
 * Embedded Atom Method many-body potential (LAMMPS `pair_style eam`),
 * the force field of the EAM copper workload.
 *
 * The potential is defined by three tabulated functions interpolated with
 * cubic splines, exactly like LAMMPS funcfl tables:
 *   - phi(r):  pairwise repulsion,
 *   - rho(r):  electron-density contribution of a neighbor,
 *   - F(rhoBar): embedding energy of the host density.
 *
 * The paper's experiment uses a proprietary-format Cu table; we generate
 * an equivalent synthetic copper-like table (makeSyntheticCopper) from
 * smooth analytic forms, which exercises the identical two-pass kernel
 * with per-atom density communication.
 */

#ifndef MDBENCH_FORCEFIELD_PAIR_EAM_H
#define MDBENCH_FORCEFIELD_PAIR_EAM_H

#include <vector>

#include "forcefield/spline.h"
#include "md/styles.h"
#include "md/vec3.h"
#include "md/xpack.h"
#include "util/precision.h"
#include "util/thread_pool.h"

namespace mdbench {

/** The three tabulated functions defining a single-element EAM potential. */
struct EamTables
{
    CubicSpline phi;      ///< pair potential phi(r) [energy]
    CubicSpline rho;      ///< density contribution rho(r)
    CubicSpline embed;    ///< embedding energy F(rhoBar)
    double cutoff = 0.0;  ///< radial cutoff of phi and rho

    /**
     * Synthetic copper-like tables: Morse-style pair term, exponentially
     * decaying density, and a Finnis-Sinclair square-root embedding term,
     * tabulated on @p points samples out to @p cutoff Angstrom.
     */
    static EamTables makeSyntheticCopper(double cutoff = 4.95,
                                         int points = 1000);
};

/**
 * Two-pass EAM evaluation over a half neighbor list.
 *
 * Pass 1 accumulates host densities (ghost contributions are folded back
 * to owners through the comm layer); pass 2 computes forces using the
 * embedding derivatives (communicated owner -> ghost).
 */
class PairEAM : public PairStyle
{
  public:
    explicit PairEAM(EamTables tables);

    std::string name() const override { return "eam"; }
    double cutoff() const override { return tables_.cutoff; }
    void compute(Simulation &sim, const NeighborList &list) override;

    /** Host density of owned atom @p i after the last compute. */
    double hostDensity(std::size_t i) const { return rhoBar_[i]; }

  private:
    EamTables tables_;
    std::vector<double> rhoBar_; ///< per-atom host density
    std::vector<double> fp_;     ///< per-atom embedding derivative F'(rho)

    /** Per-slice j-side reduction buffers (half lists, Newton on). */
    ReduceScratch<double> rhoScratch_;
    ReduceScratch<Vec3> fscratch_;

    /**
     * Positions repacked as 4-element records (md/xpack.h, pad atom
     * included) in the active tier's `real` type, refilled each
     * compute; feeds loadXyzw so the radial passes load j positions
     * without hardware gathers. The fourth lane is 0 in pass 1 and
     * F'(rho_j) in pass 2, which folds the fpJ gather into the same
     * transpose load.
     */
    XPackTiers xpack_;

    /**
     * The two-pass kernel over list.rows() (DESIGN.md §12-13): both
     * radial passes gather-evaluate the cubic-spline tables W lanes at
     * a time. fp_ is oversized by the pad slot so sentinel gathers stay
     * in bounds. Width 0 runs the double-tier W = 1 instantiation over
     * the same rows, unpadded.
     *
     * P is the precision policy (util/precision.h): the radial passes
     * — the O(N * neighbors) work — run in P::real lanes over the
     * splines' float coefficient mirrors; the per-atom O(N) F-embedding
     * pass stays in double at every tier (W-wide with a scalar tail
     * on the double tier, plain scalar on float tiers), so rhoBar_ and
     * fp_ always hold double. Host densities and per-atom forces always
     * accumulate in the double scratch arrays.
     */
    template <typename P, int W>
    void computeSimdImpl(Simulation &sim, const NeighborList &list);
};

} // namespace mdbench

#endif // MDBENCH_FORCEFIELD_PAIR_EAM_H
