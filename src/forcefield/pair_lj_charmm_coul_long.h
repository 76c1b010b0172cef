/**
 * @file
 * CHARMM Lennard-Jones with switching + long-range-split Coulomb
 * (LAMMPS `pair_style lj/charmm/coul/long`), the short-range force field
 * of the Rhodopsin workload.
 *
 * The LJ term switches smoothly to zero between an inner and outer cutoff
 * (the paper's 8.0-10.0 A); the Coulomb term computes the short-range
 * erfc(g r)/r part of the Ewald/PPPM splitting, with g supplied by the
 * attached k-space solver.
 */

#ifndef MDBENCH_FORCEFIELD_PAIR_LJ_CHARMM_COUL_LONG_H
#define MDBENCH_FORCEFIELD_PAIR_LJ_CHARMM_COUL_LONG_H

#include <vector>

#include "md/styles.h"
#include "md/vec3.h"
#include "md/xpack.h"
#include "util/precision.h"
#include "util/thread_pool.h"

namespace mdbench {

/**
 * lj/charmm/coul/long pair style with arithmetic mixing
 * (`pair_modify mix arithmetic`, as Table 2 of the paper lists).
 */
class PairLJCharmmCoulLong : public PairStyle
{
  public:
    /**
     * @param ntypes   Number of atom types.
     * @param ljInner  Inner LJ cutoff (switching starts here).
     * @param ljOuter  Outer LJ cutoff (LJ is zero beyond).
     * @param coulCut  Coulomb real-space cutoff.
     */
    PairLJCharmmCoulLong(int ntypes, double ljInner, double ljOuter,
                         double coulCut);

    /** Set per-type LJ coefficients (diagonal; off-diagonals are mixed). */
    void setCoeff(int type, double epsilon, double sigma);

    std::string name() const override { return "lj/charmm/coul/long"; }
    double cutoff() const override;
    void compute(Simulation &sim, const NeighborList &list) override;

    /** Coulomb part of the last compute's energy. */
    double coulombEnergy() const { return ecoul_; }

    /** LJ part of the last compute's energy. */
    double ljEnergy() const { return evdwl_; }

  private:
    struct Coeff
    {
        double lj1 = 0.0;
        double lj2 = 0.0;
        double lj3 = 0.0;
        double lj4 = 0.0;
    };

    const Coeff &coeff(int typeA, int typeB) const;

    int ntypes_;
    double ljInner_;
    double ljOuter_;
    double coulCut_;
    std::vector<double> epsilon_; ///< per-type (1-based)
    std::vector<double> sigma_;
    std::vector<Coeff> coeffs_;
    bool coeffsBuilt_ = false;
    double ecoul_ = 0.0;
    double evdwl_ = 0.0;

    /**
     * Float mirror of coeffs_ (same element stride, values cast once)
     * gathered by the float-tier kernels; rebuilt with buildCoeffs.
     */
    std::vector<float> coeffsF_;

    /** Per-slice j-side force buffers (half lists, Newton on). */
    ReduceScratch<Vec3> fscratch_;

    /**
     * Positions + charge repacked as 4-element [x, y, z, q] records
     * (md/xpack.h, pad atom included) in the active tier's `real`
     * type, refilled each compute; feeds loadXyzw so the SIMD kernel
     * loads j positions and charges in one transpose instead of four
     * hardware gathers (and, on float tiers, converts each coordinate
     * and charge once per compute instead of once per pair).
     */
    XPackTiers xpack_;

    void buildCoeffs();

    /**
     * The kernel over list.rows() (DESIGN.md §12-13). All of the
     * per-pair arithmetic is W-wide with masked-cutoff selects,
     * including the Ewald erfc and exp(-grij^2): `erfcExpm2`
     * (util/simd_math.h) evaluates both over the whole group, once per
     * group with any lane inside the Coulomb cutoff. Width 0 runs the
     * double-tier W = 1 instantiation over unpadded rows. P is the
     * precision policy (util/precision.h); per-pair arithmetic runs in
     * P::real, and float tiers take the float exp polynomial.
     * kSingleType hoists the single LJ coefficient set out of both
     * loops and skips the per-pair type gathers; arithmetic is
     * identical on both paths.
     */
    template <typename P, int W, bool kSingleType>
    void computeSimdImpl(Simulation &sim, const NeighborList &list);
};

} // namespace mdbench

#endif // MDBENCH_FORCEFIELD_PAIR_LJ_CHARMM_COUL_LONG_H
