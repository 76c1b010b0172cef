/**
 * @file
 * Lennard-Jones pair potential with cutoff (LAMMPS `pair_style lj/cut`),
 * the force field of the LJ melt and (in WCA form) Chain workloads.
 */

#ifndef MDBENCH_FORCEFIELD_PAIR_LJ_CUT_H
#define MDBENCH_FORCEFIELD_PAIR_LJ_CUT_H

#include <vector>

#include "md/styles.h"
#include "md/xpack.h"
#include "util/precision.h"

namespace mdbench {

/** Coefficient mixing rules (LAMMPS `pair_modify mix`). */
enum class MixRule { Arithmetic, Geometric };

/**
 * 12-6 Lennard-Jones with a radial cutoff and optional energy shift.
 */
class PairLJCut : public PairStyle
{
  public:
    /**
     * @param ntypes Number of atom types.
     * @param cutoff Global cutoff distance.
     * @param shift  Shift energies so E(cutoff) = 0 (WCA when the cutoff
     *               is at the potential minimum).
     */
    PairLJCut(int ntypes, double cutoff, bool shift = false);

    /** Set epsilon/sigma for a type pair (1-based; symmetric). */
    void setCoeff(int typeA, int typeB, double epsilon, double sigma);

    /** Fill unset off-diagonal coefficients with @p rule mixing. */
    void mix(MixRule rule);

    std::string name() const override { return "lj/cut"; }
    double cutoff() const override { return cutoff_; }
    bool needsFullList() const override { return true; }
    void compute(Simulation &sim, const NeighborList &list) override;

  private:
    struct Coeff
    {
        double lj1 = 0.0;    ///< 48 eps sigma^12
        double lj2 = 0.0;    ///< 24 eps sigma^6
        double lj3 = 0.0;    ///< 4 eps sigma^12
        double lj4 = 0.0;    ///< 4 eps sigma^6
        double eshift = 0.0; ///< energy at the cutoff (subtracted if shift)
        double epsilon = 0.0;
        double sigma = 0.0;
        bool set = false;
    };

    Coeff &coeff(int typeA, int typeB);
    const Coeff &coeff(int typeA, int typeB) const;
    void precompute(Coeff &c) const;

    /**
     * The kernel: W-wide record load / masked-cutoff select /
     * multiply-accumulate groups over the full list's list.rows()
     * (DESIGN.md §12-13). Each pair is visited from both sides and only
     * f[i] is written, so there is no j-side scatter and no per-slice
     * force buffer; energy and virial take the factor 1/2. Width 0 runs the double-tier W = 1 instantiation over unpadded
     * rows. P is the precision policy (util/precision.h); the shared
     * accumulation and flush steps live in forcefield/pair_kernel.h.
     *
     * kSingleType skips the per-pair type lookup entirely (one Coeff
     * hoisted out of both loops) — all five paper workloads have 1-2
     * types, and LJ/Chain/EAM/Chute have one. The arithmetic is
     * identical on both paths, so results are bitwise independent of
     * which one runs.
     */
    template <typename P, int W, bool kSingleType>
    void computeSimdImpl(Simulation &sim, const NeighborList &list);

    /** Rebuild the float coefficient mirror if coefficients changed. */
    void refreshFloatCoeffs();

    int ntypes_;
    double cutoff_;
    bool shift_;
    std::vector<Coeff> coeffs_; ///< (ntypes+1)^2 row-major table

    /**
     * Float mirror of coeffs_ (same element stride, values cast once)
     * gathered by the float-tier kernels; rebuilt lazily after any
     * setCoeff.
     */
    std::vector<float> coeffsF_;
    bool coeffsFDirty_ = true;

    /**
     * Position staging as padded [x, y, z, 0] records (md/xpack.h),
     * refilled each compute in the active tier's `real` type; feeds
     * loadXyzw so the SIMD kernel loads j positions without hardware
     * gathers (and, on float tiers, without per-pair conversions).
     */
    XPackTiers xpack_;
};

} // namespace mdbench

#endif // MDBENCH_FORCEFIELD_PAIR_LJ_CUT_H
