#include "forcefield/pair_lj_charmm_coul_long.h"

#include <cmath>
#include <type_traits>

#include "forcefield/pair_kernel.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/simd.h"
#include "util/simd_math.h"

namespace mdbench {

namespace {
constexpr double kSqrtPiInv2 = 1.1283791670955126; // 2 / sqrt(pi)
} // namespace

PairLJCharmmCoulLong::PairLJCharmmCoulLong(int ntypes, double ljInner,
                                           double ljOuter, double coulCut)
    : ntypes_(ntypes), ljInner_(ljInner), ljOuter_(ljOuter),
      coulCut_(coulCut),
      epsilon_(static_cast<std::size_t>(ntypes) + 1, 0.0),
      sigma_(static_cast<std::size_t>(ntypes) + 1, 0.0),
      coeffs_(static_cast<std::size_t>(ntypes + 1) * (ntypes + 1))
{
    require(ntypes >= 1, "need at least one type");
    require(ljInner > 0.0 && ljOuter > ljInner,
            "charmm switching range must satisfy 0 < inner < outer");
    require(coulCut > 0.0, "coulomb cutoff must be positive");
}

double
PairLJCharmmCoulLong::cutoff() const
{
    return std::max(ljOuter_, coulCut_);
}

void
PairLJCharmmCoulLong::setCoeff(int type, double epsilon, double sigma)
{
    require(type >= 1 && type <= ntypes_, "type out of range");
    epsilon_[type] = epsilon;
    sigma_[type] = sigma;
    coeffsBuilt_ = false;
}

void
PairLJCharmmCoulLong::buildCoeffs()
{
    for (int a = 1; a <= ntypes_; ++a) {
        for (int b = 1; b <= ntypes_; ++b) {
            // Arithmetic (Lorentz-Berthelot) mixing.
            const double eps = std::sqrt(epsilon_[a] * epsilon_[b]);
            const double sigma = 0.5 * (sigma_[a] + sigma_[b]);
            // Explicit multiplies, not std::pow(x, 6): integer powers
            // keep the coefficients bitwise-stable across libm versions.
            const double s2 = sigma * sigma;
            const double s6 = s2 * s2 * s2;
            const double s12 = s6 * s6;
            Coeff c;
            c.lj1 = 48.0 * eps * s12;
            c.lj2 = 24.0 * eps * s6;
            c.lj3 = 4.0 * eps * s12;
            c.lj4 = 4.0 * eps * s6;
            coeffs_[static_cast<std::size_t>(a) * (ntypes_ + 1) + b] = c;
        }
    }
    // Float mirror for the float-tier gathers: same element stride,
    // each coefficient cast exactly once.
    constexpr std::size_t stride = sizeof(Coeff) / sizeof(double);
    coeffsF_.assign(coeffs_.size() * stride, 0.0f);
    for (std::size_t e = 0; e < coeffs_.size(); ++e) {
        const double *src = reinterpret_cast<const double *>(&coeffs_[e]);
        for (std::size_t d = 0; d < stride; ++d)
            coeffsF_[e * stride + d] = static_cast<float>(src[d]);
    }
    coeffsBuilt_ = true;
}

const PairLJCharmmCoulLong::Coeff &
PairLJCharmmCoulLong::coeff(int typeA, int typeB) const
{
    return coeffs_[static_cast<std::size_t>(typeA) * (ntypes_ + 1) + typeB];
}

void
PairLJCharmmCoulLong::compute(Simulation &sim, const NeighborList &list)
{
    const auto run = [&]<bool kSingleType>() {
        dispatchPairKernel(
            list, [&] { computeImpl<kSingleType>(sim, list); },
            [&]<typename P, int W>() {
                computeSimdImpl<P, W, kSingleType>(sim, list);
            });
    };
    if (ntypes_ == 1)
        run.operator()<true>();
    else
        run.operator()<false>();
}

template <bool kSingleType>
void
PairLJCharmmCoulLong::computeImpl(Simulation &sim, const NeighborList &list)
{
    ensure(!list.full, "lj/charmm/coul/long requires a half list");
    TraceScope trace("pair", "lj/charmm/coul/long");
    counterAdd(Counter::PairComputes);
    counterAdd(Counter::PairInteractions, list.pairCount());
    if (!coeffsBuilt_)
        buildCoeffs();
    resetAccumulators();

    AtomStore &atoms = sim.atoms;
    const double qqr2e = sim.units.qqr2e;
    const double g = sim.kspace ? sim.kspace->splittingParameter() : 0.0;
    // Without a k-space solver Coulomb is the plain cutoff form: erfc
    // is exactly 1 (A&S would give 0.999999999 at x = 0).
    const bool ewald = g != 0.0;
    const double cutLJSq = ljOuter_ * ljOuter_;
    const double cutLJInnerSq = ljInner_ * ljInner_;
    const double cutCoulSq = coulCut_ * coulCut_;
    const double cutAllSq = std::max(cutLJSq, cutCoulSq);
    const double switchWidth = cutLJSq - cutLJInnerSq;
    const double denomLJ = switchWidth * switchWidth * switchWidth;

    const std::size_t nlocal = atoms.nlocal();
    ThreadPool &pool = ThreadPool::global();
    const SliceRange slices(0, nlocal, forceKernelGrain(nlocal));
    SlicePartials<double> ecoulSlice;
    SlicePartials<double> evdwlSlice;
    SlicePartials<double> virialSlice;

    const Vec3 *x = atoms.x.data();
    const int *type = atoms.type.data();
    const double *q = atoms.q.data();
    const Coeff *coeffs = coeffs_.data();
    const Coeff cSingle = coeff(1, 1);
    // Every force write goes through the reduction scratch;
    // runAndReduce folds the per-slice partial sums into f in
    // ascending slice order.
    fscratch_.runAndReduce(pool, slices, atoms.nall(), atoms.f.data(), [&](
        std::size_t sliceBegin, std::size_t sliceEnd, int s, int buffer) {
        auto fw = fscratch_.acc(buffer);
        double ecoul = 0.0;
        double evdwl = 0.0;
        double virial = 0.0;
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const Vec3 xi = x[i];
            const double qi = q[i];
            // One 2-D table row per i, not one lookup per pair.
            const Coeff *row =
                kSingleType ? nullptr
                            : coeffs + static_cast<std::size_t>(type[i]) *
                                           (ntypes_ + 1);
            Vec3 fi{};
            const auto [begin, end] = list.range(i);
            for (std::uint32_t k = begin; k < end; ++k) {
                const std::uint32_t j = list.neighbors[k];
                const Vec3 delta = xi - x[j];
                const double rsq = delta.normSq();
                if (rsq >= cutAllSq)
                    continue;
                const double r2inv = 1.0 / rsq;

                double forcecoul = 0.0;
                if (rsq < cutCoulSq && qi != 0.0 && q[j] != 0.0) {
                    const double r = std::sqrt(rsq);
                    const double grij = g * r;
                    // The SIMD kernels' erfc at W = 1 (util/simd_math.h).
                    double erfcVal = 1.0;
                    double expm2 = 0.0;
                    if (ewald) {
                        const auto e = erfcExpm2(Simd<double, 1>(grij));
                        erfcVal = e.erfc.lane(0);
                        expm2 = e.expm2.lane(0);
                    }
                    const double prefactor = qqr2e * qi * q[j] / r;
                    forcecoul =
                        prefactor * (erfcVal + kSqrtPiInv2 * grij * expm2);
                    ecoul += prefactor * erfcVal;
                }

                double forcelj = 0.0;
                if (rsq < cutLJSq) {
                    const Coeff &c = kSingleType ? cSingle : row[type[j]];
                    const double r6inv = r2inv * r2inv * r2inv;
                    forcelj = r6inv * (c.lj1 * r6inv - c.lj2);
                    double philj = r6inv * (c.lj3 * r6inv - c.lj4);
                    if (rsq > cutLJInnerSq) {
                        const double rsw = cutLJSq - rsq;
                        const double switch1 =
                            rsw * rsw * (cutLJSq + 2.0 * rsq -
                                         3.0 * cutLJInnerSq) / denomLJ;
                        const double switch2 = 12.0 * rsq * rsw *
                                               (rsq - cutLJInnerSq) /
                                               denomLJ;
                        forcelj = forcelj * switch1 + philj * switch2;
                        philj *= switch1;
                    }
                    evdwl += philj;
                }

                const double fpair = (forcecoul + forcelj) * r2inv;
                const Vec3 fvec = delta * fpair;
                fi += fvec;
                fw.at(j) -= fvec;
                virial += fpair * rsq;
            }
            fw.at(i) += fi;
        }
        ecoulSlice[s] = ecoul;
        evdwlSlice[s] = evdwl;
        virialSlice[s] = virial;
    });

    ecoul_ = ecoulSlice.fold(slices);
    evdwl_ = evdwlSlice.fold(slices);
    virial_ = virialSlice.fold(slices);
    energy_ = ecoul_ + evdwl_;
}

template <typename P, int W, bool kSingleType>
void
PairLJCharmmCoulLong::computeSimdImpl(Simulation &sim,
                                      const NeighborList &list)
{
    using real = typename P::real;
    constexpr bool kDoubleTier = std::is_same_v<real, double>;

    static_assert(sizeof(Coeff) == 4 * sizeof(double));
    static_assert(sizeof(Vec3) == 3 * sizeof(double));
    [[maybe_unused]] constexpr std::uint32_t kCoeffStride =
        sizeof(Coeff) / sizeof(double);

    ensure(!list.full, "lj/charmm/coul/long requires a half list");
    TraceScope trace("pair", "lj/charmm/coul/long");
    TraceScope simdTrace("pair", "simd");
    counterAdd(Counter::PairComputes);
    counterAdd(Counter::PairInteractions, list.pairCount());
    countSimdLaneUse(list);
    if constexpr (!kDoubleTier)
        counterAdd(Counter::PairFloatComputes);
    if (!coeffsBuilt_)
        buildCoeffs();
    resetAccumulators();

    AtomStore &atoms = sim.atoms;
    const double qqr2e = sim.units.qqr2e;
    const double g = sim.kspace ? sim.kspace->splittingParameter() : 0.0;
    const bool ewald = g != 0.0; // as in computeImpl
    const double cutLJSq = ljOuter_ * ljOuter_;
    const double cutLJInnerSq = ljInner_ * ljInner_;
    const double cutCoulSq = coulCut_ * coulCut_;
    const double cutAllSq = std::max(cutLJSq, cutCoulSq);
    const double switchWidth = cutLJSq - cutLJInnerSq;
    const double denomLJ = switchWidth * switchWidth * switchWidth;

    const std::size_t nlocal = atoms.nlocal();
    ThreadPool &pool = ThreadPool::global();
    const SliceRange slices(0, nlocal, forceKernelGrain(nlocal));
    SlicePartials<double> ecoulSlice;
    SlicePartials<double> evdwlSlice;
    SlicePartials<double> virialSlice;

    using D = Simd<real, W>;
    using I = SimdIndex<W>;
    using M = SimdMask<real, W>;

    const int *type = atoms.type.data();
    const double *q = atoms.q.data();
    const real *coeffBase;
    if constexpr (kDoubleTier)
        coeffBase = reinterpret_cast<const double *>(coeffs_.data());
    else
        coeffBase = coeffsF_.data();
    const Coeff cSingle = coeff(1, 1);
    const std::uint32_t *packed = list.packedNeighbors.data();
    Vec3 *f = atoms.f.data();

    // Stage positions + charge as 4-element [x, y, z, q] records in the
    // tier's `real` type (md/xpack.h) so the inner loop uses transpose
    // loads instead of four hardware gathers per group — and float
    // tiers convert coordinates and charges exactly once per compute.
    const std::size_t nallPad = atoms.nall() + atoms.npad();
    const real *xpackPtr =
        xpack_.get<real>().stage(atoms.x.data(), q, nallPad);

    fscratch_.runAndReduce(pool, slices, atoms.nall(), f, [&](
        std::size_t sliceBegin, std::size_t sliceEnd, int s, int buffer) {
        auto fw = fscratch_.acc(buffer);
        // Everything the inner loop touches lives in lambda-locals
        // (the hot-loop rule of forcefield/pair_kernel.h).
        const real *const xpk = xpackPtr;
        const std::uint32_t *const pk = packed;
        const D cutAllSqV(static_cast<real>(cutAllSq));
        const D cutLJSqV(static_cast<real>(cutLJSq));
        const D cutLJInnerSqV(static_cast<real>(cutLJInnerSq));
        const D cutCoulSqV(static_cast<real>(cutCoulSq));
        // 3 * cutLJInnerSq and the switch-branch constants, formed with
        // the same products the scalar expressions contain (then cast
        // once on float tiers).
        const D threeInnerV(static_cast<real>(3.0 * cutLJInnerSq));
        const D denomLJV(static_cast<real>(denomLJ));
        const D gV(static_cast<real>(g));
        const D kSqrtPiInv2V(static_cast<real>(kSqrtPiInv2));
        const D one(real(1));
        const D two(real(2));
        const D twelve(real(12));
        const D zero(real(0));
        const D lj1S(static_cast<real>(cSingle.lj1));
        const D lj2S(static_cast<real>(cSingle.lj2));
        const D lj3S(static_cast<real>(cSingle.lj3));
        const D lj4S(static_cast<real>(cSingle.lj4));
        TierSums<P, W, 3> sums; // [0] ecoul, [1] evdwl, [2] virial
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const real *xiRec = xpk + 4 * i;
            // Charge in full precision from the source array (the pack
            // record's w narrows on float tiers): (qqr2e * qi) is the
            // exact prefix product of the scalar left-associated
            // prefactor, cast once.
            const double qi = q[i];
            const bool qiNonzero = qi != 0.0;
            const D qqr2eQiV(static_cast<real>(qqr2e * qi));
            const std::uint32_t rowBase =
                kSingleType ? 0
                            : static_cast<std::uint32_t>(type[i]) *
                                  static_cast<std::uint32_t>(ntypes_ + 1);
            const D xiX(xiRec[0]), xiY(xiRec[1]), xiZ(xiRec[2]);
            D fiX(real(0)), fiY(real(0)), fiZ(real(0));
            const auto [begin, end] = list.packedRange(i);
            for (std::uint32_t k = begin; k < end; k += W) {
                D xjX, xjY, xjZ, qj;
                loadXyzw(xpk, pk + k, xjX, xjY, xjZ, qj);
                const D dx = xiX - xjX;
                const D dy = xiY - xjY;
                const D dz = xiZ - xjZ;
                // fma association matches the scalar sum bitwise on the
                // generic backend (addition order is commutative).
                const D rsq = D::fma(dz, dz, D::fma(dy, dy, dx * dx));
                // Scalar `continue`s past cutAllSq; every term below is
                // masked through this (or a tighter) cutoff mask, so
                // those lanes and the sentinel contribute exact zeros.
                const M anyMask = rsq < cutAllSqV;
                const int anyBits = anyMask.bits();
                // All lanes rejected (or pure padding): every term below
                // would be an exact zero, so skipping is bitwise free.
                if (anyBits == 0)
                    continue;
                const D r2inv = one / rsq;

                D forcecoul = zero;
                const M coulMask = (rsq < cutCoulSqV) & (qj != zero);
                if (qiNonzero && coulMask.bits() != 0) {
                    const D r = D::sqrt(rsq);
                    const D grij = gV * r;
                    // erfc and exp(-grij^2) over the whole group. Lanes
                    // outside coulMask (the sentinel included) stay
                    // finite, since expNonPositive clamps its argument
                    // and returns exact zeros far out, and the masks
                    // below drop them.
                    D erfcV = one;
                    D expm2 = zero;
                    if (ewald) {
                        const auto e = erfcExpm2(grij);
                        erfcV = e.erfc;
                        expm2 = e.expm2;
                    }
                    const D prefactor = qqr2eQiV * qj / r;
                    forcecoul = D::maskZero(
                        coulMask,
                        prefactor * (erfcV + kSqrtPiInv2V * grij * expm2));
                    sums[0] += D::maskZero(coulMask, prefactor * erfcV);
                }

                const M ljMask = rsq < cutLJSqV;
                D lj1, lj2, lj3, lj4;
                if constexpr (kSingleType) {
                    lj1 = lj1S; lj2 = lj2S; lj3 = lj3S; lj4 = lj4S;
                } else {
                    const I j = I::load(pk + k);
                    const I cidx =
                        (I::gather32(type, j) + rowBase) * kCoeffStride;
                    lj1 = D::gather(coeffBase, cidx);
                    lj2 = D::gather(coeffBase, cidx + 1u);
                    lj3 = D::gather(coeffBase, cidx + 2u);
                    lj4 = D::gather(coeffBase, cidx + 3u);
                }
                const D r6inv = r2inv * r2inv * r2inv;
                D forcelj = r6inv * (lj1 * r6inv - lj2);
                D philj = r6inv * (lj3 * r6inv - lj4);
                // Switching region: compute the switched values for
                // every lane and select; out-of-range lanes are finite
                // (the pad slot sits ~1e6 box lengths out, far below
                // the overflow threshold of these polynomials).
                const M switchMask = rsq > cutLJInnerSqV;
                const D rsw = cutLJSqV - rsq;
                const D switch1 = rsw * rsw *
                                  (cutLJSqV + two * rsq - threeInnerV) /
                                  denomLJV;
                const D switch2 =
                    twelve * rsq * rsw * (rsq - cutLJInnerSqV) / denomLJV;
                forcelj = D::select(
                    switchMask, forcelj * switch1 + philj * switch2,
                    forcelj);
                philj = D::select(switchMask, philj * switch1, philj);
                forcelj = D::select(ljMask, forcelj, zero);
                sums[1] += D::select(ljMask, philj, zero);

                const D fpair = (forcecoul + forcelj) * r2inv;
                const D fpx = dx * fpair;
                const D fpy = dy * fpair;
                const D fpz = dz * fpair;
                fiX = D::select(anyMask, fiX + fpx, fiX);
                fiY = D::select(anyMask, fiY + fpy, fiY);
                fiZ = D::select(anyMask, fiZ + fpz, fiZ);
                newtonScatter(fw, pk, k, anyBits, fpx, fpy, fpz);
                sums[2] += D::select(anyMask, fpair * rsq, zero);
            }
            flushRowForce(fw.at(i), fiX, fiY, fiZ);
            sums.endRow();
        }
        ecoulSlice[s] = sums.total(0);
        evdwlSlice[s] = sums.total(1);
        virialSlice[s] = sums.total(2);
    });

    ecoul_ = ecoulSlice.fold(slices);
    evdwl_ = evdwlSlice.fold(slices);
    virial_ = virialSlice.fold(slices);
    energy_ = ecoul_ + evdwl_;
}

} // namespace mdbench
