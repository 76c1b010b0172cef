#include "forcefield/pair_lj_cut.h"

#include <cmath>
#include <type_traits>

#include "forcefield/pair_kernel.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/simd.h"

namespace mdbench {

PairLJCut::PairLJCut(int ntypes, double cut, bool shift)
    : ntypes_(ntypes), cutoff_(cut), shift_(shift),
      coeffs_(static_cast<std::size_t>(ntypes + 1) * (ntypes + 1))
{
    require(ntypes >= 1, "lj/cut needs at least one type");
    require(cut > 0.0, "lj/cut cutoff must be positive");
}

PairLJCut::Coeff &
PairLJCut::coeff(int typeA, int typeB)
{
    return coeffs_[static_cast<std::size_t>(typeA) * (ntypes_ + 1) + typeB];
}

const PairLJCut::Coeff &
PairLJCut::coeff(int typeA, int typeB) const
{
    return coeffs_[static_cast<std::size_t>(typeA) * (ntypes_ + 1) + typeB];
}

void
PairLJCut::precompute(Coeff &c) const
{
    // Explicit multiplies, not std::pow(x, 6): integer powers keep the
    // coefficients bitwise-stable across libm versions.
    const double s2 = c.sigma * c.sigma;
    const double s6 = s2 * s2 * s2;
    const double s12 = s6 * s6;
    c.lj1 = 48.0 * c.epsilon * s12;
    c.lj2 = 24.0 * c.epsilon * s6;
    c.lj3 = 4.0 * c.epsilon * s12;
    c.lj4 = 4.0 * c.epsilon * s6;
    if (shift_) {
        const double rc2 = cutoff_ * cutoff_;
        const double rc6 = rc2 * rc2 * rc2;
        c.eshift = c.lj3 / (rc6 * rc6) - c.lj4 / rc6;
    } else {
        c.eshift = 0.0;
    }
    c.set = true;
}

void
PairLJCut::setCoeff(int typeA, int typeB, double epsilon, double sigma)
{
    require(typeA >= 1 && typeA <= ntypes_ && typeB >= 1 && typeB <= ntypes_,
            "lj/cut type out of range");
    Coeff c;
    c.epsilon = epsilon;
    c.sigma = sigma;
    precompute(c);
    coeff(typeA, typeB) = c;
    coeff(typeB, typeA) = c;
    coeffsFDirty_ = true;
}

void
PairLJCut::refreshFloatCoeffs()
{
    if (!coeffsFDirty_)
        return;
    constexpr std::size_t stride = sizeof(Coeff) / sizeof(double);
    const double *src = reinterpret_cast<const double *>(coeffs_.data());
    coeffsF_.assign(coeffs_.size() * stride, 0.0f);
    // Cast the numeric leading fields once (lj1..eshift, epsilon,
    // sigma); the trailing `set` flag slot stays zero.
    for (std::size_t e = 0; e < coeffs_.size(); ++e) {
        for (std::size_t cpt = 0; cpt < 7; ++cpt) {
            coeffsF_[e * stride + cpt] =
                static_cast<float>(src[e * stride + cpt]);
        }
    }
    coeffsFDirty_ = false;
}

void
PairLJCut::mix(MixRule rule)
{
    for (int a = 1; a <= ntypes_; ++a) {
        for (int b = a + 1; b <= ntypes_; ++b) {
            if (coeff(a, b).set)
                continue;
            const Coeff &ca = coeff(a, a);
            const Coeff &cb = coeff(b, b);
            require(ca.set && cb.set,
                    "cannot mix: diagonal coefficients missing");
            const double eps = std::sqrt(ca.epsilon * cb.epsilon);
            const double sigma = rule == MixRule::Arithmetic
                                     ? 0.5 * (ca.sigma + cb.sigma)
                                     : std::sqrt(ca.sigma * cb.sigma);
            setCoeff(a, b, eps, sigma);
        }
    }
}

void
PairLJCut::compute(Simulation &sim, const NeighborList &list)
{
    ensure(list.full, "lj/cut requires a full neighbor list");
    const auto run = [&]<bool kSingleType>() {
        dispatchPairKernel(list, [&]<typename P, int W>() {
            computeSimdImpl<P, W, kSingleType>(sim, list);
        });
    };
    if (ntypes_ == 1)
        run.operator()<true>();
    else
        run.operator()<false>();
}

template <typename P, int W, bool kSingleType>
void
PairLJCut::computeSimdImpl(Simulation &sim, const NeighborList &list)
{
    using real = typename P::real;
    constexpr bool kDoubleTier = std::is_same_v<real, double>;

    // Coeff gathers index the table as a flat element array: the struct
    // must be exactly a whole number of doubles with lj1..eshift first
    // (the float mirror replicates the same element stride).
    static_assert(sizeof(Coeff) % sizeof(double) == 0);
    static_assert(sizeof(Vec3) == 3 * sizeof(double));
    [[maybe_unused]] constexpr std::uint32_t kCoeffStride =
        sizeof(Coeff) / sizeof(double);

    TraceScope trace("pair", "lj/cut");
    counterAdd(Counter::PairComputes);
    counterAdd(Counter::PairInteractions, list.pairCount());
    countSimdLaneUse(list);
    if constexpr (!kDoubleTier)
        counterAdd(Counter::PairFloatComputes);
    resetAccumulators();
    AtomStore &atoms = sim.atoms;
    const double cutSq = cutoff_ * cutoff_;
    const std::size_t nlocal = atoms.nlocal();

    ThreadPool &pool = ThreadPool::global();
    const SliceRange slices(0, nlocal, forceKernelGrain(nlocal));
    SlicePartials<double> energySlice;
    SlicePartials<double> virialSlice;

    using D = Simd<real, W>;
    using I = SimdIndex<W>;
    using M = SimdMask<real, W>;

    const int *type = atoms.type.data();
    const real *coeffBase;
    if constexpr (kDoubleTier) {
        coeffBase = reinterpret_cast<const double *>(coeffs_.data());
    } else {
        refreshFloatCoeffs();
        coeffBase = coeffsF_.data();
    }
    const Coeff cSingle = coeff(1, 1);
    const NeighborList::Rows rows = list.rows();
    Vec3 *f = atoms.f.data();

    // Stage positions as 4-element records in the tier's `real` type
    // (md/xpack.h) so the inner loop uses transpose loads instead of
    // three hardware gathers per group — and float tiers convert each
    // coordinate exactly once per compute, not once per pair.
    const std::size_t nallPad = atoms.nall() + atoms.npad();
    const real *xpackPtr =
        xpack_.get<real>().stage(atoms.x.data(), nullptr, nallPad);

    pool.run(slices, [&](std::size_t sliceBegin, std::size_t sliceEnd,
                         int s) {
        // Everything the inner loop touches lives in lambda-locals
        // (the hot-loop rule of forcefield/pair_kernel.h).
        const real *const xpk = xpackPtr;
        const std::uint32_t *const pk = rows.neighbors;
        const std::uint32_t *const po = rows.offsets;
        const D cutSqV(static_cast<real>(cutSq));
        const D lj1S(static_cast<real>(cSingle.lj1));
        const D lj2S(static_cast<real>(cSingle.lj2));
        const D lj3S(static_cast<real>(cSingle.lj3));
        const D lj4S(static_cast<real>(cSingle.lj4));
        const D eshS(static_cast<real>(cSingle.eshift));
        TierSums<P, W, 2> sums; // [0] energy, [1] virial
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const real *xiRec = xpk + 4 * i;
            const std::uint32_t rowBase =
                kSingleType ? 0
                            : static_cast<std::uint32_t>(type[i]) *
                                  static_cast<std::uint32_t>(ntypes_ + 1);
            const D xiX(xiRec[0]), xiY(xiRec[1]), xiZ(xiRec[2]);
            D fiX(real(0)), fiY(real(0)), fiZ(real(0));
            const std::uint32_t begin = po[i], end = po[i + 1];
            for (std::uint32_t k = begin; k < end; k += W) {
                D xjX, xjY, xjZ;
                loadXyz(xpk, pk + k, xjX, xjY, xjZ);
                const D dx = xiX - xjX;
                const D dy = xiY - xjY;
                const D dz = xiZ - xjZ;
                // fma association matches Vec3::normSq bitwise on the
                // generic backend (addition order is commutative).
                const D r2 = D::fma(dz, dz, D::fma(dy, dy, dx * dx));
                // No all-rejected early-out: rejected and sentinel lanes
                // contribute exact zeros through the masked factors
                // below, and the branch is almost never taken on a
                // dense list.
                const M mask = r2 < cutSqV;
                D lj1, lj2, lj3, lj4, esh;
                if constexpr (kSingleType) {
                    lj1 = lj1S; lj2 = lj2S; lj3 = lj3S; lj4 = lj4S;
                    esh = eshS;
                } else {
                    const I j = I::load(pk + k);
                    const I cidx =
                        (I::gather32(type, j) + rowBase) * kCoeffStride;
                    lj1 = D::gather(coeffBase, cidx);
                    lj2 = D::gather(coeffBase, cidx + 1u);
                    lj3 = D::gather(coeffBase, cidx + 2u);
                    lj4 = D::gather(coeffBase, cidx + 3u);
                    esh = D::gather(coeffBase, cidx + 4u);
                }
                const D r2inv = D(real(1)) / r2;
                const D r6inv = r2inv * r2inv * r2inv;
                // Masking the force factor (not the accumulator) means
                // rejected and sentinel lanes contribute exact zeros
                // everywhere downstream.
                const D forcelj = D::maskZero(
                    mask, r6inv * D::fms(lj1, r6inv, lj2) * r2inv);
                // Same value as fiX += dx*forcelj (addition order is
                // commutative bitwise), fused on the ISA backends.
                fiX = D::fma(dx, forcelj, fiX);
                fiY = D::fma(dy, forcelj, fiY);
                fiZ = D::fma(dz, forcelj, fiZ);
                // Accumulated unscaled; the 1/2 for visiting each pair
                // twice is applied once at the slice flush. Scaling by
                // a power of two commutes exactly with every rounding
                // step, so this is bitwise identical to scaling each
                // pair term (and saves two multiplies per group).
                sums[0] += D::maskZero(
                    mask, D::fms(r6inv, D::fms(lj3, r6inv, lj4), esh));
                sums[1] = D::fma(forcelj, r2, sums[1]);
            }
            flushRowForce(f[i], fiX, fiY, fiZ);
            sums.endRow();
        }
        energySlice[s] = 0.5 * sums.total(0);
        virialSlice[s] = 0.5 * sums.total(1);
    });
    energy_ = energySlice.fold(slices, energy_);
    virial_ = virialSlice.fold(slices, virial_);
}

} // namespace mdbench
