#include "forcefield/pair_lj_cut.h"

#include <array>
#include <bit>
#include <cmath>
#include <type_traits>

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
    if (ntypes_ == 1)
        dispatch<true>(sim, list);
    else
        dispatch<false>(sim, list);
}

template <bool kSingleType>
void
PairLJCut::dispatch(Simulation &sim, const NeighborList &list)
{
    // The list records the precision tier its padded packing was built
    // for (util/precision.h): float tiers run the same kernel
    // instantiated over float lanes, at twice the lane count per ISA
    // level. padWidth 0 (SIMD layer off) takes the scalar double
    // oracle regardless of tier.
    switch (list.packTier) {
      case Precision::Mixed:
        return dispatchWidth<PrecisionMixed, kSingleType>(sim, list);
      case Precision::Single:
        return dispatchWidth<PrecisionSingle, kSingleType>(sim, list);
      default:
        return dispatchWidth<PrecisionDouble, kSingleType>(sim, list);
    }
}

template <typename P, bool kSingleType>
void
PairLJCut::dispatchWidth(Simulation &sim, const NeighborList &list)
{
    // The generic backend compiles every width on every build, so the
    // packed path is exercised even by portable/sanitizer builds when a
    // width is forced; padWidth 0 (SIMD layer off) takes the scalar
    // oracle below. The list flavor is a template parameter so the
    // full-list loop carries no Newton-scatter code at all — compiled
    // in, it inflates register pressure enough to spill the hoisted
    // constants out of the hot loop.
    const bool half = !list.full;
    switch (list.padWidth) {
      case 1:
        return half ? computeSimdImpl<P, 1, kSingleType, true>(sim, list)
                    : computeSimdImpl<P, 1, kSingleType, false>(sim, list);
      case 2:
        return half ? computeSimdImpl<P, 2, kSingleType, true>(sim, list)
                    : computeSimdImpl<P, 2, kSingleType, false>(sim, list);
      case 4:
        return half ? computeSimdImpl<P, 4, kSingleType, true>(sim, list)
                    : computeSimdImpl<P, 4, kSingleType, false>(sim, list);
      case 8:
        return half ? computeSimdImpl<P, 8, kSingleType, true>(sim, list)
                    : computeSimdImpl<P, 8, kSingleType, false>(sim, list);
      case 16:
        return half ? computeSimdImpl<P, 16, kSingleType, true>(sim, list)
                    : computeSimdImpl<P, 16, kSingleType, false>(sim, list);
      default:
        return computeImpl<kSingleType>(sim, list);
    }
}

template <bool kSingleType>
void
PairLJCut::computeImpl(Simulation &sim, const NeighborList &list)
{
    TraceScope trace("pair", "lj/cut");
    counterAdd(Counter::PairComputes);
    counterAdd(Counter::PairInteractions, list.pairCount());
    resetAccumulators();
    AtomStore &atoms = sim.atoms;
    const double cutSq = cutoff_ * cutoff_;
    const std::size_t nlocal = atoms.nlocal();
    // Full lists visit each pair twice; halve shared accumulators and
    // skip the j-side force update (f[i] is then the only force write,
    // so no reduction scratch is needed).
    const bool half = !list.full;
    const double pairScale = half ? 1.0 : 0.5;

    ThreadPool &pool = ThreadPool::global();
    const SliceRange slices(0, nlocal, forceKernelGrain(nlocal));
    std::array<double, SliceRange::kMaxSlices> energySlice{};
    std::array<double, SliceRange::kMaxSlices> virialSlice{};

    const Vec3 *x = atoms.x.data();
    const int *type = atoms.type.data();
    const Coeff *coeffs = coeffs_.data();
    const Coeff cSingle = coeff(1, 1);
    Vec3 *f = atoms.f.data();
    // For half lists every force write — the i-side row sums as well as
    // the j-side pair terms — goes through the reduction scratch, so
    // each f entry receives exactly the per-slice partial sums that
    // runAndReduce folds in ascending slice order. buffer is -1 on the
    // full-list path, where f[i] is the only write and needs no
    // scratch.
    auto kernel = [&](std::size_t sliceBegin, std::size_t sliceEnd, int s,
                      int buffer) {
        ReduceScratch<Vec3>::Accumulator fw;
        if (half)
            fw = fscratch_.acc(buffer);
        double energy = 0.0;
        double virial = 0.0;
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const Vec3 xi = x[i];
            // One 2-D table row per i, not one lookup per pair: the
            // row base replaces the per-pair ti * (ntypes + 1) index
            // arithmetic with a plain type[j] offset.
            const Coeff *row =
                kSingleType ? nullptr
                            : coeffs + static_cast<std::size_t>(type[i]) *
                                           (ntypes_ + 1);
            Vec3 fi{};
            const auto [begin, end] = list.range(i);
            for (std::uint32_t k = begin; k < end; ++k) {
                const std::uint32_t j = list.neighbors[k];
                const Vec3 delta = xi - x[j];
                const double r2 = delta.normSq();
                if (r2 >= cutSq)
                    continue;
                const Coeff &c = kSingleType ? cSingle : row[type[j]];
                const double r2inv = 1.0 / r2;
                const double r6inv = r2inv * r2inv * r2inv;
                const double forcelj =
                    r6inv * (c.lj1 * r6inv - c.lj2) * r2inv;
                const Vec3 fpair = delta * forcelj;
                fi += fpair;
                if (half)
                    fw.at(j) -= fpair;
                energy += pairScale *
                          (r6inv * (c.lj3 * r6inv - c.lj4) - c.eshift);
                virial += pairScale * forcelj * r2;
            }
            if (half)
                fw.at(i) += fi;
            else
                f[i] += fi;
        }
        energySlice[s] = energy;
        virialSlice[s] = virial;
    };
    if (half) {
        fscratch_.runAndReduce(pool, slices, atoms.nall(), f, kernel);
    } else {
        pool.run(slices, [&](std::size_t begin, std::size_t end, int s) {
            kernel(begin, end, s, -1);
        });
    }
    for (int s = 0; s < slices.count(); ++s) {
        energy_ += energySlice[s];
        virial_ += virialSlice[s];
    }
}

template <typename P, int W, bool kSingleType, bool kHalf>
void
PairLJCut::computeSimdImpl(Simulation &sim, const NeighborList &list)
{
    using real = typename P::real;
    using acc = typename P::acc;
    constexpr bool kDoubleTier = std::is_same_v<real, double>;

    // Coeff gathers index the table as a flat element array: the struct
    // must be exactly a whole number of doubles with lj1..eshift first
    // (the float mirror replicates the same element stride).
    static_assert(sizeof(Coeff) % sizeof(double) == 0);
    static_assert(sizeof(Vec3) == 3 * sizeof(double));
    [[maybe_unused]] constexpr std::uint32_t kCoeffStride =
        sizeof(Coeff) / sizeof(double);

    TraceScope trace("pair", "lj/cut");
    TraceScope simdTrace("pair", "simd");
    counterAdd(Counter::PairComputes);
    counterAdd(Counter::PairInteractions, list.pairCount());
    countSimdLaneUse(list);
    if constexpr (!kDoubleTier)
        counterAdd(Counter::PairFloatComputes);
    resetAccumulators();
    AtomStore &atoms = sim.atoms;
    const double cutSq = cutoff_ * cutoff_;
    const std::size_t nlocal = atoms.nlocal();
    // Full lists visit each pair twice; halve shared accumulators.
    const double pairScale = kHalf ? 1.0 : 0.5;

    ThreadPool &pool = ThreadPool::global();
    const SliceRange slices(0, nlocal, forceKernelGrain(nlocal));
    std::array<double, SliceRange::kMaxSlices> energySlice{};
    std::array<double, SliceRange::kMaxSlices> virialSlice{};

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
    const std::uint32_t *packed = list.packedNeighbors.data();
    Vec3 *f = atoms.f.data();

    // Stage positions as 4-element records in the tier's `real` type
    // (md/xpack.h) so the inner loop uses transpose loads instead of
    // three hardware gathers per group — and float tiers convert each
    // coordinate exactly once per compute, not once per pair.
    const std::size_t nallPad = atoms.nall() + atoms.npad();
    const real *xpackPtr = xpack<real>().stage(atoms.x.data(), nullptr,
                                               nallPad);

    auto kernel = [&](std::size_t sliceBegin, std::size_t sliceEnd, int s,
                      int buffer) {
        ReduceScratch<Vec3>::Accumulator fw;
        if constexpr (kHalf)
            fw = fscratch_.acc(buffer);
        // Everything the inner loop touches lives in lambda-locals, not
        // reference captures: the force scatters store through double
        // pointers, and values reached through the closure would have
        // to be conservatively reloaded after every such store.
        const real *const xpk = xpackPtr;
        const std::uint32_t *const pk = packed;
        const D cutSqV(static_cast<real>(cutSq));
        const D lj1S(static_cast<real>(cSingle.lj1));
        const D lj2S(static_cast<real>(cSingle.lj2));
        const D lj3S(static_cast<real>(cSingle.lj3));
        const D lj4S(static_cast<real>(cSingle.lj4));
        const D eshS(static_cast<real>(cSingle.eshift));
        // Energy/virial accumulation (the tier's `acc` rule): the
        // double tier keeps slice-long lane-striped accumulators
        // reduced once per slice — at W = 1 exactly the scalar
        // kernel's running sum, preserved bitwise. Float tiers reset
        // the lane stripes every row and flush the row sum into an
        // `acc` scalar (double for mixed, float for single), bounding
        // float accumulation error at the row length.
        D energyAcc(real(0));
        D virialAcc(real(0));
        acc energyRows = acc(0);
        acc virialRows = acc(0);
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const real *xiRec = xpk + 4 * i;
            const std::uint32_t rowBase =
                kSingleType ? 0
                            : static_cast<std::uint32_t>(type[i]) *
                                  static_cast<std::uint32_t>(ntypes_ + 1);
            const D xiX(xiRec[0]), xiY(xiRec[1]), xiZ(xiRec[2]);
            D fiX(real(0)), fiY(real(0)), fiZ(real(0));
            D rowEnergy(real(0));
            D rowVirial(real(0));
            D &eAcc = kDoubleTier ? energyAcc : rowEnergy;
            D &vAcc = kDoubleTier ? virialAcc : rowVirial;
            const auto [begin, end] = list.packedRange(i);
            for (std::uint32_t k = begin; k < end; k += W) {
                D xjX, xjY, xjZ;
                loadXyz(xpk, pk + k, xjX, xjY, xjZ);
                const D dx = xiX - xjX;
                const D dy = xiY - xjY;
                const D dz = xiZ - xjZ;
                // fma association matches Vec3::normSq bitwise on the
                // generic backend (addition order is commutative).
                const D r2 = D::fma(dz, dz, D::fma(dy, dy, dx * dx));
                const M mask = r2 < cutSqV;
                // Half lists need the active-lane bits for the Newton
                // scatter anyway, so the all-rejected early-out is
                // free there. Full lists drop the movemask + branch:
                // rejected and sentinel lanes contribute exact zeros
                // through the masked factors below, so falling through
                // is bitwise identical and the branch is almost never
                // taken on a dense list.
                [[maybe_unused]] int active = 0;
                if constexpr (kHalf) {
                    active = mask.bits();
                    if (active == 0)
                        continue;
                }
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
                if constexpr (kHalf) {
                    const D fpx = dx * forcelj;
                    const D fpy = dy * forcelj;
                    const D fpz = dz * forcelj;
                    fiX += fpx;
                    fiY += fpy;
                    fiZ += fpz;
                    // Newton scatter: the pair terms are spilled once and
                    // the set-bit walk visits lanes ascending, matching
                    // the scalar kernel's ascending-k order; masked lanes
                    // (incl. the sentinel) are skipped exactly as the
                    // scalar `continue` skips them. Float-tier pair
                    // terms widen here, once per store.
                    alignas(64) real sx[W], sy[W], sz[W];
                    fpx.storeu(sx);
                    fpy.storeu(sy);
                    fpz.storeu(sz);
                    for (int rest = active; rest; rest &= rest - 1) {
                        const int l = std::countr_zero(
                            static_cast<unsigned>(rest));
                        Vec3 &fj = fw.at(pk[k + l]);
                        fj.x -= sx[l];
                        fj.y -= sy[l];
                        fj.z -= sz[l];
                    }
                } else {
                    // Same value as fiX += dx*forcelj (addition order is
                    // commutative bitwise), fused on the ISA backends.
                    fiX = D::fma(dx, forcelj, fiX);
                    fiY = D::fma(dy, forcelj, fiY);
                    fiZ = D::fma(dz, forcelj, fiZ);
                }
                // Accumulated unscaled; the full-list 1/2 double-count
                // factor is applied once at the slice flush. Scaling by
                // a power of two commutes exactly with every rounding
                // step, so this is bitwise identical to scaling each
                // pair term (and saves two multiplies per group).
                eAcc += D::maskZero(
                    mask, D::fms(r6inv, D::fms(lj3, r6inv, lj4), esh));
                vAcc = D::fma(forcelj, r2, vAcc);
            }
            // Row force sums land in the double force arrays — for
            // float tiers this is the once-per-atom widening that
            // makes mixed "float arithmetic, double accumulation".
            real rx, ry, rz;
            sumXyz(fiX, fiY, fiZ, rx, ry, rz);
            if constexpr (kHalf) {
                Vec3 &fi = fw.at(i);
                fi.x += rx;
                fi.y += ry;
                fi.z += rz;
            } else {
                f[i].x += rx;
                f[i].y += ry;
                f[i].z += rz;
            }
            if constexpr (!kDoubleTier) {
                real re, rv;
                sumPair(rowEnergy, rowVirial, re, rv);
                energyRows += static_cast<acc>(re);
                virialRows += static_cast<acc>(rv);
            }
        }
        if constexpr (kDoubleTier) {
            energySlice[s] = pairScale * energyAcc.sum();
            virialSlice[s] = pairScale * virialAcc.sum();
        } else {
            energySlice[s] = pairScale * static_cast<double>(energyRows);
            virialSlice[s] = pairScale * static_cast<double>(virialRows);
        }
    };
    if constexpr (kHalf) {
        fscratch_.runAndReduce(pool, slices, atoms.nall(), f, kernel);
    } else {
        pool.run(slices, [&](std::size_t begin, std::size_t end, int s) {
            kernel(begin, end, s, -1);
        });
    }
    for (int s = 0; s < slices.count(); ++s) {
        energy_ += energySlice[s];
        virial_ += virialSlice[s];
    }
}

} // namespace mdbench
