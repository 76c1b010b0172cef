#include "forcefield/pair_eam.h"

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

EamTables
EamTables::makeSyntheticCopper(double cutoff, int points)
{
    require(points >= 16, "EAM table needs a reasonable resolution");

    // Copper-like constants: Morse pair term fitted to Cu dimer data and
    // an exponentially decaying density; both smoothly truncated so value
    // and slope vanish at the cutoff.
    const double morseD = 0.3429;   // eV
    const double morseA = 1.3588;   // 1/A
    const double r0 = 2.866;        // A, Cu dimer distance
    const double rhoAmp = 1.0;
    const double rhoBeta = 3.9;

    auto morse = [&](double r) {
        const double e = std::exp(-morseA * (r - r0));
        return morseD * ((1.0 - e) * (1.0 - e) - 1.0);
    };
    auto morseDeriv = [&](double r) {
        const double e = std::exp(-morseA * (r - r0));
        return 2.0 * morseD * morseA * e * (1.0 - e);
    };
    auto density = [&](double r) {
        return rhoAmp * std::exp(-rhoBeta * (r / r0 - 1.0));
    };
    auto densityDeriv = [&](double r) {
        return -rhoBeta / r0 * density(r);
    };

    const double rMin = 1.0; // below this, clamp (never sampled in a solid)
    const double dr = (cutoff - rMin) / (points - 1);
    std::vector<double> phiSamples(points);
    std::vector<double> rhoSamples(points);
    const double phiC = morse(cutoff);
    const double phiD = morseDeriv(cutoff);
    const double rhoC = density(cutoff);
    const double rhoD = densityDeriv(cutoff);
    for (int i = 0; i < points; ++i) {
        const double r = rMin + i * dr;
        phiSamples[i] = morse(r) - phiC - phiD * (r - cutoff);
        rhoSamples[i] = density(r) - rhoC - rhoD * (r - cutoff);
    }

    // Equilibrium host density: 12 fcc nearest neighbors at a/sqrt(2)
    // with a = 3.615 A.
    const double nn = 3.615 / std::sqrt(2.0);
    const double rhoE = 12.0 * (density(nn) - rhoC - rhoD * (nn - cutoff));
    const double embedF0 = 2.3; // eV-scale embedding strength
    const double rhoMax = 3.0 * rhoE;
    const double drho = rhoMax / (points - 1);
    std::vector<double> embedSamples(points);
    for (int i = 0; i < points; ++i) {
        const double rho = i * drho;
        embedSamples[i] = -embedF0 * std::sqrt(rho / rhoE);
    }

    EamTables tables;
    tables.phi = CubicSpline(rMin, dr, std::move(phiSamples));
    tables.rho = CubicSpline(rMin, dr, std::move(rhoSamples));
    tables.embed = CubicSpline(0.0, drho, std::move(embedSamples));
    tables.cutoff = cutoff;
    return tables;
}

PairEAM::PairEAM(EamTables tables) : tables_(std::move(tables))
{
    require(tables_.cutoff > 0.0, "EAM cutoff must be positive");
}

void
PairEAM::compute(Simulation &sim, const NeighborList &list)
{
    dispatchPairKernel(
        list, [&] { computeImpl(sim, list); },
        [&]<typename P, int W>() { computeSimdImpl<P, W>(sim, list); });
}

void
PairEAM::computeImpl(Simulation &sim, const NeighborList &list)
{
    ensure(!list.full, "eam requires a half neighbor list");
    TraceScope trace("pair", "eam");
    counterAdd(Counter::PairComputes);
    counterAdd(Counter::PairInteractions, list.pairCount());
    resetAccumulators();
    AtomStore &atoms = sim.atoms;
    const std::size_t nlocal = atoms.nlocal();
    const std::size_t nall = atoms.nall();
    const double cutSq = tables_.cutoff * tables_.cutoff;

    ThreadPool &pool = ThreadPool::global();
    const SliceRange slices(0, nlocal, forceKernelGrain(nlocal));
    SlicePartials<double> embedSlice;
    SlicePartials<double> energySlice;
    SlicePartials<double> virialSlice;

    // Pass 1: host electron densities. Both sides of every pair go
    // through the reduction scratch; runAndReduce folds the per-slice
    // partial sums into rhoBar_ in ascending slice order.
    rhoBar_.assign(nall, 0.0);
    const Vec3 *x = atoms.x.data();
    rhoScratch_.runAndReduce(pool, slices, nall, rhoBar_.data(), [&](
        std::size_t sliceBegin, std::size_t sliceEnd, int, int buffer) {
        auto rho = rhoScratch_.acc(buffer);
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const Vec3 xi = x[i];
            double rhoI = 0.0;
            const auto [begin, end] = list.range(i);
            for (std::uint32_t k = begin; k < end; ++k) {
                const std::uint32_t j = list.neighbors[k];
                const double r2 = (xi - x[j]).normSq();
                if (r2 >= cutSq)
                    continue;
                const double contribution =
                    tables_.rho.value(std::sqrt(r2));
                rhoI += contribution;
                rho.at(j) += contribution;
            }
            rho.at(i) += rhoI;
        }
    });
    sim.comm->reverseScalar(sim, rhoBar_);

    // Embedding energies and derivatives for owned atoms, then share the
    // derivatives with ghosts for the force pass. Purely per-atom.
    fp_.assign(nall, 0.0);
    pool.run(slices, [&](std::size_t sliceBegin, std::size_t sliceEnd,
                         int s) {
        double embedEnergy = 0.0;
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            double value;
            double deriv;
            tables_.embed.eval(rhoBar_[i], value, deriv);
            embedEnergy += value;
            fp_[i] = deriv;
        }
        embedSlice[s] = embedEnergy;
    });
    energy_ = embedSlice.fold(slices, energy_);
    sim.comm->forwardScalar(sim, fp_);

    // Pass 2: forces from pair term + density-mediated embedding term.
    const double *fp = fp_.data();
    fscratch_.runAndReduce(pool, slices, nall, atoms.f.data(), [&](
        std::size_t sliceBegin, std::size_t sliceEnd, int s, int buffer) {
        auto fw = fscratch_.acc(buffer);
        double energy = 0.0;
        double virial = 0.0;
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const Vec3 xi = x[i];
            Vec3 fi{};
            const auto [begin, end] = list.range(i);
            for (std::uint32_t k = begin; k < end; ++k) {
                const std::uint32_t j = list.neighbors[k];
                const Vec3 delta = xi - x[j];
                const double r2 = delta.normSq();
                if (r2 >= cutSq)
                    continue;
                const double r = std::sqrt(r2);
                double phiV;
                double phiD;
                tables_.phi.eval(r, phiV, phiD);
                const double rhoD = tables_.rho.derivative(r);
                // -dE/dr along the pair axis.
                const double fScalar = -((fp[i] + fp[j]) * rhoD + phiD);
                const Vec3 fvec = delta * (fScalar / r);
                fi += fvec;
                fw.at(j) -= fvec;
                energy += phiV;
                virial += fScalar * r;
            }
            fw.at(i) += fi;
        }
        energySlice[s] = energy;
        virialSlice[s] = virial;
    });
    energy_ = energySlice.fold(slices, energy_);
    virial_ = virialSlice.fold(slices, virial_);
}

template <typename P, int W>
void
PairEAM::computeSimdImpl(Simulation &sim, const NeighborList &list)
{
    using real = typename P::real;
    constexpr bool kDoubleTier = std::is_same_v<real, double>;

    static_assert(sizeof(Vec3) == 3 * sizeof(double));

    ensure(!list.full, "eam requires a half neighbor list");
    TraceScope trace("pair", "eam");
    TraceScope simdTrace("pair", "simd");
    counterAdd(Counter::PairComputes);
    counterAdd(Counter::PairInteractions, list.pairCount());
    // Both radial passes traverse the packed list, so the SIMD lane
    // accounting charges each pair (and each padded slot) twice.
    countSimdLaneUse(list, 2);
    if constexpr (!kDoubleTier)
        counterAdd(Counter::PairFloatComputes);
    resetAccumulators();
    AtomStore &atoms = sim.atoms;
    const std::size_t nlocal = atoms.nlocal();
    const std::size_t nall = atoms.nall();
    const double cutSq = tables_.cutoff * tables_.cutoff;

    ThreadPool &pool = ThreadPool::global();
    const SliceRange slices(0, nlocal, forceKernelGrain(nlocal));
    SlicePartials<double> embedSlice;
    SlicePartials<double> energySlice;
    SlicePartials<double> virialSlice;

    using D = Simd<real, W>;
    using M = SimdMask<real, W>;
    using SpView = CubicSpline::ViewT<real>;

    const std::uint32_t *packed = list.packedNeighbors.data();
    // Spline views in the tier's `real`: float tiers gather the
    // once-cast coefficient mirrors (spline.h viewF). The embedding
    // table is only evaluated by the double-tier W-wide pass; float
    // tiers keep the per-atom embedding pass in scalar double (see
    // below).
    SpView rhoTab, phiTab;
    [[maybe_unused]] CubicSpline::View embedTab;
    if constexpr (kDoubleTier) {
        rhoTab = tables_.rho.view();
        phiTab = tables_.phi.view();
        embedTab = tables_.embed.view();
    } else {
        rhoTab = tables_.rho.viewF();
        phiTab = tables_.phi.viewF();
    }
    const D cutSqV(static_cast<real>(cutSq));
    const D zero(real(0));
    const D minusOne(real(-1));

    // Stage positions as 4-element records in the tier's `real` type
    // (md/xpack.h) so both radial passes use transpose loads instead
    // of three hardware gathers per group — and float tiers convert
    // each coordinate exactly once per compute. The fourth lane starts
    // 0 and is refilled with F'(rho) before pass 2, folding the fpJ
    // gather into the same transpose.
    const std::size_t nallPad = nall + atoms.npad();
    const real *xpackPtr =
        xpack_.get<real>().stage(atoms.x.data(), nullptr, nallPad);

    // Pass 1: host electron densities, W pairs at a time. The masked
    // contribution is an exact zero for rejected and sentinel lanes, so
    // the lane-striped row accumulator matches the scalar rhoI at W = 1
    // and the per-lane scatter skips exactly the lanes the scalar
    // `continue` skips. Densities always accumulate in the double
    // scratch: the row sum and the per-lane scatters widen float-tier
    // contributions at the store.
    rhoBar_.assign(nall, 0.0);
    rhoScratch_.runAndReduce(pool, slices, nall, rhoBar_.data(), [&](
        std::size_t sliceBegin, std::size_t sliceEnd, int, int buffer) {
        auto rho = rhoScratch_.acc(buffer);
        // Lambda-locals (the hot-loop rule of forcefield/pair_kernel.h).
        const real *const xpk = xpackPtr;
        const std::uint32_t *const pk = packed;
        const SpView rhoSp = rhoTab;
        const D cutSqL(static_cast<real>(cutSq));
        const D zeroL(real(0));
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const real *xiRec = xpk + 4 * i;
            const D xiX(xiRec[0]), xiY(xiRec[1]), xiZ(xiRec[2]);
            D rhoI(real(0));
            const auto [begin, end] = list.packedRange(i);
            for (std::uint32_t k = begin; k < end; k += W) {
                D xjX, xjY, xjZ, xjW;
                loadXyzw(xpk, pk + k, xjX, xjY, xjZ, xjW);
                const D dx = xiX - xjX;
                const D dy = xiY - xjY;
                const D dz = xiZ - xjZ;
                // fma association matches the scalar sum bitwise on the
                // generic backend (addition order is commutative).
                const D r2 = D::fma(dz, dz, D::fma(dy, dy, dx * dx));
                const M mask = r2 < cutSqL;
                const int active = mask.bits();
                // All lanes rejected (or pure padding): the masked
                // contribution would be an exact zero everywhere, so
                // skipping the spline eval is bitwise free.
                if (active == 0)
                    continue;
                const D r = D::sqrt(r2);
                D rhoV, rhoD;
                evalSplineSimd<real, W>(rhoSp, r, rhoV, rhoD);
                const D contribution = D::select(mask, rhoV, zeroL);
                rhoI += contribution;
                newtonScatter(rho, pk, k, active, contribution);
            }
            rho.at(i) += rhoI.sum();
        }
    });
    sim.comm->reverseScalar(sim, rhoBar_);

    // F-embedding pass over the contiguous owned range: per-atom O(N)
    // work kept in double at every tier (rhoBar_ and fp_ stay double —
    // the tiers' float arithmetic covers the O(N * neighbors) radial
    // passes). The double tier runs it W-wide with a scalar tail
    // (scalar eval is lane-for-lane identical to the gathered eval, so
    // the tail changes nothing but the energy summation order, and at
    // W = 1 there is no tail); float tiers run it scalar. fp_ is
    // oversized by the pad slot so pass 2's sentinel gathers stay in
    // bounds; the pad entry stays 0 and forwardScalar ignores it.
    fp_.assign(nall + atoms.npad(), 0.0);
    pool.run(slices, [&](std::size_t sliceBegin, std::size_t sliceEnd,
                         int s) {
        double embedTail = 0.0;
        std::size_t i = sliceBegin;
        if constexpr (kDoubleTier) {
            D embedAcc(0.0);
            for (; i + W <= sliceEnd; i += W) {
                const D rhoHost = D::loadu(rhoBar_.data() + i);
                D value, deriv;
                evalSplineSimd<double, W>(embedTab, rhoHost, value, deriv);
                embedAcc += value;
                deriv.storeu(fp_.data() + i);
            }
            for (; i < sliceEnd; ++i) {
                double value;
                double deriv;
                tables_.embed.eval(rhoBar_[i], value, deriv);
                embedTail += value;
                fp_[i] = deriv;
            }
            // Vector sum first, tail second: the legacy summation
            // order, preserved bitwise.
            embedSlice[s] = embedAcc.sum() + embedTail;
        } else {
            for (; i < sliceEnd; ++i) {
                double value;
                double deriv;
                tables_.embed.eval(rhoBar_[i], value, deriv);
                embedTail += value;
                fp_[i] = deriv;
            }
            embedSlice[s] = embedTail;
        }
    });
    energy_ = embedSlice.fold(slices, energy_);
    sim.comm->forwardScalar(sim, fp_);

    // Pass 2: forces. fScalar is masked (not the accumulators), so
    // rejected and sentinel lanes contribute exact zeros to fi, the
    // energies, and the virial, and are skipped by the Newton scatter.
    const double *fp = fp_.data();
    xpackPtr = xpack_.get<real>().setPayload(fp, nallPad);
    fscratch_.runAndReduce(pool, slices, nall, atoms.f.data(), [&](
        std::size_t sliceBegin, std::size_t sliceEnd, int s, int buffer) {
        auto fw = fscratch_.acc(buffer);
        const real *const xpk = xpackPtr;
        const std::uint32_t *const pk = packed;
        const SpView rhoSp = rhoTab;
        const SpView phiSp = phiTab;
        const D cutSqL(static_cast<real>(cutSq));
        const D zeroL(real(0));
        const D minusOneL(real(-1));
        TierSums<P, W, 2> sums; // [0] energy, [1] virial
        for (std::size_t i = sliceBegin; i < sliceEnd; ++i) {
            const real *xiRec = xpk + 4 * i;
            const D xiX(xiRec[0]), xiY(xiRec[1]), xiZ(xiRec[2]);
            const D fpI(xiRec[3]);
            D fiX(real(0)), fiY(real(0)), fiZ(real(0));
            const auto [begin, end] = list.packedRange(i);
            for (std::uint32_t k = begin; k < end; k += W) {
                D xjX, xjY, xjZ, fpJ;
                loadXyzw(xpk, pk + k, xjX, xjY, xjZ, fpJ);
                const D dx = xiX - xjX;
                const D dy = xiY - xjY;
                const D dz = xiZ - xjZ;
                const D r2 = D::fma(dz, dz, D::fma(dy, dy, dx * dx));
                const M mask = r2 < cutSqL;
                const int active = mask.bits();
                if (active == 0)
                    continue;
                const D r = D::sqrt(r2);
                D phiV, phiD;
                evalSplineSimd<real, W>(phiSp, r, phiV, phiD);
                D rhoV, rhoD;
                evalSplineSimd<real, W>(rhoSp, r, rhoV, rhoD);
                // -x as (-1.0) * x: bitwise identical to the scalar
                // unary minus for every finite value including zeros.
                const D fScalar = D::select(
                    mask, minusOneL * ((fpI + fpJ) * rhoD + phiD), zeroL);
                const D fOverR = fScalar / r;
                const D fpx = dx * fOverR;
                const D fpy = dy * fOverR;
                const D fpz = dz * fOverR;
                fiX += fpx;
                fiY += fpy;
                fiZ += fpz;
                newtonScatter(fw, pk, k, active, fpx, fpy, fpz);
                sums[0] += D::select(mask, phiV, zeroL);
                sums[1] += fScalar * r;
            }
            flushRowForce(fw.at(i), fiX, fiY, fiZ);
            sums.endRow();
        }
        energySlice[s] = sums.total(0);
        virialSlice[s] = sums.total(1);
    });
    energy_ = energySlice.fold(slices, energy_);
    virial_ = virialSlice.fold(slices, virial_);
}

} // namespace mdbench
