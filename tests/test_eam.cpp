/**
 * @file
 * EAM potential correctness: spline interpolation, two-pass density
 * bookkeeping, force-energy consistency, and copper-solid stability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "forcefield/pair_eam.h"
#include "forcefield/spline.h"
#include "md/fix_nve.h"
#include "md/lattice.h"
#include "md/simulation.h"
#include "md/velocity.h"
#include "util/rng.h"
#include "util/simd.h"

namespace mdbench {
namespace {

/** Cu fcc solid with the synthetic EAM tables, metal units. */
Simulation
makeCopper(int cells)
{
    Simulation sim;
    buildFcc(sim, cells, cells, cells, 3.615);
    sim.units = Units::metal();
    sim.atoms.typeParams[1].mass = 63.546;
    sim.pair = std::make_unique<PairEAM>(EamTables::makeSyntheticCopper());
    sim.neighbor.skin = 1.0;
    sim.dt = 0.002; // ps
    sim.thermoEvery = 0;
    return sim;
}

TEST(Spline, ReproducesSmoothFunction)
{
    const int n = 200;
    const double x0 = 0.0;
    const double dx = 0.05;
    std::vector<double> samples(n);
    for (int i = 0; i < n; ++i)
        samples[i] = std::sin(x0 + i * dx);
    CubicSpline spline(x0, dx, samples);
    for (double x : {0.31, 1.7, 4.44, 7.9}) {
        EXPECT_NEAR(spline.value(x), std::sin(x), 1e-5);
        EXPECT_NEAR(spline.derivative(x), std::cos(x), 1e-3);
    }
}

TEST(Spline, ExactAtKnots)
{
    CubicSpline spline(1.0, 0.5, {2.0, 3.0, 5.0, 4.0, 1.0});
    EXPECT_NEAR(spline.value(1.0), 2.0, 1e-12);
    EXPECT_NEAR(spline.value(2.0), 5.0, 1e-12);
    EXPECT_NEAR(spline.value(3.0), 1.0, 1e-12);
}

TEST(Spline, ClampsOutsideRange)
{
    CubicSpline spline(0.0, 1.0, {1.0, 2.0, 3.0});
    EXPECT_EQ(spline.value(-5.0), spline.value(0.0));
    EXPECT_EQ(spline.derivative(-5.0), spline.derivative(0.0));
    EXPECT_EQ(spline.value(10.0), spline.value(spline.xMax()));
    EXPECT_EQ(spline.derivative(10.0), spline.derivative(spline.xMax()));
}

/**
 * An irregular O(1) table on a power-of-two grid: knots, 1/dx and the
 * local coordinate are exact, so the value just below a knot is
 * evaluated on the interval to its left.
 */
CubicSpline
wavySpline()
{
    const double x0 = 1.0;
    const double dx = 0.125;
    std::vector<double> samples(64);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double x = x0 + static_cast<double>(i) * dx;
        samples[i] = std::sin(1.3 * x) + 0.5 * std::cos(4.1 * x) + 0.2 * x;
    }
    return CubicSpline(x0, dx, samples);
}

TEST(Spline, DerivativeMatchesFiniteDifference)
{
    const CubicSpline spline = wavySpline();
    const double h = 1e-6;
    // Points well inside their intervals, so x +- h share the cubic.
    for (double x = 1.03; x < spline.xMax(); x += 0.125) {
        const double central =
            (spline.value(x + h) - spline.value(x - h)) / (2.0 * h);
        EXPECT_NEAR(spline.derivative(x), central, 1e-8) << x;
    }
}

TEST(Spline, ContinuousAcrossInteriorKnots)
{
    const CubicSpline spline = wavySpline();
    const double inf = std::numeric_limits<double>::infinity();
    for (double knot = 1.125; knot < spline.xMax(); knot += 0.125) {
        // The largest double below the knot lies on the left interval
        // at t = 1 - O(1e-16); the knot itself is t = 0 on the right.
        const double below = std::nextafter(knot, -inf);
        double leftV, leftD, rightV, rightD;
        spline.eval(below, leftV, leftD);
        spline.eval(knot, rightV, rightD);
        EXPECT_NEAR(leftV, rightV, 1e-12 * std::max(1.0, std::fabs(rightV)))
            << knot;
        EXPECT_NEAR(leftD, rightD, 1e-12 * std::max(1.0, std::fabs(rightD)))
            << knot;
    }
}

/** Every lane of a W-wide eval against CubicSpline::eval. */
template <int W>
void
expectSimdEvalMatchesScalar(const CubicSpline &spline)
{
    using D = Simd<double, W>;
    const CubicSpline::View view = spline.view();
    // Abscissae sweep past both ends, so clamped lanes are covered.
    std::vector<double> xs;
    for (double x = 0.0; x < spline.xMax() + 1.0; x += 0.0173)
        xs.push_back(x);
    while (xs.size() % W != 0)
        xs.push_back(spline.xMax() + 5.0);
    for (std::size_t k = 0; k < xs.size(); k += W) {
        D value, deriv;
        evalSplineSimd<double, W>(view, D::loadu(xs.data() + k), value,
                                  deriv);
        alignas(64) double v[W], d[W];
        value.storeu(v);
        deriv.storeu(d);
        for (int l = 0; l < W; ++l) {
            double refV, refD;
            spline.eval(xs[k + l], refV, refD);
            if (kSimdCompiledWidth == 1) {
                // No FMA codegen: the same expressions, bit for bit.
                EXPECT_EQ(v[l], refV) << "W " << W << " x " << xs[k + l];
                EXPECT_EQ(d[l], refD) << "W " << W << " x " << xs[k + l];
            } else {
                EXPECT_NEAR(v[l], refV, 1e-13)
                    << "W " << W << " x " << xs[k + l];
                EXPECT_NEAR(d[l], refD, 1e-13)
                    << "W " << W << " x " << xs[k + l];
            }
        }
    }
}

TEST(Spline, SimdEvalMatchesScalarAtEveryWidth)
{
    const CubicSpline spline = wavySpline();
    expectSimdEvalMatchesScalar<1>(spline);
    expectSimdEvalMatchesScalar<2>(spline);
    expectSimdEvalMatchesScalar<4>(spline);
    expectSimdEvalMatchesScalar<8>(spline);
}

TEST(EamTables, PairTermVanishesAtCutoff)
{
    const EamTables tables = EamTables::makeSyntheticCopper();
    EXPECT_NEAR(tables.phi.value(tables.cutoff), 0.0, 1e-8);
    EXPECT_NEAR(tables.phi.derivative(tables.cutoff), 0.0, 1e-3);
    EXPECT_NEAR(tables.rho.value(tables.cutoff), 0.0, 1e-8);
}

TEST(EamTables, DensityDecreasesWithDistance)
{
    const EamTables tables = EamTables::makeSyntheticCopper();
    double last = tables.rho.value(1.5);
    for (double r = 1.8; r < 4.8; r += 0.3) {
        const double value = tables.rho.value(r);
        EXPECT_LT(value, last) << r;
        last = value;
    }
}

TEST(EamTables, EmbeddingIsNegativeAndConcave)
{
    const EamTables tables = EamTables::makeSyntheticCopper();
    EXPECT_LT(tables.embed.value(1.0), 0.0);
    // sqrt-like: derivative decreases in magnitude with rho.
    EXPECT_LT(std::fabs(tables.embed.derivative(2.0)),
              std::fabs(tables.embed.derivative(0.5)));
}

TEST(PairEam, CohesiveEnergyIsNegative)
{
    Simulation sim = makeCopper(4);
    sim.setup();
    const double perAtom =
        sim.pair->energy() / static_cast<double>(sim.atoms.nlocal());
    // A bound metallic solid: several eV of cohesion per atom.
    EXPECT_LT(perAtom, -0.5);
    EXPECT_GT(perAtom, -10.0);
}

TEST(PairEam, LatticeForcesVanishBySymmetry)
{
    Simulation sim = makeCopper(4);
    sim.setup();
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        EXPECT_NEAR(sim.atoms.f[i].norm(), 0.0, 1e-8) << i;
}

TEST(PairEam, HostDensityNearTwelveNeighborValue)
{
    Simulation sim = makeCopper(4);
    sim.setup();
    auto &eam = static_cast<PairEAM &>(*sim.pair);
    // All lattice sites are equivalent: densities must be equal.
    const double rho0 = eam.hostDensity(0);
    EXPECT_GT(rho0, 0.0);
    for (std::size_t i = 1; i < 20; ++i)
        EXPECT_NEAR(eam.hostDensity(i), rho0, 1e-10);
}

TEST(PairEam, ForceIsMinusEnergyGradient)
{
    Simulation sim = makeCopper(4);
    // Perturb atoms so forces are nonzero.
    Rng rng(55);
    for (auto &pos : sim.atoms.x)
        pos += Vec3{rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                    rng.uniform(-0.1, 0.1)};
    sim.setup();

    auto energyAt = [&](std::size_t atom, int axis, double delta) {
        Vec3 &pos = sim.atoms.x[atom];
        double *coord = axis == 0 ? &pos.x : axis == 1 ? &pos.y : &pos.z;
        const double saved = *coord;
        *coord = saved + delta;
        sim.reneighbor();
        sim.computeForces();
        const double energy = sim.pair->energy();
        *coord = saved;
        return energy;
    };

    sim.reneighbor();
    sim.computeForces();
    std::vector<Vec3> forces(sim.atoms.f.begin(),
                             sim.atoms.f.begin() + sim.atoms.nlocal());

    const double h = 1e-5;
    for (std::size_t atom : {0u, 5u, 17u}) {
        for (int axis = 0; axis < 3; ++axis) {
            const double numeric =
                -(energyAt(atom, axis, h) - energyAt(atom, axis, -h)) /
                (2.0 * h);
            const double analytic = axis == 0   ? forces[atom].x
                                    : axis == 1 ? forces[atom].y
                                                : forces[atom].z;
            EXPECT_NEAR(numeric, analytic,
                        2e-3 * std::max(1.0, std::fabs(analytic)))
                << "atom " << atom << " axis " << axis;
        }
    }
}

TEST(PairEam, SolidStaysBoundUnderNVE)
{
    Simulation sim = makeCopper(4);
    Rng rng(77);
    createVelocities(sim, 300.0, rng); // kelvin
    sim.addFix<FixNVE>();
    sim.setup();
    const double e0 = sim.kineticEnergy() + sim.potentialEnergy();
    sim.run(200);
    const double e1 = sim.kineticEnergy() + sim.potentialEnergy();
    EXPECT_NEAR(e1, e0, 5e-3 * std::fabs(e0));
    // Still a solid: temperature bounded, atoms near lattice sites.
    EXPECT_LT(sim.temperature(), 900.0);
}

TEST(PairEam, NewtonThirdLawTotalForceZero)
{
    Simulation sim = makeCopper(4);
    Rng rng(3);
    for (auto &pos : sim.atoms.x)
        pos += Vec3{rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15),
                    rng.uniform(-0.15, 0.15)};
    sim.setup();
    Vec3 total{};
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        total += sim.atoms.f[i];
    EXPECT_NEAR(total.norm(), 0.0, 1e-8);
}

} // namespace
} // namespace mdbench
