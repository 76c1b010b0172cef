/**
 * @file
 * SHAKE/RATTLE constraint correctness: rigid 3-site molecules stay
 * rigid under dynamics, velocities stay on the constraint manifold,
 * degrees of freedom are removed, and energy behaves.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "forcefield/pair_lj_cut.h"
#include "md/fix_nve.h"
#include "md/fix_shake.h"
#include "md/simulation.h"
#include "md/velocity.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

constexpr double kBondOH = 0.9572; // TIP3P-like geometry (arbitrary units)
constexpr double kAngleHOH = 104.52 * M_PI / 180.0;

/** Add one rigid 3-site molecule at @p center; returns the first tag. */
std::int64_t
addWater(Simulation &sim, const Vec3 &center, std::int64_t firstTag)
{
    const double hh =
        2.0 * kBondOH * std::sin(kAngleHOH / 2.0); // H-H distance
    const std::size_t o = sim.atoms.addAtom(firstTag, 1, center);
    const std::size_t h1 = sim.atoms.addAtom(
        firstTag + 1, 2,
        center + Vec3{kBondOH * std::sin(kAngleHOH / 2),
                      kBondOH * std::cos(kAngleHOH / 2), 0});
    const std::size_t h2 = sim.atoms.addAtom(
        firstTag + 2, 2,
        center + Vec3{-kBondOH * std::sin(kAngleHOH / 2),
                      kBondOH * std::cos(kAngleHOH / 2), 0});
    sim.atoms.molecule[o] = firstTag;
    sim.atoms.molecule[h1] = firstTag;
    sim.atoms.molecule[h2] = firstTag;

    ShakeCluster cluster;
    cluster.tags = {firstTag, firstTag + 1, firstTag + 2};
    cluster.constraints = {{0, 1, kBondOH}, {0, 2, kBondOH}, {1, 2, hh}};
    sim.topology.shakeClusters.push_back(cluster);
    return firstTag + 3;
}

/** Grid of rigid molecules with LJ on the central site. */
Simulation
makeWaterBox(int n, double spacing)
{
    Simulation sim;
    const double length = n * spacing;
    sim.box = Box({0, 0, 0}, {length, length, length});
    sim.atoms.setNumTypes(2);
    sim.atoms.typeParams[1].mass = 16.0;
    sim.atoms.typeParams[2].mass = 1.0;
    std::int64_t tag = 1;
    for (int iz = 0; iz < n; ++iz)
        for (int iy = 0; iy < n; ++iy)
            for (int ix = 0; ix < n; ++ix)
                tag = addWater(sim,
                               {(ix + 0.35) * spacing, (iy + 0.35) * spacing,
                                (iz + 0.35) * spacing},
                               tag);
    auto pair = std::make_unique<PairLJCut>(2, 2.8);
    pair->setCoeff(1, 1, 0.15, 2.2);
    pair->setCoeff(2, 2, 0.0, 1.0);
    pair->mix(MixRule::Arithmetic);
    sim.pair = std::move(pair);
    sim.neighbor.skin = 0.4;
    sim.dt = 0.002;
    sim.thermoEvery = 0;
    return sim;
}

double
maxConstraintViolation(const Simulation &sim)
{
    double worst = 0.0;
    for (const auto &cluster : sim.topology.shakeClusters) {
        for (const auto &con : cluster.constraints) {
            const auto a = sim.topology.indexOf(cluster.tags[con.i]);
            const auto b = sim.topology.indexOf(cluster.tags[con.j]);
            const double r =
                sim.box.minimumImage(sim.atoms.x[a] - sim.atoms.x[b]).norm();
            worst = std::max(worst,
                             std::fabs(r - con.distance) / con.distance);
        }
    }
    return worst;
}

TEST(Shake, ConstraintsHoldUnderDynamics)
{
    Simulation sim = makeWaterBox(3, 3.2);
    Rng rng(22);
    createVelocities(sim, 0.5, rng);
    sim.addFix<FixNVE>();
    sim.addFix<FixShake>(1e-8);
    sim.setup();
    sim.run(300);
    EXPECT_LT(maxConstraintViolation(sim), 1e-4);
}

TEST(Shake, VelocitiesOrthogonalToConstraints)
{
    Simulation sim = makeWaterBox(2, 3.2);
    Rng rng(23);
    createVelocities(sim, 0.5, rng);
    sim.addFix<FixNVE>();
    sim.addFix<FixShake>(1e-10);
    sim.setup();
    sim.run(50);
    for (const auto &cluster : sim.topology.shakeClusters) {
        for (const auto &con : cluster.constraints) {
            const auto a = sim.topology.indexOf(cluster.tags[con.i]);
            const auto b = sim.topology.indexOf(cluster.tags[con.j]);
            const Vec3 rab =
                sim.box.minimumImage(sim.atoms.x[a] - sim.atoms.x[b]);
            const Vec3 vab = sim.atoms.v[a] - sim.atoms.v[b];
            // Relative velocity along the bond ~ 0 (RATTLE).
            EXPECT_NEAR(rab.dot(vab) / rab.norm(), 0.0, 1e-6);
        }
    }
}

TEST(Shake, RemovesThreeDofPerRigidTriatomic)
{
    Simulation sim = makeWaterBox(2, 3.2);
    sim.addFix<FixNVE>();
    auto &shake = sim.addFix<FixShake>();
    const long molecules = 2 * 2 * 2;
    EXPECT_EQ(shake.removedDof(sim), 3 * molecules);
    const long atoms = 3 * molecules;
    EXPECT_EQ(sim.degreesOfFreedom(), 3 * atoms - 3 - 3 * molecules);
}

TEST(Shake, SetupProjectsOffManifoldInput)
{
    Simulation sim = makeWaterBox(2, 3.2);
    // Perturb a hydrogen off the rigid geometry.
    sim.atoms.x[1] += Vec3{0.05, -0.03, 0.02};
    sim.addFix<FixNVE>();
    sim.addFix<FixShake>(1e-8);
    sim.setup();
    EXPECT_LT(maxConstraintViolation(sim), 1e-4);
}

TEST(Shake, EnergyStableOverLongRun)
{
    Simulation sim = makeWaterBox(3, 3.2);
    Rng rng(29);
    createVelocities(sim, 0.4, rng);
    sim.addFix<FixNVE>();
    sim.addFix<FixShake>(1e-8);
    sim.setup();
    const double e0 = sim.kineticEnergy() + sim.potentialEnergy();
    sim.run(500);
    const double e1 = sim.kineticEnergy() + sim.potentialEnergy();
    // Constraint forces do no work; total energy drifts only mildly.
    EXPECT_NEAR(e1, e0, 0.05 * std::max(1.0, std::fabs(e0)));
}

TEST(Shake, ResidualReportedBelowTolerance)
{
    Simulation sim = makeWaterBox(2, 3.2);
    Rng rng(31);
    createVelocities(sim, 0.5, rng);
    sim.addFix<FixNVE>();
    auto &shake = sim.addFix<FixShake>(1e-9);
    sim.setup();
    sim.run(20);
    EXPECT_LT(shake.maxResidual(), 1e-8);
}

TEST(Shake, MalformedClusterFailsLoudly)
{
    EXPECT_THROW(FixShake(1e-8, 0), FatalError);

    // Each corruption of the first constraint must stop setup() before
    // any index is used.
    const auto nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<ShakeCluster::Constraint> malformed = {
        {3, 1, kBondOH},  // i past the cluster's three atoms
        {-1, 1, kBondOH}, // negative i
        {0, 3, kBondOH},  // j past the cluster
        {0, -2, kBondOH}, // negative j
        {1, 1, kBondOH},  // an atom constrained to itself
        {0, 1, 0.0},      // zero distance
        {0, 1, -kBondOH}, // negative distance
        {0, 1, nan},      // NaN distance
    };
    for (const auto &con : malformed) {
        SCOPED_TRACE(testing::Message() << con.i << "," << con.j << ","
                                        << con.distance);
        Simulation sim = makeWaterBox(2, 3.2);
        sim.topology.shakeClusters[3].constraints[1] = con;
        sim.addFix<FixNVE>();
        sim.addFix<FixShake>(1e-8);
        EXPECT_THROW(sim.setup(), FatalError);
    }
}

TEST(Shake, SolveIsBitwiseAtAnyThreadCount)
{
    // 216 clusters span several pool slices; 8 threads oversubscribe
    // small runners so slices really interleave.
    struct Result
    {
        std::vector<Vec3> x;
        std::vector<Vec3> v;
        double residual = 0.0;
    };
    auto runAt = [](int nthreads) {
        ThreadPool::setThreads(nthreads);
        Simulation sim = makeWaterBox(6, 3.2);
        Rng rng(37);
        createVelocities(sim, 0.6, rng);
        sim.addFix<FixNVE>();
        auto &shake = sim.addFix<FixShake>(1e-9);
        sim.setup();
        sim.run(60);
        const std::size_t n = sim.atoms.nlocal();
        return Result{{sim.atoms.x.begin(), sim.atoms.x.begin() + n},
                      {sim.atoms.v.begin(), sim.atoms.v.begin() + n},
                      shake.maxResidual()};
    };
    const int before = ThreadPool::threads();
    const Result reference = runAt(1);
    EXPECT_GT(reference.residual, 0.0);
    for (int nthreads : {2, 4, 8}) {
        SCOPED_TRACE(nthreads);
        const Result run = runAt(nthreads);
        EXPECT_EQ(run.residual, reference.residual);
        ASSERT_EQ(run.x.size(), reference.x.size());
        for (std::size_t i = 0; i < reference.x.size(); ++i) {
            EXPECT_EQ(run.x[i].x, reference.x[i].x) << i;
            EXPECT_EQ(run.x[i].y, reference.x[i].y) << i;
            EXPECT_EQ(run.x[i].z, reference.x[i].z) << i;
            EXPECT_EQ(run.v[i].x, reference.v[i].x) << i;
            EXPECT_EQ(run.v[i].y, reference.v[i].y) << i;
            EXPECT_EQ(run.v[i].z, reference.v[i].z) << i;
        }
    }
    ThreadPool::setThreads(before);
}

TEST(Shake, IndicesFollowReneighborAndSort)
{
    // A tiny skin rebuilds the lists every few steps and every rebuild
    // reorders the atoms, so the solver's resolved indices go stale
    // constantly; using a stale index breaks the constraints at once.
    Simulation sim = makeWaterBox(3, 3.2);
    sim.neighbor.skin = 0.02;
    sim.setSortEvery(1);
    Rng rng(41);
    createVelocities(sim, 0.6, rng);
    sim.addFix<FixNVE>();
    sim.addFix<FixShake>(1e-8);
    sim.setup();
    sim.run(200);
    EXPECT_GE(sim.reneighborCount(), 20);
    bool reordered = false;
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        reordered = reordered ||
                    sim.atoms.tag[i] != static_cast<std::int64_t>(i) + 1;
    EXPECT_TRUE(reordered);
    EXPECT_LT(maxConstraintViolation(sim), 1e-4);
}

} // namespace
} // namespace mdbench
