/**
 * @file
 * Long-range solver correctness: Ewald against the known NaCl Madelung
 * constant, PPPM against Ewald, the error-threshold -> grid-size
 * planning that drives the paper's Section 7 sensitivity study, and the
 * real-space half of the split in lj/charmm/coul/long.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "forcefield/pair_lj_charmm_coul_long.h"
#include "kspace/ewald.h"
#include "kspace/plan.h"
#include "kspace/pppm.h"
#include "md/lattice.h"
#include "md/fix_nve.h"
#include "md/simulation.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

/**
 * Rocksalt (NaCl) lattice of 2*n^3 ions with nearest-neighbor spacing d,
 * charges +-1, LJ disabled (pure Coulomb).
 */
void
buildRocksalt(Simulation &sim, int n, double d)
{
    const double a = 2.0 * d;
    sim.box = Box({0, 0, 0}, {n * a, n * a, n * a});
    sim.atoms.setNumTypes(2);
    std::int64_t tag = 1;
    for (int iz = 0; iz < 2 * n; ++iz)
        for (int iy = 0; iy < 2 * n; ++iy)
            for (int ix = 0; ix < 2 * n; ++ix) {
                const int sign = (ix + iy + iz) % 2 == 0 ? 1 : -1;
                const std::size_t idx = sim.atoms.addAtom(
                    tag++, sign > 0 ? 1 : 2,
                    {ix * d, iy * d, iz * d});
                sim.atoms.q[idx] = sign;
            }
}

/** Neutral random charge cloud for solver cross-checks. */
void
buildRandomCharges(Simulation &sim, int nPairs, double length,
                   std::uint64_t seed)
{
    sim.box = Box({0, 0, 0}, {length, length, length});
    sim.atoms.setNumTypes(2);
    Rng rng(seed);
    std::int64_t tag = 1;
    for (int i = 0; i < nPairs; ++i) {
        for (int sign : {1, -1}) {
            const std::size_t idx = sim.atoms.addAtom(
                tag++, sign > 0 ? 1 : 2,
                {rng.uniform(0, length), rng.uniform(0, length),
                 rng.uniform(0, length)});
            sim.atoms.q[idx] = sign;
        }
    }
}

/** Attach a Coulomb-only pair style (epsilon = 0 LJ). */
void
attachCoulombPair(Simulation &sim, double cutoff)
{
    auto pair = std::make_unique<PairLJCharmmCoulLong>(2, 0.9 * cutoff,
                                                       0.95 * cutoff,
                                                       cutoff);
    pair->setCoeff(1, 0.0, 1.0);
    pair->setCoeff(2, 0.0, 1.0);
    sim.pair = std::move(pair);
}

TEST(Ewald, NaClMadelungEnergy)
{
    Simulation sim;
    const double d = 1.0;
    buildRocksalt(sim, 3, d); // (2n)^3 = 216 ions, box side 6d
    attachCoulombPair(sim, 2.7);
    sim.kspace = std::make_unique<Ewald>(1e-5);
    sim.neighbor.skin = 0.1;
    sim.setup();

    const double perIon = sim.potentialEnergy() /
                          static_cast<double>(sim.atoms.nlocal());
    // Madelung: E/ion = -1.7475646 q^2 / (2 d) ... energy per ion is
    // -M/2 per ion when counting each pair once; the standard lattice
    // energy is -M q^2 / d per *ion pair*, i.e. -M/(2d) per ion.
    EXPECT_NEAR(perIon, -1.7475646 / (2.0 * d), 2e-3);
}

TEST(Ewald, ForcesVanishOnPerfectLattice)
{
    Simulation sim;
    buildRocksalt(sim, 3, 1.0);
    attachCoulombPair(sim, 2.7);
    sim.kspace = std::make_unique<Ewald>(1e-5);
    sim.neighbor.skin = 0.1;
    sim.setup();
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        EXPECT_NEAR(sim.atoms.f[i].norm(), 0.0, 1e-3) << i;
}

TEST(Ewald, EnergyIndependentOfCutoffSplit)
{
    // The erfc/real + kspace split must sum to the same total for
    // different real-space cutoffs (the g parameter follows the cutoff).
    double energies[2];
    int idx = 0;
    for (double cutoff : {2.0, 2.7}) {
        Simulation sim;
        buildRocksalt(sim, 3, 1.0);
        attachCoulombPair(sim, cutoff);
        sim.kspace = std::make_unique<Ewald>(1e-6);
        sim.neighbor.skin = 0.1;
        sim.setup();
        energies[idx++] = sim.potentialEnergy();
    }
    EXPECT_NEAR(energies[0], energies[1],
                2e-4 * std::fabs(energies[0]));
}

TEST(Pppm, MatchesEwaldEnergy)
{
    double ewaldEnergy = 0.0;
    double pppmEnergy = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        Simulation sim;
        buildRandomCharges(sim, 40, 9.0, 2718);
        attachCoulombPair(sim, 3.5);
        if (pass == 0)
            sim.kspace = std::make_unique<Ewald>(1e-5);
        else
            sim.kspace = std::make_unique<Pppm>(1e-5);
        sim.neighbor.skin = 0.2;
        sim.setup();
        (pass == 0 ? ewaldEnergy : pppmEnergy) = sim.potentialEnergy();
    }
    EXPECT_NEAR(pppmEnergy, ewaldEnergy, 2e-3 * std::fabs(ewaldEnergy));
}

TEST(Pppm, MatchesEwaldForces)
{
    std::vector<Vec3> ewaldForces;
    std::vector<Vec3> pppmForces;
    double fScale = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        Simulation sim;
        buildRandomCharges(sim, 40, 9.0, 31415);
        attachCoulombPair(sim, 3.5);
        if (pass == 0)
            sim.kspace = std::make_unique<Ewald>(1e-5);
        else
            sim.kspace = std::make_unique<Pppm>(1e-5);
        sim.neighbor.skin = 0.2;
        sim.setup();
        auto &dst = pass == 0 ? ewaldForces : pppmForces;
        dst.assign(sim.atoms.f.begin(),
                   sim.atoms.f.begin() + sim.atoms.nlocal());
        if (pass == 0) {
            double sum = 0.0;
            for (const auto &f : dst)
                sum += f.normSq();
            fScale = std::sqrt(sum / dst.size());
        }
    }
    ASSERT_EQ(ewaldForces.size(), pppmForces.size());
    for (std::size_t i = 0; i < ewaldForces.size(); ++i) {
        EXPECT_NEAR((ewaldForces[i] - pppmForces[i]).norm() / fScale, 0.0,
                    2e-2)
            << "atom " << i;
    }
}

TEST(Pppm, TighterThresholdReducesActualError)
{
    // Reference forces from a tight Ewald run.
    std::vector<Vec3> reference;
    {
        Simulation sim;
        buildRandomCharges(sim, 30, 8.0, 999);
        attachCoulombPair(sim, 3.2);
        sim.kspace = std::make_unique<Ewald>(1e-7);
        sim.neighbor.skin = 0.2;
        sim.setup();
        reference.assign(sim.atoms.f.begin(),
                         sim.atoms.f.begin() + sim.atoms.nlocal());
    }
    double rms[2];
    int idx = 0;
    for (double accuracy : {1e-3, 1e-6}) {
        Simulation sim;
        buildRandomCharges(sim, 30, 8.0, 999);
        attachCoulombPair(sim, 3.2);
        sim.kspace = std::make_unique<Pppm>(accuracy);
        sim.neighbor.skin = 0.2;
        sim.setup();
        double sum = 0.0;
        for (std::size_t i = 0; i < reference.size(); ++i)
            sum += (sim.atoms.f[i] - reference[i]).normSq();
        rms[idx++] = std::sqrt(sum / reference.size());
    }
    EXPECT_LT(rms[1], rms[0]);
}

/**
 * Solver-level determinism probe (finer-grained than the end-to-end
 * trajectory checks in test_thread_determinism.cpp): one setup() —
 * pair + kspace compute — per thread count, forces compared bitwise.
 */
void
expectSolverForcesThreadInvariant(bool usePppm)
{
    const int before = ThreadPool::threads();
    std::vector<Vec3> reference;
    for (int nthreads : {1, 2, 4, 8}) {
        SCOPED_TRACE(nthreads);
        ThreadPool::setThreads(nthreads);
        Simulation sim;
        buildRandomCharges(sim, 40, 9.0, 5150);
        attachCoulombPair(sim, 3.5);
        if (usePppm)
            sim.kspace = std::make_unique<Pppm>(1e-5);
        else
            sim.kspace = std::make_unique<Ewald>(1e-5);
        sim.neighbor.skin = 0.2;
        sim.setup();
        if (nthreads == 1) {
            reference.assign(sim.atoms.f.begin(),
                             sim.atoms.f.begin() + sim.atoms.nlocal());
            continue;
        }
        ASSERT_EQ(sim.atoms.nlocal(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_EQ(sim.atoms.f[i].x, reference[i].x) << i;
            EXPECT_EQ(sim.atoms.f[i].y, reference[i].y) << i;
            EXPECT_EQ(sim.atoms.f[i].z, reference[i].z) << i;
        }
    }
    ThreadPool::setThreads(before);
}

TEST(Pppm, ForcesAreThreadCountInvariant)
{
    expectSolverForcesThreadInvariant(true);
}

TEST(Ewald, ForcesAreThreadCountInvariant)
{
    expectSolverForcesThreadInvariant(false);
}

TEST(KspacePlan, GridGrowsWithTighterThreshold)
{
    // The mechanism behind the paper's Figures 10-14: lowering the error
    // threshold inflates the PPPM mesh (more FFT work + communication).
    KspaceProblem problem;
    problem.boxLength = {55.0, 55.0, 55.0};
    problem.natoms = 32000;
    problem.qSqSum = 32000 * 0.5;
    problem.qqr2e = 332.06371;
    problem.cutoff = 10.0;
    long lastPoints = 0;
    for (double accuracy : {1e-4, 1e-5, 1e-6, 1e-7}) {
        problem.accuracy = accuracy;
        const KspacePlan plan = planKspace(problem);
        EXPECT_GT(plan.gridPoints(), lastPoints) << accuracy;
        lastPoints = plan.gridPoints();
        EXPECT_TRUE(isSmooth235(plan.grid[0]));
        EXPECT_TRUE(isSmooth235(plan.grid[1]));
        EXPECT_TRUE(isSmooth235(plan.grid[2]));
    }
}

TEST(KspacePlan, SplittingParameterFollowsLammpsHeuristic)
{
    KspaceProblem problem;
    problem.boxLength = {30, 30, 30};
    problem.natoms = 1000;
    problem.qSqSum = 500.0;
    problem.cutoff = 10.0;
    problem.accuracy = 1e-4;
    const KspacePlan plan = planKspace(problem);
    EXPECT_NEAR(plan.gEwald, (1.35 - 0.15 * std::log(1e-4)) / 10.0, 1e-12);
}

TEST(KspacePlan, EstimatedErrorsBelowTarget)
{
    KspaceProblem problem;
    problem.boxLength = {40, 40, 40};
    problem.natoms = 8000;
    problem.qSqSum = 4000.0;
    problem.qqr2e = 332.06371;
    problem.cutoff = 10.0;
    problem.accuracy = 1e-5;
    const KspacePlan plan = planKspace(problem);
    EXPECT_LE(plan.kspaceError, problem.accuracy * problem.qqr2e * 1.01);
}

TEST(Pppm, StatsReportFourFftsPerStep)
{
    Simulation sim;
    buildRandomCharges(sim, 20, 8.0, 12);
    attachCoulombPair(sim, 3.0);
    auto pppm = std::make_unique<Pppm>(1e-4);
    Pppm *raw = pppm.get();
    sim.kspace = std::move(pppm);
    sim.neighbor.skin = 0.2;
    sim.setup();
    EXPECT_EQ(raw->stats().fftCount, 4);
    EXPECT_GT(raw->stats().gridPoints, 0);
}


class PppmOrders : public ::testing::TestWithParam<int>
{};

TEST_P(PppmOrders, MatchesEwaldAcrossAssignmentOrders)
{
    // The assignment order is a quality knob: every supported order
    // must agree with the Ewald reference within its accuracy class.
    const int order = GetParam();
    std::vector<Vec3> reference;
    double fScale = 0.0;
    {
        Simulation sim;
        buildRandomCharges(sim, 30, 8.5, 777);
        attachCoulombPair(sim, 3.3);
        sim.kspace = std::make_unique<Ewald>(1e-6);
        sim.neighbor.skin = 0.2;
        sim.setup();
        reference.assign(sim.atoms.f.begin(),
                         sim.atoms.f.begin() + sim.atoms.nlocal());
        for (const auto &f : reference)
            fScale += f.normSq();
        fScale = std::sqrt(fScale / reference.size());
    }
    Simulation sim;
    buildRandomCharges(sim, 30, 8.5, 777);
    attachCoulombPair(sim, 3.3);
    sim.kspace = std::make_unique<Pppm>(1e-5, order);
    sim.neighbor.skin = 0.2;
    sim.setup();
    double rmse = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i)
        rmse += (sim.atoms.f[i] - reference[i]).normSq();
    rmse = std::sqrt(rmse / reference.size()) / fScale;
    // Low orders are less accurate on the same mesh; all must stay
    // within a few percent and high orders within a fraction of that.
    EXPECT_LT(rmse, order >= 5 ? 5e-3 : 5e-2) << "order " << order;
}

INSTANTIATE_TEST_SUITE_P(AssignmentOrders, PppmOrders,
                         ::testing::Values(3, 4, 5, 6, 7));

TEST(Pppm, EnergyStableUnderDynamics)
{
    // Run real dynamics with PPPM forces: total energy must be well
    // behaved (no secular heating from force errors).
    Simulation sim;
    buildRandomCharges(sim, 30, 9.0, 4242);
    attachCoulombPair(sim, 3.3);
    // Give the ions LJ cores so they cannot collapse onto each other.
    auto pair = std::make_unique<PairLJCharmmCoulLong>(2, 2.6, 3.0, 3.3);
    pair->setCoeff(1, 0.2, 1.2);
    pair->setCoeff(2, 0.2, 1.2);
    sim.pair = std::move(pair);
    sim.kspace = std::make_unique<Pppm>(1e-5);
    sim.neighbor.skin = 0.3;
    sim.dt = 0.002;
    sim.thermoEvery = 0;
    Rng rng(5);
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        sim.atoms.v[i] = {rng.gaussian() * 0.3, rng.gaussian() * 0.3,
                          rng.gaussian() * 0.3};
    sim.addFix<FixNVE>();
    sim.setup();
    const double e0 = sim.kineticEnergy() + sim.potentialEnergy();
    sim.run(200);
    const double e1 = sim.kineticEnergy() + sim.potentialEnergy();
    EXPECT_NEAR(e1, e0, 0.03 * std::max(1.0, std::fabs(e0)));
}

// ------------------------------------------- lj/charmm/coul/long real space

/** Restore the environment-default SIMD width when a test exits. */
struct WidthGuard
{
    ~WidthGuard() { setSimdWidth(-1); }
};

/**
 * A k-space style that only supplies the splitting parameter: it adds
 * no force or energy, so the pair style's real-space erfc(g r)/r term
 * is all the Coulomb there is.
 */
class SplittingOnly : public KspaceStyle
{
  public:
    explicit SplittingOnly(double g) : g_(g) {}
    std::string name() const override { return "splitting-only"; }
    void setup(Simulation &) override {}
    void compute(Simulation &) override {}
    double splittingParameter() const override { return g_; }
    double accuracy() const override { return 1e-5; }

  private:
    double g_;
};

/**
 * Scalar kernel (width 0) and the compiled width (the generic W = 1
 * kernel on portable builds).
 */
constexpr int kCharmmWidths[] = {0, kSimdCompiledWidth};

TEST(PairCharmm, NoKspaceIsPlainCutoffCoulomb)
{
    // Without a k-space solver erfc is exactly 1; the A&S polynomial
    // would give 0.999999999 at g r = 0, a 1e-9 relative error.
    WidthGuard guard;
    const double qi = 1.0;
    const double qj = -0.5;
    const double r = 1.7;
    for (int width : kCharmmWidths) {
        setSimdWidth(width);
        Simulation sim;
        sim.units = Units::real();
        sim.box = Box({0, 0, 0}, {10, 10, 10});
        sim.atoms.setNumTypes(1);
        sim.atoms.q[sim.atoms.addAtom(1, 1, {4.0, 5.0, 5.0})] = qi;
        sim.atoms.q[sim.atoms.addAtom(2, 1, {4.0 + r, 5.0, 5.0})] = qj;
        auto pair =
            std::make_unique<PairLJCharmmCoulLong>(1, 2.0, 2.5, 3.0);
        pair->setCoeff(1, 0.0, 1.0);
        sim.pair = std::move(pair);
        sim.neighbor.skin = 0.3;
        sim.setup();

        const double qqr2e = sim.units.qqr2e;
        const double force = qqr2e * qi * qj / (r * r);
        const double energy = qqr2e * qi * qj / r;
        EXPECT_NEAR(sim.atoms.f[0].x, -force, 1e-13 * std::fabs(force))
            << "width " << width;
        EXPECT_EQ(sim.atoms.f[0].y, 0.0);
        EXPECT_EQ(sim.atoms.f[0].z, 0.0);
        EXPECT_EQ(sim.atoms.f[1].x, -sim.atoms.f[0].x);
        EXPECT_NEAR(sim.pair->energy(), energy,
                    1e-13 * std::fabs(energy))
            << "width " << width;
    }
}

TEST(PairCharmm, RealSpaceForceIsMinusEnergyGradient)
{
    // Finite-difference check of the real-space Coulomb (g > 0) plus
    // switched LJ. The erfc polynomial is not the exact antiderivative
    // of its force term, so this bounds that inconsistency too.
    WidthGuard guard;
    const double length = 8.0;
    const double ljInner = 2.0;
    const double ljOuter = 2.5;
    for (int width : kCharmmWidths) {
        setSimdWidth(width);
        Simulation sim;
        sim.box = Box({0, 0, 0}, {length, length, length});
        sim.atoms.setNumTypes(2);
        Rng rng(21);
        std::vector<Vec3> placed;
        const auto minImage = [&](double d) {
            return d - length * std::round(d / length);
        };
        while (placed.size() < 60) {
            const Vec3 pos{rng.uniform(0, length), rng.uniform(0, length),
                           rng.uniform(0, length)};
            bool clear = true;
            for (const Vec3 &other : placed) {
                const Vec3 d{minImage(pos.x - other.x),
                             minImage(pos.y - other.y),
                             minImage(pos.z - other.z)};
                clear = clear && d.normSq() > 0.9 * 0.9;
            }
            if (!clear)
                continue;
            const std::size_t idx = sim.atoms.addAtom(
                static_cast<std::int64_t>(placed.size()) + 1,
                placed.size() % 2 ? 2 : 1, pos);
            sim.atoms.q[idx] = rng.uniform(-1.0, 1.0);
            placed.push_back(pos);
        }
        // The switching region ljInner < r < ljOuter must be populated.
        int switched = 0;
        for (std::size_t a = 0; a < placed.size(); ++a)
            for (std::size_t b = a + 1; b < placed.size(); ++b) {
                const Vec3 d{minImage(placed[a].x - placed[b].x),
                             minImage(placed[a].y - placed[b].y),
                             minImage(placed[a].z - placed[b].z)};
                const double rr = d.norm();
                switched += rr > ljInner && rr < ljOuter;
            }
        ASSERT_GT(switched, 10);
        auto pair = std::make_unique<PairLJCharmmCoulLong>(2, ljInner,
                                                           ljOuter, 3.0);
        pair->setCoeff(1, 0.3, 1.0);
        pair->setCoeff(2, 0.2, 1.1);
        sim.pair = std::move(pair);
        sim.kspace = std::make_unique<SplittingOnly>(1.1);
        sim.neighbor.skin = 0.4;
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

        const double h = 1e-6;
        for (std::size_t atom : {0u, 7u, 23u, 59u}) {
            for (int axis = 0; axis < 3; ++axis) {
                const double numeric =
                    -(energyAt(atom, axis, h) - energyAt(atom, axis, -h)) /
                    (2.0 * h);
                const double analytic = axis == 0   ? forces[atom].x
                                        : axis == 1 ? forces[atom].y
                                                    : forces[atom].z;
                EXPECT_NEAR(numeric, analytic,
                            1e-4 * std::max(1.0, std::fabs(analytic)))
                    << "width " << width << " atom " << atom << " axis "
                    << axis;
            }
        }
    }
}

} // namespace
} // namespace mdbench
