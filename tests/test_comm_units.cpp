/**
 * @file
 * Communication-layer and unit-system tests: SerialComm ghost
 * bookkeeping under force folding and scalar exchange, box dilation
 * interplay (NPT), and the lj/metal/real conversion constants.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "forcefield/pair_lj_cut.h"
#include "md/lattice.h"
#include "md/simulation.h"
#include "md/units.h"
#include "util/error.h"
#include "md/velocity.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

Simulation
ghostedSystem()
{
    Simulation sim;
    buildFcc(sim, 5, 5, 5, 1.7);
    sim.neighbor.cutoff = 2.0;
    sim.neighbor.skin = 0.3;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    return sim;
}

TEST(SerialComm, GhostsArePeriodicImages)
{
    Simulation sim = ghostedSystem();
    ASSERT_GT(sim.atoms.nghost(), 0u);
    const Vec3 len = sim.box.lengths();
    for (std::size_t g = sim.atoms.nlocal(); g < sim.atoms.nall(); ++g) {
        const auto owner = static_cast<std::size_t>(sim.atoms.ghostOf[g]);
        const Vec3 delta = sim.atoms.x[g] - sim.atoms.x[owner];
        // Each component is a multiple of the box length (0 or +-L).
        for (double pair : {delta.x / len.x, delta.y / len.y,
                            delta.z / len.z}) {
            EXPECT_NEAR(pair, std::round(pair), 1e-12);
            EXPECT_LE(std::fabs(pair), 1.0 + 1e-12);
        }
        EXPECT_EQ(sim.atoms.tag[g], sim.atoms.tag[owner]);
    }
}

TEST(SerialComm, ForwardTracksOwnersAfterMotion)
{
    Simulation sim = ghostedSystem();
    Rng rng(3);
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        sim.atoms.x[i] += Vec3{rng.uniform(-0.05, 0.05),
                               rng.uniform(-0.05, 0.05),
                               rng.uniform(-0.05, 0.05)};
    sim.comm->forwardPositions(sim);
    const Vec3 len = sim.box.lengths();
    for (std::size_t g = sim.atoms.nlocal(); g < sim.atoms.nall(); ++g) {
        const auto owner = static_cast<std::size_t>(sim.atoms.ghostOf[g]);
        const Vec3 delta = sim.atoms.x[g] - sim.atoms.x[owner];
        EXPECT_NEAR(delta.x / len.x, std::round(delta.x / len.x), 1e-12);
        EXPECT_NEAR(delta.y / len.y, std::round(delta.y / len.y), 1e-12);
        EXPECT_NEAR(delta.z / len.z, std::round(delta.z / len.z), 1e-12);
    }
}

TEST(SerialComm, ForwardAdaptsToBoxDilation)
{
    // NPT dilates the box between rebuilds; ghost images must follow
    // the *current* box lengths.
    Simulation sim = ghostedSystem();
    const Vec3 center = (sim.box.lo() + sim.box.hi()) * 0.5;
    sim.box.dilate(1.02);
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        sim.atoms.x[i] = center + (sim.atoms.x[i] - center) * 1.02;
    sim.comm->forwardPositions(sim);
    const Vec3 len = sim.box.lengths();
    for (std::size_t g = sim.atoms.nlocal(); g < sim.atoms.nall(); ++g) {
        const auto owner = static_cast<std::size_t>(sim.atoms.ghostOf[g]);
        const Vec3 delta = sim.atoms.x[g] - sim.atoms.x[owner];
        EXPECT_NEAR(delta.x / len.x, std::round(delta.x / len.x), 1e-12);
    }
}

TEST(SerialComm, ReverseFoldsForcesOntoOwners)
{
    Simulation sim = ghostedSystem();
    sim.atoms.zeroForces();
    // Deposit a marker force on every ghost.
    for (std::size_t g = sim.atoms.nlocal(); g < sim.atoms.nall(); ++g)
        sim.atoms.f[g] = {1.0, 2.0, 3.0};
    const std::size_t nghost = sim.atoms.nghost();
    sim.comm->reverseForces(sim);
    Vec3 total{};
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        total += sim.atoms.f[i];
    EXPECT_NEAR(total.x, 1.0 * nghost, 1e-9);
    EXPECT_NEAR(total.y, 2.0 * nghost, 1e-9);
    EXPECT_NEAR(total.z, 3.0 * nghost, 1e-9);
    // Ghost accumulators were consumed.
    for (std::size_t g = sim.atoms.nlocal(); g < sim.atoms.nall(); ++g)
        EXPECT_DOUBLE_EQ(sim.atoms.f[g].norm(), 0.0);
}

TEST(SerialComm, ScalarRoundTrip)
{
    Simulation sim = ghostedSystem();
    std::vector<double> values(sim.atoms.nall(), 0.0);
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        values[i] = static_cast<double>(sim.atoms.tag[i]);
    sim.comm->forwardScalar(sim, values);
    for (std::size_t g = sim.atoms.nlocal(); g < sim.atoms.nall(); ++g)
        EXPECT_DOUBLE_EQ(values[g],
                         static_cast<double>(sim.atoms.tag[g]));

    // Reverse: ghosts contribute back, owners accumulate.
    std::vector<double> ones(sim.atoms.nall(), 1.0);
    sim.comm->reverseScalar(sim, ones);
    double sum = 0.0;
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        sum += ones[i];
    EXPECT_NEAR(sum, static_cast<double>(sim.atoms.nlocal() +
                                         sim.atoms.nghost()),
                1e-9);
}

TEST(SerialComm, SmallBoxRejected)
{
    Simulation sim;
    buildFcc(sim, 3, 3, 3, 1.0); // box edge 3
    sim.neighbor.cutoff = 2.0;   // needs edge > 4.6
    sim.neighbor.skin = 0.3;
    sim.comm->exchange(sim);
    EXPECT_THROW(sim.comm->borders(sim), FatalError);
}

/**
 * @p n random atoms with distinct charges, molecule ids, types and
 * velocities in a box of the given edges, ghosted by SerialComm at the
 * given pool size.
 */
Simulation
pooledBorders(int threads, const Vec3 &edges, bool periodicZ, double cut,
              int n)
{
    const int before = ThreadPool::threads();
    ThreadPool::setThreads(threads);
    Simulation sim;
    sim.box = Box({-1.0, 0.5, 2.0}, Vec3{-1.0, 0.5, 2.0} + edges);
    sim.box.setPeriodic(true, true, periodicZ);
    sim.atoms.setNumTypes(3);
    Rng rng(71);
    for (int i = 0; i < n; ++i) {
        const Vec3 p{rng.uniform(sim.box.lo().x, sim.box.hi().x),
                     rng.uniform(sim.box.lo().y, sim.box.hi().y),
                     rng.uniform(sim.box.lo().z, sim.box.hi().z)};
        const std::size_t idx = sim.atoms.addAtom(i + 1, 1 + i % 3, p);
        sim.atoms.q[idx] = rng.uniform(-1.0, 1.0);
        sim.atoms.molecule[idx] = 1 + i / 7;
        sim.atoms.v[idx] = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                            rng.uniform(-1, 1)};
    }
    sim.neighbor.cutoff = cut - 0.3;
    sim.neighbor.skin = 0.3;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    ThreadPool::setThreads(before);
    return sim;
}

/**
 * The ghosts serial addGhost calls make: for each owned atom in
 * order, its images within @p cut of a face, the image code of each
 * axis running 0, +1 (near the low face), -1 (near the high face) with
 * x outermost.
 */
AtomStore
serialBorders(const Simulation &sim, double cut)
{
    AtomStore ref = sim.atoms;
    ref.clearGhosts();
    const Box &box = sim.box;
    const Vec3 len = box.lengths();
    for (std::size_t i = 0; i < ref.nlocal(); ++i) {
        const Vec3 pos = ref.x[i];
        const double p[3] = {pos.x, pos.y, pos.z};
        const double lo[3] = {box.lo().x, box.lo().y, box.lo().z};
        const double hi[3] = {box.hi().x, box.hi().y, box.hi().z};
        std::vector<int> codes[3];
        for (int axis = 0; axis < 3; ++axis) {
            codes[axis] = {0};
            if (box.periodic(axis) && p[axis] - lo[axis] < cut)
                codes[axis].push_back(1);
            if (box.periodic(axis) && hi[axis] - p[axis] < cut)
                codes[axis].push_back(-1);
        }
        for (const int a : codes[0])
            for (const int b : codes[1])
                for (const int c : codes[2])
                    if (a != 0 || b != 0 || c != 0)
                        ref.addGhost(i, {a * len.x, b * len.y, c * len.z});
    }
    return ref;
}

template <class T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(SerialComm, PooledBordersMatchSerialOrder)
{
    // borders() collects ghosts over pool slices and fills them with one
    // bulk append; the ghost arrays must be bitwise those of the serial
    // addGhost loop, in the same order, at every pool size. Cases: a
    // fully periodic box, a non-periodic z axis, and a box just over
    // twice the comm cutoff (most atoms have several images).
    struct Case
    {
        Vec3 edges;
        bool periodicZ;
        double cut;
    };
    for (const Case &c : {Case{{11.0, 9.5, 12.5}, true, 2.2},
                          Case{{11.0, 9.5, 12.5}, false, 2.2},
                          Case{{8.02, 8.4, 9.0}, true, 4.0}}) {
        SCOPED_TRACE(testing::Message() << "z periodic " << c.periodicZ
                                        << " cut " << c.cut);
        const Simulation base = pooledBorders(1, c.edges, c.periodicZ,
                                              c.cut, 6000);
        const AtomStore ref = serialBorders(base, c.cut);
        ASSERT_GT(ref.nghost(), 0u);
        for (const int threads : {1, 2, 4, 8}) {
            SCOPED_TRACE(threads);
            const Simulation sim = pooledBorders(threads, c.edges,
                                                 c.periodicZ, c.cut, 6000);
            const AtomStore &atoms = sim.atoms;
            ASSERT_EQ(atoms.nlocal(), ref.nlocal());
            ASSERT_EQ(atoms.nghost(), ref.nghost());
            EXPECT_TRUE(sameBits(atoms.x, ref.x));
            EXPECT_TRUE(sameBits(atoms.v, ref.v));
            EXPECT_TRUE(sameBits(atoms.tag, ref.tag));
            EXPECT_TRUE(sameBits(atoms.type, ref.type));
            EXPECT_TRUE(sameBits(atoms.q, ref.q));
            EXPECT_TRUE(sameBits(atoms.molecule, ref.molecule));
            EXPECT_TRUE(sameBits(atoms.ghostOf, ref.ghostOf));
            EXPECT_TRUE(sameBits(atoms.f, ref.f));
        }
    }
}

TEST(Units, LjIsAllOnes)
{
    const Units lj = Units::lj();
    EXPECT_DOUBLE_EQ(lj.boltz, 1.0);
    EXPECT_DOUBLE_EQ(lj.mvv2e, 1.0);
    EXPECT_DOUBLE_EQ(lj.ftm2v, 1.0);
    EXPECT_DOUBLE_EQ(lj.qqr2e, 1.0);
}

TEST(Units, MetalConstants)
{
    const Units metal = Units::metal();
    // g/mol * (A/ps)^2 -> eV.
    EXPECT_NEAR(metal.mvv2e, 1.0364269e-4, 1e-9);
    EXPECT_NEAR(metal.mvv2e * metal.ftm2v, 1.0, 1e-12);
    EXPECT_NEAR(metal.boltz, 8.617333e-5, 1e-9);
    EXPECT_NEAR(metal.qqr2e, 14.399645, 1e-5);
}

TEST(Units, RealConstants)
{
    const Units real = Units::real();
    // 1 g/mol * (A/fs)^2 = 1e7 J/mol = 2390.06 kcal/mol.
    EXPECT_NEAR(real.mvv2e, 1e7 / 4184.0, 0.01);
    EXPECT_NEAR(real.boltz, 1.9872e-3, 1e-6);
    EXPECT_NEAR(real.qqr2e, 332.06371, 1e-5);
}

TEST(Units, TemperatureConsistentAcrossSystems)
{
    // Equipartition: velocities sampled at T should read back as T in
    // any unit system.
    for (const Units &units : {Units::metal(), Units::real()}) {
        Simulation sim;
        buildFcc(sim, 4, 4, 4, 3.6);
        sim.units = units;
        sim.atoms.typeParams[1].mass = 55.0;
        Rng rng(42);
        createVelocities(sim, 450.0, rng);
        EXPECT_NEAR(sim.temperature(), 450.0, 1e-9) << units.name;
    }
}

} // namespace
} // namespace mdbench
