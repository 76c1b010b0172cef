/**
 * @file
 * Bitwise reproducibility of the threaded force/neighbor pipeline: the
 * same trajectory, forces, energies, and virials must come out of a run
 * at any thread count. This is the determinism contract of SliceRange +
 * ReduceScratch (see util/thread_pool.h) checked end-to-end through the
 * real kernels.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/suite.h"
#include "env_guard.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "util/engine_config.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

/** Everything a run can leak order-dependence into. */
struct RunResult
{
    std::vector<Vec3> forces;
    std::vector<Vec3> positions;
    std::vector<Vec3> velocities;
    double pairEnergy = 0.0;
    double pairVirial = 0.0;
    double potential = 0.0;
};

RunResult
runAt(int nthreads, const std::function<std::unique_ptr<Simulation>()> &build,
      long nsteps)
{
    ThreadPool::setThreads(nthreads);
    auto sim = build();
    sim->thermoEvery = 0;
    sim->setup();
    sim->run(nsteps);
    RunResult result;
    const std::size_t nlocal = sim->atoms.nlocal();
    result.forces.assign(sim->atoms.f.begin(),
                         sim->atoms.f.begin() + nlocal);
    result.positions.assign(sim->atoms.x.begin(),
                            sim->atoms.x.begin() + nlocal);
    result.velocities.assign(sim->atoms.v.begin(),
                             sim->atoms.v.begin() + nlocal);
    result.pairEnergy = sim->pair->energy();
    result.pairVirial = sim->pair->virial();
    result.potential = sim->potentialEnergy();
    return result;
}

void
expectBitwiseReproducible(
    const std::function<std::unique_ptr<Simulation>()> &build, long nsteps)
{
    const int before = ThreadPool::threads();
    const RunResult reference = runAt(1, build, nsteps);
    for (int nthreads : {2, 4, 8}) {
        SCOPED_TRACE(nthreads);
        const RunResult run = runAt(nthreads, build, nsteps);
        // EXPECT_EQ on doubles is exact: any reordering of the floating
        // point sums shows up here.
        EXPECT_EQ(run.pairEnergy, reference.pairEnergy);
        EXPECT_EQ(run.pairVirial, reference.pairVirial);
        EXPECT_EQ(run.potential, reference.potential);
        ASSERT_EQ(run.forces.size(), reference.forces.size());
        for (std::size_t i = 0; i < reference.forces.size(); ++i) {
            EXPECT_EQ(run.forces[i].x, reference.forces[i].x) << i;
            EXPECT_EQ(run.forces[i].y, reference.forces[i].y) << i;
            EXPECT_EQ(run.forces[i].z, reference.forces[i].z) << i;
            EXPECT_EQ(run.positions[i].x, reference.positions[i].x) << i;
            EXPECT_EQ(run.positions[i].y, reference.positions[i].y) << i;
            EXPECT_EQ(run.positions[i].z, reference.positions[i].z) << i;
            // Velocities carry the last step's RATTLE projection, which
            // no position or force check would see.
            EXPECT_EQ(run.velocities[i].x, reference.velocities[i].x) << i;
            EXPECT_EQ(run.velocities[i].y, reference.velocities[i].y) << i;
            EXPECT_EQ(run.velocities[i].z, reference.velocities[i].z) << i;
        }
    }
    ThreadPool::setThreads(before);
}

TEST(ThreadDeterminism, LJMeltIsBitwiseReproducible)
{
    expectBitwiseReproducible([] { return buildLJ(5); }, 25);
}

TEST(ThreadDeterminism, EamCopperIsBitwiseReproducible)
{
    expectBitwiseReproducible([] { return buildEAM(4); }, 25);
}

TEST(ThreadDeterminism, RhodoProxyIsBitwiseReproducible)
{
    // CHARMM LJ + Ewald-split coulomb + PPPM + SHAKE + NPT, the full
    // feature stack, over enough steps to cross a neighbor rebuild.
    expectBitwiseReproducible([] { return buildRhodoProxy(8); }, 10);
}

TEST(ThreadDeterminism, GranularFullListIsBitwiseReproducible)
{
    // Chute uses full lists (no reduction scratch): the direct-write
    // path must be just as reproducible.
    expectBitwiseReproducible([] { return buildChute(4, 4, 3); }, 25);
}

// The threaded k-space pipeline: make_rho's plane-slab scatter, the
// line-parallel FFTs, the poisson mode loop, and interp must all keep
// the trajectory bitwise identical at any thread count. The Rhodo proxy
// test above covers PPPM at the default 1e-4 threshold; these pin the
// denser-grid and Ewald paths explicitly.

TEST(ThreadDeterminism, PppmTightAccuracyIsBitwiseReproducible)
{
    // Tighter threshold -> denser mesh -> more FFT lines and plane
    // slabs than the default-accuracy proxy run exercises.
    expectBitwiseReproducible(
        [] {
            SuiteOptions options;
            options.kspaceAccuracy = 1e-6;
            return buildRhodoProxy(8, options);
        },
        5);
}

TEST(ThreadDeterminism, EwaldIsBitwiseReproducible)
{
    // The k-sliced structure-factor loop reduces every atom's force
    // over all k vectors through the shared ReduceScratch.
    expectBitwiseReproducible(
        [] {
            SuiteOptions options;
            options.useEwaldInsteadOfPppm = true;
            return buildRhodoProxy(8, options);
        },
        3);
}

// Spatial sorting recomputes the permutation serially from positions
// that are themselves bitwise-identical across thread counts, so a
// sorted run must stay exactly as reproducible as an unsorted one.

TEST(ThreadDeterminism, LJMeltWithEnvSortingIsBitwiseReproducible)
{
    // The config MDBENCH_SORT_EVERY=5 gives; the environment is read
    // (not cached) inside the guard only.
    const EngineConfig config = [] {
        EnvGuard env("MDBENCH_SORT_EVERY", "5");
        return EngineEnv::read().config;
    }();
    ASSERT_EQ(config.sortEvery, 5);
    expectBitwiseReproducible(
        [&config] {
            auto sim = buildLJ(5);
            sim->config = config;
            return sim;
        },
        80);
}

TEST(ThreadDeterminism, LJMeltWithFrequentSortingIsBitwiseReproducible)
{
    expectBitwiseReproducible(
        [] {
            auto sim = buildLJ(5);
            sim->config.sortEvery = 1;
            return sim;
        },
        50);
}

TEST(ThreadDeterminism, GranularWithSortingIsBitwiseReproducible)
{
    // Shear-history contacts are keyed by tag pairs and must survive
    // the reorder.
    expectBitwiseReproducible(
        [] {
            auto sim = buildChute(4, 4, 3);
            sim->config.sortEvery = 1;
            return sim;
        },
        25);
}

TEST(ThreadDeterminism, RhodoProxyWithSortingIsBitwiseReproducible)
{
    // SHAKE clusters, PPPM charge maps, and NPT all see reordered atoms.
    expectBitwiseReproducible(
        [] {
            auto sim = buildRhodoProxy(8);
            sim->config.sortEvery = 1;
            return sim;
        },
        10);
}

// The vectorized neighbor build threads both the counting sort and the
// candidate filter; the lists it emits (row starts, counts and the
// padded rows) must be bitwise identical at any thread count, including
// oversubscribed ones where slice boundaries land in odd places.

TEST(ThreadDeterminism, VectorizedNeighborBuildListsAreThreadInvariant)
{
    const int before = ThreadPool::threads();
    auto listsAt = [](int nthreads) {
        ThreadPool::setThreads(nthreads);
        auto sim = buildLJ(6);
        sim->thermoEvery = 0;
        sim->setup();
        const NeighborList &list = sim->neighbor.list();
        return std::make_tuple(list.offsets, list.counts, list.neighbors);
    };
    const auto reference = listsAt(1);
    for (int nthreads : {2, 4, 8, 16}) {
        SCOPED_TRACE(nthreads);
        EXPECT_EQ(listsAt(nthreads), reference);
    }
    ThreadPool::setThreads(before);
}

// Bonded systems drop special partners inside the threaded fill; their
// rows must not depend on the thread count either, at the scalar
// oracle's width and at a vectorized one.
TEST(ThreadDeterminism, BondedNeighborBuildListsAreThreadInvariant)
{
    const int before = ThreadPool::threads();
    for (const int width : {0, 8}) {
        auto listsAt = [width](int nthreads) {
            ThreadPool::setThreads(nthreads);
            auto sim = buildChain(8);
            sim->config.simdWidth = width;
            sim->thermoEvery = 0;
            sim->setup();
            const NeighborList &list = sim->neighbor.list();
            return std::make_tuple(list.offsets, list.counts,
                                   list.neighbors);
        };
        const auto reference = listsAt(1);
        for (int nthreads : {2, 4, 8, 16}) {
            SCOPED_TRACE(testing::Message() << "width=" << width
                                            << " threads=" << nthreads);
            EXPECT_EQ(listsAt(nthreads), reference);
        }
    }
    ThreadPool::setThreads(before);
}

} // namespace
} // namespace mdbench
