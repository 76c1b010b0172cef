/**
 * @file
 * Spatial atom reordering: the AtomStore::applyPermutation contract
 * (gather semantics, bijectivity checks, ghost exclusion), the
 * Simulation/Neighbor sort policy, and physics invariance of sorted
 * runs (same system, different memory order, same trajectory).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "core/suite.h"
#include "env_guard.h"
#include "md/atoms.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/counters.h"
#include "util/engine_config.h"
#include "util/error.h"
#include "util/rng.h"

namespace mdbench {
namespace {

/** Five distinguishable atoms: per-array values derived from the tag. */
AtomStore
makeStore(std::size_t n)
{
    AtomStore store;
    store.setNumTypes(2);
    for (std::size_t i = 0; i < n; ++i) {
        const auto tag = static_cast<std::int64_t>(i + 1);
        const double s = static_cast<double>(i);
        const std::size_t idx = store.addAtom(
            tag, 1 + static_cast<int>(i % 2), Vec3{s, 10.0 + s, 20.0 + s});
        store.v[idx] = Vec3{0.1 * s, 0.2 * s, 0.3 * s};
        store.f[idx] = Vec3{-s, -2.0 * s, -3.0 * s};
        store.omega[idx] = Vec3{s, 0.0, -s};
        store.torque[idx] = Vec3{0.0, s, 0.0};
        store.q[idx] = 0.5 * s;
        store.molecule[idx] = tag * 10;
    }
    return store;
}

TEST(ApplyPermutation, GatherSemantics)
{
    AtomStore store = makeStore(5);
    // New index k holds the atom previously at oldOf[k].
    const std::vector<std::uint32_t> oldOf{3, 1, 4, 0, 2};
    store.applyPermutation(oldOf);
    ASSERT_EQ(store.nlocal(), 5u);
    for (std::size_t k = 0; k < 5; ++k) {
        const auto old = oldOf[k];
        EXPECT_EQ(store.tag[k], static_cast<std::int64_t>(old + 1));
        EXPECT_EQ(store.type[k], 1 + static_cast<int>(old % 2));
        EXPECT_EQ(store.molecule[k], static_cast<std::int64_t>(old + 1) * 10);
        EXPECT_EQ(store.x[k].x, static_cast<double>(old));
        EXPECT_EQ(store.v[k].y, 0.2 * static_cast<double>(old));
        EXPECT_EQ(store.f[k].z, -3.0 * static_cast<double>(old));
        EXPECT_EQ(store.omega[k].x, static_cast<double>(old));
        EXPECT_EQ(store.torque[k].y, static_cast<double>(old));
        EXPECT_EQ(store.q[k], 0.5 * static_cast<double>(old));
        EXPECT_EQ(store.ghostOf[k], -1);
    }
}

TEST(ApplyPermutation, InverseRoundTripsToIdentity)
{
    AtomStore store = makeStore(7);
    const AtomStore original = store;
    Rng rng(99);
    std::vector<std::uint32_t> oldOf(7);
    for (std::uint32_t i = 0; i < 7; ++i)
        oldOf[i] = i;
    for (std::size_t i = 6; i > 0; --i)
        std::swap(oldOf[i], oldOf[rng.uniformInt(i + 1)]);
    store.applyPermutation(oldOf);
    // Applying the inverse (newOf: inverse[oldOf[k]] = k) restores the
    // original order exactly.
    std::vector<std::uint32_t> inverse(7);
    for (std::uint32_t k = 0; k < 7; ++k)
        inverse[oldOf[k]] = k;
    store.applyPermutation(inverse);
    for (std::size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(store.tag[i], original.tag[i]);
        EXPECT_EQ(store.x[i].x, original.x[i].x);
        EXPECT_EQ(store.x[i].y, original.x[i].y);
        EXPECT_EQ(store.x[i].z, original.x[i].z);
        EXPECT_EQ(store.v[i].x, original.v[i].x);
        EXPECT_EQ(store.q[i], original.q[i]);
        EXPECT_EQ(store.type[i], original.type[i]);
        EXPECT_EQ(store.molecule[i], original.molecule[i]);
    }
}

TEST(ApplyPermutation, RejectsWrongSizeAndNonBijections)
{
    AtomStore store = makeStore(4);
    EXPECT_THROW(store.applyPermutation({0, 1, 2}), PanicError);
    EXPECT_THROW(store.applyPermutation({0, 1, 2, 2}), PanicError);
    EXPECT_THROW(store.applyPermutation({0, 1, 2, 4}), PanicError);
}

TEST(ApplyPermutation, RejectsGhosts)
{
    AtomStore store = makeStore(3);
    store.addGhost(0, Vec3{1.0, 0.0, 0.0});
    EXPECT_THROW(store.applyPermutation({2, 1, 0}), PanicError);
    // After dropping the ghosts the same permutation is legal again.
    store.clearGhosts();
    store.applyPermutation({2, 1, 0});
    EXPECT_EQ(store.tag[0], 3);
}

TEST(ApplyPermutation, ComposesWithRemoveAtom)
{
    AtomStore store = makeStore(5);
    // removeAtom swaps the last owned atom (tag 5) into slot 1.
    store.removeAtom(1);
    ASSERT_EQ(store.nlocal(), 4u);
    ASSERT_EQ(store.tag[1], 5);
    store.applyPermutation({1, 0, 3, 2});
    EXPECT_EQ(store.tag[0], 5);
    EXPECT_EQ(store.tag[1], 1);
    EXPECT_EQ(store.tag[2], 4);
    EXPECT_EQ(store.tag[3], 3);
}

TEST(SortPolicy, DefaultSortEveryReadsEnvironment)
{
    {
        EnvGuard env("MDBENCH_SORT_EVERY", "");
        EXPECT_EQ(EngineEnv::read().config.sortEvery, 0);
    }
    {
        EnvGuard env("MDBENCH_SORT_EVERY", "7");
        EXPECT_EQ(EngineEnv::read().config.sortEvery, 7);
    }
    {
        EnvGuard env("MDBENCH_SORT_EVERY", "0");
        EXPECT_EQ(EngineEnv::read().config.sortEvery, 0);
    }
    {
        EnvGuard env("MDBENCH_SORT_EVERY", "-3");
        EXPECT_THROW(EngineEnv::read(), FatalError);
    }
    // A new simulation starts from the process default.
    EXPECT_EQ(buildLJ(4)->config.sortEvery,
              EngineConfig::fromEnv().sortEvery);
}

TEST(SortPolicy, SetSortEveryRejectsNegative)
{
    // setup() checks the interval before it builds anything.
    auto sim = buildLJ(4);
    sim->thermoEvery = 0;
    sim->config.sortEvery = -1;
    EXPECT_THROW(sim->setup(), FatalError);
    EXPECT_EQ(sim->neighbor.buildCount(), 0);
    sim->config.sortEvery = 3;
    sim->setup();
    EXPECT_GT(sim->neighbor.sortCount(), 0);
}

TEST(SortPolicy, DisabledRunNeverSortsAndCountsNothing)
{
    resetCounters();
    auto sim = buildLJ(4);
    sim->thermoEvery = 0;
    sim->config.sortEvery = 0;
    sim->setup();
    sim->run(60);
    EXPECT_EQ(sim->neighbor.sortCount(), 0);
    EXPECT_EQ(counterValue(Counter::SortApplied), 0u);
    EXPECT_EQ(counterValue(Counter::SortSkipped), 0u);
}

TEST(SortPolicy, EnabledRunSortsAndCounts)
{
    resetCounters();
    auto sim = buildLJ(4);
    sim->thermoEvery = 0;
    sim->config.sortEvery = 2;
    sim->setup();
    sim->run(60);
    EXPECT_GT(sim->neighbor.sortCount(), 0);
    EXPECT_EQ(counterValue(Counter::SortApplied),
              static_cast<std::uint64_t>(sim->neighbor.sortCount()));
    // Sorting every 2nd rebuild skips the rebuilds in between.
    EXPECT_GT(counterValue(Counter::SortSkipped), 0u);
    // Owned atoms ended up in bin (ascending spatial) order at the last
    // sort; tags must still be a permutation of 1..N.
    std::vector<bool> seen(sim->atoms.nlocal() + 1, false);
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        const auto tag = sim->atoms.tag[i];
        ASSERT_GE(tag, 1);
        ASSERT_LE(tag, static_cast<std::int64_t>(sim->atoms.nlocal()));
        ASSERT_FALSE(seen[static_cast<std::size_t>(tag)]);
        seen[static_cast<std::size_t>(tag)] = true;
    }
}

/** Force on each atom keyed by tag, for order-independent comparison. */
std::map<std::int64_t, Vec3>
forcesByTag(const Simulation &sim)
{
    std::map<std::int64_t, Vec3> forces;
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        forces[sim.atoms.tag[i]] = sim.atoms.f[i];
    return forces;
}

/** Shuffle the owned atoms with a fixed-seed Fisher-Yates permutation. */
void
shuffleAtoms(Simulation &sim, std::uint64_t seed)
{
    const std::size_t n = sim.atoms.nlocal();
    std::vector<std::uint32_t> oldOf(n);
    for (std::size_t i = 0; i < n; ++i)
        oldOf[i] = static_cast<std::uint32_t>(i);
    Rng rng(seed);
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(oldOf[i], oldOf[rng.uniformInt(i + 1)]);
    sim.atoms.applyPermutation(oldOf);
}

TEST(SortPhysics, ForceEvaluationIsPermutationInvariant)
{
    auto reference = buildLJ(4);
    reference->thermoEvery = 0;
    reference->setup();
    const auto expected = forcesByTag(*reference);

    auto shuffled = buildLJ(4);
    shuffled->thermoEvery = 0;
    shuffleAtoms(*shuffled, 2024);
    shuffled->setup();
    const auto got = forcesByTag(*shuffled);

    // The per-atom sums accumulate in a different neighbor order, so
    // agreement is to rounding, not bitwise.
    ASSERT_EQ(got.size(), expected.size());
    for (const auto &[tag, fref] : expected) {
        const auto it = got.find(tag);
        ASSERT_NE(it, got.end()) << tag;
        const double scale =
            std::max(1.0, std::sqrt(fref.normSq()));
        EXPECT_NEAR(it->second.x, fref.x, 1e-11 * scale) << tag;
        EXPECT_NEAR(it->second.y, fref.y, 1e-11 * scale) << tag;
        EXPECT_NEAR(it->second.z, fref.z, 1e-11 * scale) << tag;
    }
}

TEST(SortPhysics, SortedLJRunMatchesUnsortedObservables)
{
    auto plain = buildLJ(5);
    plain->thermoEvery = 0;
    plain->setup();
    plain->run(200);

    auto sorted = buildLJ(5);
    sorted->thermoEvery = 0;
    sorted->config.sortEvery = 2;
    sorted->setup();
    sorted->run(200);
    ASSERT_GT(sorted->neighbor.sortCount(), 0);

    // 200 LJ-melt steps at dt = 0.005 is one reduced time unit; with a
    // Lyapunov exponent of order 1-2 the rounding-level reordering
    // noise (~1e-16) grows by only ~e^2, so a tight relative tolerance
    // is safe and any indexing bug (atoms swapped, arrays desynced)
    // blows through it immediately.
    const double pePlain = plain->potentialEnergy();
    const double peSorted = sorted->potentialEnergy();
    EXPECT_NEAR(peSorted, pePlain, 1e-9 * std::abs(pePlain));
    EXPECT_NEAR(sorted->temperature(), plain->temperature(),
                1e-9 * plain->temperature());
    EXPECT_NEAR(sorted->kineticEnergy(), plain->kineticEnergy(),
                1e-9 * plain->kineticEnergy());
}

} // namespace
} // namespace mdbench
