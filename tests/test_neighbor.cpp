/**
 * @file
 * Neighbor-list correctness: brute-force cross-checks, half/full list
 * invariants, skin/rebuild behaviour, and ghost construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/suite.h"
#include "md/lattice.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "md/velocity.h"
#include "forcefield/pair_lj_cut.h"
#include "md/fix_nve.h"
#include "obs/counters.h"
#include "plain_rows.h"
#include "util/error.h"
#include "util/precision.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

/** Place n atoms at random positions in a cubic box of side length. */
void
randomSystem(Simulation &sim, int n, double length, std::uint64_t seed)
{
    sim.box = Box({0, 0, 0}, {length, length, length});
    sim.atoms.setNumTypes(1);
    Rng rng(seed);
    for (int i = 0; i < n; ++i)
        sim.atoms.addAtom(i + 1, 1,
                          {rng.uniform(0, length), rng.uniform(0, length),
                           rng.uniform(0, length)});
}

/** (low tag, high tag) pairs in ascending order; repeats are kept. */
using TagPairs = std::vector<std::pair<std::int64_t, std::int64_t>>;

/** The (low, high) tag pair of atoms @p i and @p j. */
std::pair<std::int64_t, std::int64_t>
tagPair(const Simulation &sim, std::size_t i, std::size_t j)
{
    return {std::min(sim.atoms.tag[i], sim.atoms.tag[j]),
            std::max(sim.atoms.tag[i], sim.atoms.tag[j])};
}

/** All minimum-image pairs within cutoff. */
TagPairs
bruteForcePairs(const Simulation &sim, double cutoff)
{
    TagPairs pairs;
    const std::size_t n = sim.atoms.nlocal();
    const double cutSq = cutoff * cutoff;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const Vec3 d =
                sim.box.minimumImage(sim.atoms.x[i] - sim.atoms.x[j]);
            if (d.normSq() < cutSq)
                pairs.push_back(tagPair(sim, i, j));
        }
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
}

/** Every entry stored in the list (a full list yields each pair twice). */
TagPairs
halfListPairs(const Simulation &sim)
{
    TagPairs pairs;
    const NeighborList &list = sim.neighbor.list();
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i) {
        const auto [begin, end] = list.range(i);
        for (std::uint32_t k = begin; k < end; ++k)
            pairs.push_back(tagPair(sim, i, list.neighbors[k]));
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
}

/** @p pairs with every entry twice: what a full list stores. */
TagPairs
doubled(const TagPairs &pairs)
{
    TagPairs twice;
    for (const auto &pair : pairs) {
        twice.push_back(pair);
        twice.push_back(pair);
    }
    return twice;
}

/**
 * Half and full lists of @p sim at widths 0, 1, 2, 4 and 8 against
 * brute force, the one reference independent of the vectorized fill
 * (the caller fills atoms, box and cutoff; skin is zero).
 */
void
expectListsMatchBruteForce(const std::function<void(Simulation &)> &make)
{
    for (const bool full : {false, true}) {
        for (const int width : {0, 1, 2, 4, 8}) {
            SCOPED_TRACE(testing::Message()
                         << "full=" << full << " width=" << width);
            Simulation sim;
            sim.config.simdWidth = width;
            make(sim);
            sim.neighbor.skin = 0.0;
            sim.neighbor.full = full;
            sim.comm->exchange(sim);
            sim.comm->borders(sim);
            sim.neighbor.build(sim);
            const TagPairs brute = bruteForcePairs(sim, sim.neighbor.cutoff);
            EXPECT_EQ(halfListPairs(sim), full ? doubled(brute) : brute);
        }
    }
}

TEST(Neighbor, HalfListMatchesBruteForce)
{
    // Box side (8.0) is > 2x cutoff, so each physical pair appears once.
    expectListsMatchBruteForce([](Simulation &sim) {
        randomSystem(sim, 200, 8.0, 321);
        sim.neighbor.cutoff = 1.5;
    });
}

TEST(Neighbor, HalfListMatchesBruteForceManySeeds)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        expectListsMatchBruteForce([seed](Simulation &sim) {
            randomSystem(sim, 120, 6.5, seed);
            sim.neighbor.cutoff = 1.8;
        });
    }
}

TEST(Neighbor, FullListStoresEachPairTwice)
{
    Simulation sim;
    randomSystem(sim, 150, 7.0, 77);
    sim.neighbor.cutoff = 1.5;
    sim.neighbor.skin = 0.0;
    sim.neighbor.full = true;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);

    EXPECT_EQ(halfListPairs(sim), doubled(bruteForcePairs(sim, 1.5)));
}

TEST(Neighbor, SkinGrowsList)
{
    Simulation sim;
    randomSystem(sim, 300, 8.0, 5);
    sim.neighbor.cutoff = 1.5;
    sim.neighbor.skin = 0.0;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);
    const std::size_t tight = sim.neighbor.list().pairCount();

    sim.neighbor.skin = 0.5;
    sim.comm->borders(sim);
    sim.neighbor.build(sim);
    EXPECT_GT(sim.neighbor.list().pairCount(), tight);
}

TEST(Neighbor, TriggerFiresOnlyAfterHalfSkinMotion)
{
    Simulation sim;
    randomSystem(sim, 50, 10.0, 9);
    sim.neighbor.cutoff = 1.5;
    sim.neighbor.skin = 0.4;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);

    EXPECT_FALSE(sim.neighbor.checkTrigger(sim));
    sim.atoms.x[0].x += 0.19; // just under skin/2
    EXPECT_FALSE(sim.neighbor.checkTrigger(sim));
    sim.atoms.x[0].x += 0.02; // crosses skin/2
    EXPECT_TRUE(sim.neighbor.checkTrigger(sim));
}

TEST(Neighbor, NeighborsPerAtomLJMelt)
{
    // LJ melt at rho* = 0.8442 with cutoff 2.5 sigma has ~55 neighbors
    // per atom within the cutoff (paper Table 2).
    Simulation sim;
    buildFcc(sim, 8, 8, 8, fccLatticeConstant(0.8442));
    sim.neighbor.cutoff = 2.5;
    sim.neighbor.skin = 0.0;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);
    EXPECT_NEAR(sim.neighbor.list().neighborsPerAtom(), 55.0, 8.0);
}

TEST(Neighbor, GhostCountScalesWithSurface)
{
    Simulation sim;
    buildFcc(sim, 6, 6, 6, 1.6);
    sim.neighbor.cutoff = 2.0;
    sim.neighbor.skin = 0.3;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    EXPECT_GT(sim.atoms.nghost(), 0u);
    // Ghost shell thickness cut on each face: fraction roughly
    // (1 + 2 cut/L)^3 - 1 of the owned atoms.
    const double cut = sim.commCutoff();
    const double ratio = std::pow(1.0 + 2.0 * cut / sim.box.lengths().x, 3) -
                         1.0;
    EXPECT_NEAR(static_cast<double>(sim.atoms.nghost()) /
                    static_cast<double>(sim.atoms.nlocal()),
                ratio, 0.35 * ratio);
}

/** The unpadded rows of a fresh build at the given knobs. */
PlainRows
buildListAt(int width, bool full, std::uint64_t seed)
{
    Simulation sim;
    sim.config.simdWidth = width;
    randomSystem(sim, 400, 7.0, seed);
    sim.neighbor.cutoff = 1.5;
    sim.neighbor.skin = 0.3;
    sim.neighbor.full = full;
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.neighbor.build(sim);
    return plainRows(sim.neighbor.list());
}

TEST(Neighbor, VectorizedBuildMatchesWidthOneReferenceAtAllWidths)
{
    // Every fill width must emit exactly the W = 1 fill's CSR rows —
    // same offsets, same payload, same order — for both list flavors
    // at every packing width.
    for (const bool full : {false, true}) {
        for (const std::uint64_t seed : {11u, 12u, 13u}) {
            const auto reference = buildListAt(1, full, seed);
            for (const int width : {0, 2, 4, 8, 16}) {
                SCOPED_TRACE(testing::Message()
                             << "full=" << full << " seed=" << seed
                             << " width=" << width);
                const auto vectorized = buildListAt(width, full, seed);
                EXPECT_EQ(vectorized.first, reference.first);
                EXPECT_EQ(vectorized.second, reference.second);
            }
        }
    }
}

/**
 * The unpadded rows of three successive builds of one system at the
 * given knobs: at cutoff 1.5, at 2.0 (the list more than doubles, so
 * the threaded fill outgrows the regions sized from the first build),
 * and at 1.5 again.
 */
std::vector<PlainRows>
rebuildSequenceAt(int width, int threads, bool full)
{
    const int before = ThreadPool::threads();
    ThreadPool::setThreads(threads);
    Simulation sim;
    sim.config.simdWidth = width;
    randomSystem(sim, 2000, 12.0, 21);
    sim.neighbor.skin = 0.3;
    sim.neighbor.full = full;
    std::vector<PlainRows> lists;
    for (const double cutoff : {1.5, 2.0, 1.5}) {
        sim.neighbor.cutoff = cutoff;
        sim.comm->exchange(sim);
        sim.comm->borders(sim);
        sim.neighbor.build(sim);
        lists.push_back(plainRows(sim.neighbor.list()));
    }
    ThreadPool::setThreads(before);
    return lists;
}

TEST(Neighbor, ThreadedBuildMatchesSerialAcrossListGrowth)
{
    // The fill sizes each slice's region from the previous build and
    // spills rows that do not fit; the list must still equal the serial
    // width-0 build's on the first build, after the list grows past the
    // regions, and after it shrinks again.
    for (const bool full : {false, true}) {
        const auto reference = rebuildSequenceAt(0, 1, full);
        for (const int width : {0, 1, 2, 4, 8}) {
            SCOPED_TRACE(testing::Message()
                         << "full=" << full << " width=" << width);
            const auto threaded = rebuildSequenceAt(width, 4, full);
            ASSERT_EQ(threaded.size(), reference.size());
            for (std::size_t b = 0; b < reference.size(); ++b) {
                SCOPED_TRACE(b);
                EXPECT_EQ(threaded[b].first, reference[b].first);
                EXPECT_EQ(threaded[b].second, reference[b].second);
            }
        }
    }
}

TEST(Neighbor, ExclusionSystemListUnaffectedByWidth)
{
    // Bonded systems drop their special partners inside the row fill;
    // the rows must equal the width-0 build's at every width.
    auto listsAt = [](int width) {
        auto sim = buildChain(4);
        sim->config.simdWidth = width;
        sim->thermoEvery = 0;
        sim->setup();
        return plainRows(sim->neighbor.list());
    };
    const auto reference = listsAt(0);
    for (const int width : {1, 2, 4, 8}) {
        SCOPED_TRACE(width);
        const auto wide = listsAt(width);
        EXPECT_EQ(wide.first, reference.first);
        EXPECT_EQ(wide.second, reference.second);
    }
}

/** A neighbor build of the Rhodo proxy at the given knobs. */
struct BondedBuild
{
    std::unique_ptr<Simulation> sim;
    std::uint64_t excludedCounter = 0;
};

BondedBuild
buildRhodoListAt(int width, int threads, bool full)
{
    const int before = ThreadPool::threads();
    ThreadPool::setThreads(threads);
    BondedBuild build;
    build.sim = buildRhodoProxy(9);
    Simulation &sim = *build.sim;
    sim.config.simdWidth = width;
    sim.neighbor.cutoff = sim.pair->cutoff();
    sim.neighbor.full = full;
    sim.topology.buildExclusions();
    sim.comm->exchange(sim);
    sim.comm->borders(sim);
    sim.topology.buildTagMap(sim.atoms);
    resetCounters();
    sim.neighbor.build(sim);
    build.excludedCounter = counterValue(Counter::NeighExcludedPairs);
    ThreadPool::setThreads(before);
    return build;
}

TEST(Neighbor, ExclusionListMatchesBruteForce)
{
    // The proxy's 28 Å box is more than twice the 12 Å build cutoff, so
    // each physical pair is stored once; its solute row carries bonds
    // and angles, so some in-range pairs are special and must be gone.
    const BondedBuild reference = buildRhodoListAt(0, 1, false);
    const Simulation &ref = *reference.sim;
    const double cut = ref.neighbor.list().buildCutoff;
    ASSERT_LT(2.0 * cut, ref.box.lengths().x);
    ASSERT_GT(ref.topology.exclusionCount(), 0u);

    TagPairs expected = bruteForcePairs(ref, cut);
    const std::uint64_t excludedInRange =
        std::erase_if(expected, [&](const auto &pair) {
            return ref.topology.excluded(pair.first, pair.second);
        });
    ASSERT_GT(excludedInRange, 0u);

    for (const int width : {0, 8}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " threads=" << threads);
            const BondedBuild build = buildRhodoListAt(width, threads, false);
            EXPECT_EQ(halfListPairs(*build.sim), expected);
            EXPECT_EQ(build.excludedCounter, excludedInRange);
            // Bitwise the oracle's rows, not just the same pair set.
            EXPECT_EQ(plainRows(build.sim->neighbor.list()),
                      plainRows(ref.neighbor.list()));
        }
    }
}

TEST(Neighbor, BinGridEdgeCasesMatchBruteForce)
{
    // A box side that is not a multiple of the bin edge (cut / 2).
    expectListsMatchBruteForce([](Simulation &sim) {
        randomSystem(sim, 300, 7.3, 41);
        sim.neighbor.cutoff = 1.55;
    });

    // Atoms in slabs thinner than two bins: the thin axis has fewer
    // than five bins, so the clamped stencil must still visit each bin
    // once — along x (the contiguous run axis) and along z (rows).
    for (const int axis : {0, 2}) {
        SCOPED_TRACE(axis);
        expectListsMatchBruteForce([axis](Simulation &sim) {
            sim.box = Box({0, 0, 0}, {8.0, 8.0, 8.0});
            sim.atoms.setNumTypes(1);
            Rng rng(97 + axis);
            for (int i = 0; i < 250; ++i) {
                double p[3] = {rng.uniform(0, 8.0), rng.uniform(0, 8.0),
                               rng.uniform(0, 8.0)};
                p[axis] = rng.uniform(3.0, 4.6);
                sim.atoms.addAtom(i + 1, 1, {p[0], p[1], p[2]});
            }
            sim.neighbor.cutoff = 1.5;
        });
    }

    // A simple-cubic lattice at half the cutoff puts every atom exactly
    // on a bin boundary (all values are exact in binary), and lattice
    // pairs two sites apart sit exactly at the cutoff: rsq < cutSq
    // must leave them out, like the brute force does.
    expectListsMatchBruteForce([](Simulation &sim) {
        sim.box = Box({0, 0, 0}, {4.0, 4.0, 4.0});
        sim.atoms.setNumTypes(1);
        std::int64_t tag = 1;
        for (int z = 0; z < 8; ++z)
            for (int y = 0; y < 8; ++y)
                for (int x = 0; x < 8; ++x)
                    sim.atoms.addAtom(tag++, 1, {0.5 * x, 0.5 * y, 0.5 * z});
        sim.neighbor.cutoff = 1.0;
    });
    Simulation lattice;
    lattice.box = Box({0, 0, 0}, {4.0, 4.0, 4.0});
    lattice.atoms.setNumTypes(1);
    lattice.atoms.addAtom(1, 1, {1.0, 1.0, 1.0});
    lattice.atoms.addAtom(2, 1, {2.0, 1.0, 1.0});
    lattice.atoms.addAtom(3, 1, {1.0, 1.5, 1.0});
    lattice.neighbor.cutoff = 1.0;
    lattice.neighbor.skin = 0.0;
    for (const int width : {0, 8}) {
        lattice.config.simdWidth = width;
        lattice.comm->exchange(lattice);
        lattice.comm->borders(lattice);
        lattice.neighbor.build(lattice);
        // Only the 0.5-apart pair (1, 3); (1, 2) is exactly at the cutoff.
        const TagPairs want{{1, 3}};
        EXPECT_EQ(halfListPairs(lattice), want) << "width " << width;
    }
}

/**
 * A half-list build of the system @p make fills at the given knobs;
 * @p addGhosts, when set, appends extra ghosts after borders().
 */
std::unique_ptr<Simulation>
halfBuildAt(const std::function<void(Simulation &)> &make, int width,
            int threads,
            const std::function<void(AtomStore &)> &addGhosts = {})
{
    const int before = ThreadPool::threads();
    ThreadPool::setThreads(threads);
    auto sim = std::make_unique<Simulation>();
    sim->config.simdWidth = width;
    make(*sim);
    sim->neighbor.skin = 0.0;
    sim->comm->exchange(*sim);
    sim->comm->borders(*sim);
    if (addGhosts)
        addGhosts(sim->atoms);
    sim->neighbor.build(*sim);
    ThreadPool::setThreads(before);
    return sim;
}

/**
 * The half list of @p make at widths {0, 2, 4, 8} × threads {1, 4}
 * holds each minimum-image pair exactly once, in rows bitwise equal to
 * the width-0 serial oracle's.
 */
void
expectHalfListOwnsEachPairOnce(const std::function<void(Simulation &)> &make)
{
    const auto oracle = halfBuildAt(make, 0, 1);
    const NeighborList &ref = oracle->neighbor.list();
    const TagPairs brute = bruteForcePairs(*oracle, oracle->neighbor.cutoff);
    ASSERT_FALSE(brute.empty());
    for (const int width : {0, 2, 4, 8}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " threads=" << threads);
            const auto sim = halfBuildAt(make, width, threads);
            EXPECT_EQ(halfListPairs(*sim), brute);
            EXPECT_EQ(plainRows(sim->neighbor.list()), plainRows(ref));
        }
    }
}

TEST(Neighbor, HalfStencilOwnershipEdgeCases)
{
    // Half lists keep a pair in the row of the atom lower in z, then y,
    // then x, and walk only the dz >= 0 stencil rows. Ties on one or
    // more coordinates must still store every pair exactly once.

    // Atoms at identical coordinates, sharing z, and sharing z and y,
    // including across periodic faces (equal-coordinate ghosts).
    expectHalfListOwnsEachPairOnce([](Simulation &sim) {
        randomSystem(sim, 300, 8.0, 61);
        Rng rng(62);
        for (int k = 0; k < 300; k += 3) {
            const Vec3 p = sim.atoms.x[static_cast<std::size_t>(k)];
            const std::int64_t tag =
                static_cast<std::int64_t>(sim.atoms.nlocal()) + 1;
            sim.atoms.addAtom(tag, 1, p);
            sim.atoms.addAtom(tag + 1, 1, {rng.uniform(0, 8.0), p.y, p.z});
            sim.atoms.addAtom(tag + 2, 1,
                              {rng.uniform(0, 8.0), rng.uniform(0, 8.0), p.z});
        }
        sim.neighbor.cutoff = 1.5;
    });

    // Atoms exactly on bin edges: a simple-cubic lattice at the bin
    // width (cut / 2), every row and plane of which shares y and z.
    expectHalfListOwnsEachPairOnce([](Simulation &sim) {
        sim.box = Box({0, 0, 0}, {5.0, 5.0, 5.0});
        sim.atoms.setNumTypes(1);
        std::int64_t tag = 1;
        for (int z = 0; z < 10; ++z)
            for (int y = 0; y < 10; ++y)
                for (int x = 0; x < 10; ++x)
                    sim.atoms.addAtom(tag++, 1, {0.5 * x, 0.5 * y, 0.5 * z});
        sim.neighbor.cutoff = 1.0;
    });

    // Thin slabs with fewer than five z-bins: a slab inside a periodic
    // box (two z-bins), and a box with a non-periodic z axis four bins
    // thick, a quarter of its atoms on one z plane.
    expectHalfListOwnsEachPairOnce([](Simulation &sim) {
        sim.box = Box({0, 0, 0}, {9.0, 9.0, 9.0});
        sim.atoms.setNumTypes(1);
        Rng rng(63);
        for (int i = 0; i < 700; ++i)
            sim.atoms.addAtom(i + 1, 1,
                              {rng.uniform(0, 9.0), rng.uniform(0, 9.0),
                               rng.uniform(3.5, 5.4)});
        sim.neighbor.cutoff = 1.5;
    });
    expectHalfListOwnsEachPairOnce([](Simulation &sim) {
        sim.box = Box({0, 0, 0}, {10.0, 10.0, 3.0});
        sim.box.setPeriodic(true, true, false);
        sim.atoms.setNumTypes(1);
        Rng rng(64);
        for (int i = 0; i < 700; ++i) {
            const double z = i % 4 == 0 ? 1.5 : rng.uniform(0, 3.0);
            sim.atoms.addAtom(i + 1, 1,
                              {rng.uniform(0, 10.0), rng.uniform(0, 10.0), z});
        }
        sim.neighbor.cutoff = 1.5;
    });

    // A local and a ghost atom at identical coordinates: the ghost
    // (whose id exceeds every owned id) is kept in the local row, once.
    // Owned atoms 0 and 1 coincide at (5, 5, 5), atom 2 sits above them
    // in z; ghost 3 is placed on (5, 5, 5) and ghost 4 below it.
    for (const int width : {0, 2, 4, 8}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE(testing::Message()
                         << "width=" << width << " threads=" << threads);
            const auto sim = halfBuildAt(
                [](Simulation &s) {
                    s.box = Box({0, 0, 0}, {10.0, 10.0, 10.0});
                    s.atoms.setNumTypes(1);
                    s.atoms.addAtom(1, 1, {5.0, 5.0, 5.0});
                    s.atoms.addAtom(2, 1, {5.0, 5.0, 5.0});
                    s.atoms.addAtom(3, 1, {5.0, 5.0, 5.5});
                    s.neighbor.cutoff = 1.5;
                },
                width, threads,
                [](AtomStore &atoms) {
                    ASSERT_EQ(atoms.nghost(), 0u);
                    atoms.addGhost(2, {0.0, 0.0, -0.5});
                    atoms.addGhost(2, {0.0, 0.0, -1.0});
                });
            const NeighborList &list = sim->neighbor.list();
            auto row = [&](std::size_t i) {
                const auto [begin, end] = list.range(i);
                std::vector<std::uint32_t> r(list.neighbors.begin() + begin,
                                             list.neighbors.begin() + end);
                std::sort(r.begin(), r.end());
                return r;
            };
            EXPECT_EQ(row(0), (std::vector<std::uint32_t>{1, 2, 3}));
            EXPECT_EQ(row(1), (std::vector<std::uint32_t>{2, 3}));
            EXPECT_EQ(row(2), (std::vector<std::uint32_t>{}));
        }
    }
}

/** Row starts, counts, padded rows and totals of @p a equal @p b's. */
void
expectSameRows(const NeighborList &a, const NeighborList &b)
{
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.neighbors, b.neighbors);
    EXPECT_EQ(a.sentinel, b.sentinel);
    EXPECT_EQ(a.pairCount(), b.pairCount());
    EXPECT_EQ(a.paddedSlots, b.paddedSlots);
}

TEST(Neighbor, PackingRefreshesOnWidthChange)
{
    // Regression: changing the SIMD width between builds must not let
    // a kernel traverse the stale-width packing — the force loop
    // refreshes the packing before every pair compute.
    auto sim = buildLJ(4);
    sim->config.simdWidth = 4;
    sim->thermoEvery = 0;
    sim->setup();
    ASSERT_TRUE(sim->neighbor.list().packedFor(4));

    sim->config.simdWidth = 8;
    sim->computeForces();
    EXPECT_TRUE(sim->neighbor.list().packedFor(8));

    // The re-padded rows and the forces computed through them must
    // match a run that was at width 8 from the start.
    auto reference = buildLJ(4);
    reference->config.simdWidth = 8;
    reference->thermoEvery = 0;
    reference->setup();
    ASSERT_TRUE(reference->neighbor.list().packedFor(8));
    expectSameRows(sim->neighbor.list(), reference->neighbor.list());
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        EXPECT_EQ(sim->atoms.f[i].x, reference->atoms.f[i].x) << i;
        EXPECT_EQ(sim->atoms.f[i].y, reference->atoms.f[i].y) << i;
        EXPECT_EQ(sim->atoms.f[i].z, reference->atoms.f[i].z) << i;
    }
}

TEST(Neighbor, PackingRefreshesOnPrecisionChange)
{
    // Changing the precision tier between builds must re-derive the
    // packing for the new tier: kernels dispatch on the list's recorded
    // packTier, so a stale packing would keep computing at double.
    auto sim = buildLJ(4);
    sim->config.simdWidth = 4;
    sim->config.precision = Precision::Double;
    sim->thermoEvery = 0;
    sim->setup();
    ASSERT_EQ(sim->neighbor.list().packTier, Precision::Double);

    sim->config.precision = Precision::Mixed;
    sim->computeForces();
    EXPECT_EQ(sim->neighbor.list().packTier, Precision::Mixed);

    // The re-padded rows and the forces computed through them must
    // match a run that was mixed from the start.
    auto reference = buildLJ(4);
    reference->config.simdWidth = 4;
    reference->config.precision = Precision::Mixed;
    reference->thermoEvery = 0;
    reference->setup();
    ASSERT_EQ(reference->neighbor.list().packTier, Precision::Mixed);
    EXPECT_EQ(sim->neighbor.list().padWidth,
              reference->neighbor.list().padWidth);
    expectSameRows(sim->neighbor.list(), reference->neighbor.list());
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        EXPECT_EQ(sim->atoms.f[i].x, reference->atoms.f[i].x) << i;
        EXPECT_EQ(sim->atoms.f[i].y, reference->atoms.f[i].y) << i;
        EXPECT_EQ(sim->atoms.f[i].z, reference->atoms.f[i].z) << i;
    }
}

TEST(Neighbor, RebuildKeepsPhysicsConsistent)
{
    // Run an LJ melt with a large skin and verify neighbor rebuilds
    // happen *and* energy stays conserved across them.
    Simulation sim;
    buildFcc(sim, 5, 5, 5, fccLatticeConstant(0.8442));
    sim.pair = std::make_unique<PairLJCut>(1, 2.5);
    static_cast<PairLJCut &>(*sim.pair).setCoeff(1, 1, 1.0, 1.0);
    sim.neighbor.skin = 0.3;
    sim.dt = 0.005;
    Rng rng(2024);
    createVelocities(sim, 1.44, rng);
    sim.addFix<FixNVE>();
    sim.thermoEvery = 0;
    sim.setup();
    sim.run(150);
    EXPECT_GT(sim.reneighborCount(), 2);
}

TEST(Neighbor, EveryZeroRebuildsOnDistanceAlone)
{
    // every = 0 is purely distance based: the trigger is checked on
    // every step, exactly as at every = 1, so a hot melt rebuilds many
    // times and follows the every = 1 trajectory bitwise. Negative
    // intervals are rejected at setup.
    auto runAt = [](int every) {
        auto sim = std::make_unique<Simulation>();
        buildFcc(*sim, 5, 5, 5, fccLatticeConstant(0.8442));
        sim->pair = std::make_unique<PairLJCut>(1, 2.5);
        static_cast<PairLJCut &>(*sim->pair).setCoeff(1, 1, 1.0, 1.0);
        sim->neighbor.skin = 0.3;
        sim->neighbor.every = every;
        sim->dt = 0.005;
        Rng rng(7);
        createVelocities(*sim, 3.0, rng);
        sim->addFix<FixNVE>();
        sim->thermoEvery = 0;
        sim->setup();
        sim->run(100);
        return sim;
    };
    const auto distanceOnly = runAt(0);
    const auto everyStep = runAt(1);
    EXPECT_GT(distanceOnly->reneighborCount(), 1);
    EXPECT_EQ(distanceOnly->reneighborCount(), everyStep->reneighborCount());
    ASSERT_EQ(distanceOnly->atoms.nlocal(), everyStep->atoms.nlocal());
    for (std::size_t i = 0; i < distanceOnly->atoms.nlocal(); ++i) {
        EXPECT_EQ(distanceOnly->atoms.x[i].x, everyStep->atoms.x[i].x) << i;
        EXPECT_EQ(distanceOnly->atoms.x[i].y, everyStep->atoms.x[i].y) << i;
        EXPECT_EQ(distanceOnly->atoms.x[i].z, everyStep->atoms.x[i].z) << i;
        EXPECT_EQ(distanceOnly->atoms.v[i].x, everyStep->atoms.v[i].x) << i;
        EXPECT_EQ(distanceOnly->atoms.v[i].y, everyStep->atoms.v[i].y) << i;
        EXPECT_EQ(distanceOnly->atoms.v[i].z, everyStep->atoms.v[i].z) << i;
    }
    EXPECT_THROW(runAt(-1), FatalError);
}

} // namespace
} // namespace mdbench
