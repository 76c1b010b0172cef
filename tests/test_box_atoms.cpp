/**
 * @file
 * Unit tests for Box, AtomStore, Topology, lattice builders, and
 * velocity initialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "forcefield/pair_lj_cut.h"
#include "md/box.h"
#include "md/fix_nve.h"
#include "md/lattice.h"
#include "md/simulation.h"
#include "md/topology.h"
#include "md/velocity.h"
#include "parallel/ranked_sim.h"
#include "util/error.h"
#include "util/rng.h"

namespace mdbench {
namespace {

TEST(Box, WrapIntoPrimaryCell)
{
    Box box({0, 0, 0}, {10, 10, 10});
    const Vec3 wrapped = box.wrap({12.5, -3.0, 5.0});
    EXPECT_DOUBLE_EQ(wrapped.x, 2.5);
    EXPECT_DOUBLE_EQ(wrapped.y, 7.0);
    EXPECT_DOUBLE_EQ(wrapped.z, 5.0);
}

TEST(Box, WrapRespectsNonPeriodicAxis)
{
    Box box({0, 0, 0}, {10, 10, 10});
    box.setPeriodic(true, true, false);
    const Vec3 wrapped = box.wrap({1.0, 1.0, 14.0});
    EXPECT_DOUBLE_EQ(wrapped.z, 14.0);
}

TEST(Box, MinimumImage)
{
    Box box({0, 0, 0}, {10, 10, 10});
    const Vec3 delta = box.minimumImage({9.0, -9.0, 4.0});
    EXPECT_DOUBLE_EQ(delta.x, -1.0);
    EXPECT_DOUBLE_EQ(delta.y, 1.0);
    EXPECT_DOUBLE_EQ(delta.z, 4.0);
}

TEST(Box, VolumeAndDilate)
{
    Box box({0, 0, 0}, {2, 3, 4});
    EXPECT_DOUBLE_EQ(box.volume(), 24.0);
    box.dilate(2.0);
    EXPECT_DOUBLE_EQ(box.volume(), 24.0 * 8.0);
    // Center is preserved.
    EXPECT_DOUBLE_EQ((box.lo().x + box.hi().x) / 2.0, 1.0);
}

TEST(Box, MinimumImageMatchesDivisionFormBitwise)
{
    // minimumImage skips the divide for displacements inside half an
    // edge; its bits must still be those of d - L * round(d / L).
    Box box({-1.3, 0.7, 2.0}, {8.6, 4.1, 15.25});
    Rng rng(17);
    auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
    for (const double factor : {1.0, 1.037, 0.93}) {
        box.dilate(factor);
        const Vec3 len = box.hi() - box.lo();
        for (int mask = 0; mask < 8; ++mask) {
            const bool px = mask & 1, py = mask & 2, pz = mask & 4;
            box.setPeriodic(px, py, pz);
            std::vector<Vec3> deltas;
            for (const double s : {0.0, 0.49, 0.5, 1.0, 1.5}) {
                for (const double sign : {1.0, -1.0})
                    deltas.push_back(Vec3{len.x, len.y, len.z} * (s * sign));
                const Vec3 edge = Vec3{len.x, len.y, len.z} * s;
                deltas.push_back({std::nextafter(edge.x, 0.0),
                                  std::nextafter(edge.y, 1e300),
                                  -std::nextafter(edge.z, 0.0)});
            }
            for (int k = 0; k < 2000; ++k)
                deltas.push_back({rng.uniform(-1.5, 1.5) * len.x,
                                  rng.uniform(-1.5, 1.5) * len.y,
                                  rng.uniform(-1.5, 1.5) * len.z});
            auto reference = [](double d, double l, bool periodic) {
                return periodic ? d - l * std::round(d / l) : d;
            };
            for (const Vec3 &d : deltas) {
                SCOPED_TRACE(testing::Message()
                             << "dilate " << factor << " mask " << mask
                             << " d " << d.x << "," << d.y << "," << d.z);
                const Vec3 out = box.minimumImage(d);
                EXPECT_EQ(bits(out.x), bits(reference(d.x, len.x, px)));
                EXPECT_EQ(bits(out.y), bits(reference(d.y, len.y, py)));
                EXPECT_EQ(bits(out.z), bits(reference(d.z, len.z, pz)));
            }
        }
    }
}

TEST(Box, WrapMatchesDivisionFormBitwise)
{
    // wrap skips the divide for coordinates already inside the cell;
    // its bits must still be those of x - L * floor((x - lo) / L). The
    // y and z corners at +0 and -0 put the signed zeros on the edge.
    Box box({-1.3, 0.0, -0.0}, {8.6, 4.1, 15.25});
    Rng rng(23);
    auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
    for (const double factor : {1.0, 1.037, 0.93}) {
        box.dilate(factor);
        const Vec3 lo = box.lo();
        const Vec3 hi = box.hi();
        const Vec3 len = hi - lo;
        std::vector<Vec3> points;
        for (const double c : {0.0, -0.0}) {
            points.push_back({c, c, c});
        }
        for (const Vec3 &corner : {lo, hi}) {
            points.push_back(corner);
            for (const double toward : {-1e300, 1e300}) {
                points.push_back({std::nextafter(corner.x, toward),
                                  std::nextafter(corner.y, toward),
                                  std::nextafter(corner.z, toward)});
            }
        }
        for (int k = 0; k < 2000; ++k) {
            points.push_back(
                {rng.uniform(lo.x - 1.5 * len.x, hi.x + 1.5 * len.x),
                 rng.uniform(lo.y - 1.5 * len.y, hi.y + 1.5 * len.y),
                 rng.uniform(lo.z - 1.5 * len.z, hi.z + 1.5 * len.z)});
        }
        auto reference = [](double x, double l0, double l, bool periodic) {
            return periodic ? x - l * std::floor((x - l0) / l) : x;
        };
        for (int mask = 0; mask < 8; ++mask) {
            const bool px = mask & 1, py = mask & 2, pz = mask & 4;
            box.setPeriodic(px, py, pz);
            for (const Vec3 &p : points) {
                SCOPED_TRACE(testing::Message()
                             << "dilate " << factor << " mask " << mask
                             << " p " << p.x << "," << p.y << "," << p.z);
                const Vec3 out = box.wrap(p);
                EXPECT_EQ(bits(out.x), bits(reference(p.x, lo.x, len.x, px)));
                EXPECT_EQ(bits(out.y), bits(reference(p.y, lo.y, len.y, py)));
                EXPECT_EQ(bits(out.z), bits(reference(p.z, lo.z, len.z, pz)));
            }
        }
    }
}

TEST(Box, InvalidCornersThrow)
{
    EXPECT_THROW(Box({0, 0, 0}, {-1, 1, 1}), FatalError);
}

TEST(AtomStore, AddAndRemove)
{
    AtomStore atoms;
    atoms.setNumTypes(1);
    atoms.addAtom(1, 1, {0, 0, 0});
    atoms.addAtom(2, 1, {1, 0, 0});
    atoms.addAtom(3, 1, {2, 0, 0});
    EXPECT_EQ(atoms.nlocal(), 3u);
    atoms.removeAtom(0); // swaps tag 3 into slot 0
    EXPECT_EQ(atoms.nlocal(), 2u);
    EXPECT_EQ(atoms.tag[0], 3);
}

TEST(AtomStore, GhostsTrackOwners)
{
    AtomStore atoms;
    atoms.setNumTypes(1);
    atoms.addAtom(1, 1, {1, 2, 3});
    atoms.q[0] = -0.5;
    const std::size_t g = atoms.addGhost(0, {10, 0, 0});
    EXPECT_EQ(atoms.nghost(), 1u);
    EXPECT_DOUBLE_EQ(atoms.x[g].x, 11.0);
    EXPECT_DOUBLE_EQ(atoms.q[g], -0.5);
    EXPECT_EQ(atoms.tag[g], 1);
    EXPECT_EQ(atoms.ghostOf[g], 0);
    atoms.clearGhosts();
    EXPECT_EQ(atoms.nghost(), 0u);
}

TEST(AtomStore, GhostOfGhostResolvesToOwner)
{
    AtomStore atoms;
    atoms.setNumTypes(1);
    atoms.addAtom(1, 1, {0, 0, 0});
    const std::size_t g1 = atoms.addGhost(0, {10, 0, 0});
    const std::size_t g2 = atoms.addGhost(g1, {0, 10, 0});
    EXPECT_EQ(atoms.ghostOf[g2], 0);
}

TEST(Lattice, FccCountsAndDensity)
{
    Simulation sim;
    const double a = fccLatticeConstant(0.8442);
    const std::int64_t n = buildFcc(sim, 5, 5, 5, a);
    EXPECT_EQ(n, 4 * 125);
    EXPECT_EQ(sim.atoms.nlocal(), 500u);
    const double rho = n / sim.box.volume();
    EXPECT_NEAR(rho, 0.8442, 1e-10);
}

TEST(Lattice, PaperSizesAreFccCubes)
{
    // The paper's sizes 32k..2048k are 4 k^3 with k = 20, 40, 60, 80.
    EXPECT_EQ(4 * 20 * 20 * 20, 32000);
    EXPECT_EQ(4 * 40 * 40 * 40, 256000);
    EXPECT_EQ(4 * 60 * 60 * 60, 864000);
    EXPECT_EQ(4 * 80 * 80 * 80, 2048000);
}

TEST(Lattice, TagsAreUniqueAndDense)
{
    Simulation sim;
    buildFcc(sim, 3, 3, 3, 1.0);
    std::vector<bool> seen(sim.atoms.nlocal() + 1, false);
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i) {
        const auto tag = sim.atoms.tag[i];
        ASSERT_GE(tag, 1);
        ASSERT_LE(tag, static_cast<std::int64_t>(sim.atoms.nlocal()));
        EXPECT_FALSE(seen[tag]);
        seen[tag] = true;
    }
}

TEST(Velocity, CreateHitsTargetTemperature)
{
    Simulation sim;
    buildFcc(sim, 4, 4, 4, fccLatticeConstant(0.8442));
    Rng rng(1234);
    createVelocities(sim, 1.44, rng);
    EXPECT_NEAR(sim.temperature(), 1.44, 1e-10);
}

TEST(Velocity, CreateZeroesMomentum)
{
    Simulation sim;
    buildFcc(sim, 4, 4, 4, 1.0);
    Rng rng(99);
    createVelocities(sim, 2.0, rng);
    Vec3 p{};
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i)
        p += sim.atoms.v[i] * sim.atoms.massOf(i);
    EXPECT_NEAR(p.norm(), 0.0, 1e-10);
}

TEST(Topology, TagMapPrefersOwnedAtoms)
{
    Simulation sim;
    sim.atoms.setNumTypes(1);
    sim.atoms.addAtom(1, 1, {0, 0, 0});
    sim.atoms.addAtom(2, 1, {1, 0, 0});
    sim.atoms.addGhost(0, {10, 0, 0});
    sim.atoms.addGhost(1, {0, 10, 0});
    sim.topology.buildTagMap(sim.atoms);
    EXPECT_EQ(sim.topology.indexOf(1), 0);
    EXPECT_EQ(sim.topology.indexOf(2), 1);
    // Unknown tags: below, between and above the stored ones.
    EXPECT_EQ(sim.topology.indexOf(0), -1);
    EXPECT_EQ(sim.topology.indexOf(-3), -1);
    EXPECT_EQ(sim.topology.indexOf(42), -1);
    EXPECT_EQ(sim.topology.indexOf(std::numeric_limits<std::int64_t>::max()),
              -1);

    // A tag held only by a ghost resolves to that ghost.
    AtomStore remote;
    remote.setNumTypes(1);
    remote.addAtom(7, 1, {2, 0, 0});
    Simulation halo;
    halo.atoms.setNumTypes(1);
    halo.atoms.addAtom(5, 1, {0, 0, 0});
    halo.atoms.addAtom(3, 1, {1, 0, 0});
    halo.atoms.addGhost(0, {10, 0, 0});
    halo.atoms.addGhostFrom(remote, 0, {0, 10, 0});
    halo.topology.buildTagMap(halo.atoms);
    EXPECT_EQ(halo.topology.indexOf(5), 0);
    EXPECT_EQ(halo.topology.indexOf(3), 1);
    EXPECT_EQ(halo.topology.indexOf(7), 3);
    EXPECT_EQ(halo.topology.indexOf(4), -1);
    EXPECT_EQ(halo.topology.indexOf(8), -1);

    // Tags must be positive.
    for (const std::int64_t bad : {0, -1}) {
        Simulation zero;
        zero.atoms.setNumTypes(1);
        zero.atoms.addAtom(1, 1, {0, 0, 0});
        zero.atoms.addAtom(bad, 1, {1, 0, 0});
        EXPECT_THROW(zero.topology.buildTagMap(zero.atoms), FatalError)
            << "tag " << bad;
    }

    // After migrations, every rank's map resolves each of its owned
    // tags to the owned atom and each ghost tag to an atom with that
    // tag (the owned copy when the rank owns it).
    Simulation global;
    buildFcc(global, 5, 5, 5, fccLatticeConstant(0.8442));
    global.dt = 0.005;
    global.thermoEvery = 0;
    Rng rng(11);
    createVelocities(global, 1.44, rng);
    RankedSimulation ranked(global, 8, [](Simulation &rank) {
        auto pair = std::make_unique<PairLJCut>(1, 2.5);
        pair->setCoeff(1, 1, 1.0, 1.0);
        rank.pair = std::move(pair);
        rank.neighbor.skin = 0.3;
        rank.addFix<FixNVE>();
    });
    ranked.setup();
    auto ownedTags = [&] {
        std::vector<std::vector<std::int64_t>> tags(ranked.nranks());
        for (int r = 0; r < ranked.nranks(); ++r) {
            const AtomStore &atoms = ranked.rank(r).atoms;
            tags[r].assign(atoms.tag.begin(),
                           atoms.tag.begin() + atoms.nlocal());
            std::sort(tags[r].begin(), tags[r].end());
        }
        return tags;
    };
    const auto before = ownedTags();
    ranked.run(60);
    ASSERT_NE(ownedTags(), before) << "no atom migrated";
    for (int r = 0; r < ranked.nranks(); ++r) {
        SCOPED_TRACE(r);
        const Simulation &rank = ranked.rank(r);
        const AtomStore &atoms = rank.atoms;
        ASSERT_GT(atoms.nghost(), 0u);
        for (std::size_t i = 0; i < atoms.nall(); ++i) {
            const std::int64_t idx = rank.topology.indexOf(atoms.tag[i]);
            if (i < atoms.nlocal()) {
                ASSERT_EQ(idx, static_cast<std::int64_t>(i));
            } else {
                ASSERT_GE(idx, 0);
                ASSERT_EQ(atoms.tag[static_cast<std::size_t>(idx)],
                          atoms.tag[i]);
            }
        }
    }
}

TEST(Topology, ExclusionsCoverBondsAndAngles)
{
    Topology topo;
    topo.bonds.push_back({1, 2, 1});
    topo.angles.push_back({3, 4, 5, 1});
    topo.buildExclusions();
    EXPECT_TRUE(topo.excluded(1, 2));
    EXPECT_TRUE(topo.excluded(2, 1));
    EXPECT_TRUE(topo.excluded(3, 4));
    EXPECT_TRUE(topo.excluded(4, 5));
    EXPECT_TRUE(topo.excluded(3, 5));
    EXPECT_FALSE(topo.excluded(1, 5));
}

} // namespace
} // namespace mdbench
