/**
 * @file
 * One EngineConfig per Simulation (DESIGN.md §16): differently
 * configured simulations stepped alternately in one process must each
 * reproduce their solo run bit for bit, serial and ranked. With the
 * settings held in process-global knobs, one simulation's width, tier
 * or rank schedule would leak into the next.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/suite.h"
#include "md/simulation.h"
#include "parallel/ranked_sim.h"
#include "util/engine_config.h"

namespace mdbench {
namespace {

constexpr long kSteps = 60;

/** The state a run ends in. */
struct Snapshot
{
    std::vector<Vec3> forces;
    std::vector<Vec3> positions;
    std::vector<Vec3> velocities;
    double potential = 0.0;
};

Snapshot
snapshotOf(const Simulation &sim)
{
    const std::size_t n = sim.atoms.nlocal();
    Snapshot snap;
    snap.forces.assign(sim.atoms.f.begin(), sim.atoms.f.begin() + n);
    snap.positions.assign(sim.atoms.x.begin(), sim.atoms.x.begin() + n);
    snap.velocities.assign(sim.atoms.v.begin(), sim.atoms.v.begin() + n);
    snap.potential = sim.potentialEnergy();
    return snap;
}

/** Exact equality: EXPECT_EQ on doubles compares bits. */
void
expectBitwiseEqual(const Snapshot &a, const Snapshot &b)
{
    EXPECT_EQ(a.potential, b.potential);
    ASSERT_EQ(a.positions.size(), b.positions.size());
    for (std::size_t i = 0; i < a.positions.size(); ++i) {
        EXPECT_EQ(a.positions[i].x, b.positions[i].x) << i;
        EXPECT_EQ(a.positions[i].y, b.positions[i].y) << i;
        EXPECT_EQ(a.positions[i].z, b.positions[i].z) << i;
        EXPECT_EQ(a.velocities[i].x, b.velocities[i].x) << i;
        EXPECT_EQ(a.velocities[i].y, b.velocities[i].y) << i;
        EXPECT_EQ(a.velocities[i].z, b.velocities[i].z) << i;
        if (!a.forces.empty()) {
            EXPECT_EQ(a.forces[i].x, b.forces[i].x) << i;
            EXPECT_EQ(a.forces[i].y, b.forces[i].y) << i;
            EXPECT_EQ(a.forces[i].z, b.forces[i].z) << i;
        }
    }
}

std::unique_ptr<Simulation>
ljAt(const EngineConfig &config)
{
    auto sim = buildLJ(5);
    sim->config = config;
    sim->thermoEvery = 0;
    sim->setup();
    return sim;
}

/** An LJ melt over 4 ranks whose every rank runs @p config. */
std::unique_ptr<RankedSimulation>
rankedLJAt(const EngineConfig &config)
{
    auto global = buildLJ(6);
    global->pair.reset();
    global->fixes.clear();
    global->config = config;
    auto ranked = std::make_unique<RankedSimulation>(
        *global, 4, [](Simulation &sim) {
            auto reference = buildLJ(4);
            sim.pair = std::move(reference->pair);
            sim.fixes = std::move(reference->fixes);
            sim.neighbor.skin = reference->neighbor.skin;
            sim.dt = reference->dt;
        });
    ranked->setup();
    return ranked;
}

/** Positions and velocities of every rank's atoms, in tag order. */
Snapshot
gatheredSnapshot(const RankedSimulation &ranked)
{
    Simulation gathered;
    ranked.gather(gathered);
    Snapshot snap = snapshotOf(gathered);
    snap.forces.clear(); // gather() carries no forces
    snap.potential = 0.0;
    return snap;
}

TEST(EngineConfig, InterleavedSimulationsMatchSoloRuns)
{
    EngineConfig mixed4;
    mixed4.simdWidth = 4;
    mixed4.precision = Precision::Mixed;
    EngineConfig double0;
    double0.simdWidth = 0;
    double0.precision = Precision::Double;
    EngineConfig singleNative;
    singleNative.precision = Precision::Single;
    singleNative.sortEvery = 3;
    const EngineConfig configs[] = {mixed4, double0, singleNative};

    std::vector<Snapshot> solo;
    for (const EngineConfig &config : configs) {
        auto sim = ljAt(config);
        sim->run(kSteps);
        solo.push_back(snapshotOf(*sim));
    }
    // Float arithmetic moves the last bits, so a leaked tier would show.
    ASSERT_NE(solo[0].potential, solo[1].potential);

    std::vector<std::unique_ptr<Simulation>> sims;
    for (const EngineConfig &config : configs)
        sims.push_back(ljAt(config));
    for (long step = 0; step < kSteps; ++step)
        for (auto &sim : sims)
            sim->run(1);
    EXPECT_GT(sims[2]->neighbor.sortCount(), 1);
    EXPECT_EQ(sims[0]->neighbor.list().packTier, Precision::Mixed);
    EXPECT_EQ(sims[1]->neighbor.list().padWidth, 0);
    for (std::size_t k = 0; k < sims.size(); ++k) {
        SCOPED_TRACE(k);
        expectBitwiseEqual(snapshotOf(*sims[k]), solo[k]);
    }

    // Two ranked runs, stepped alternately: the sequential oracle with
    // blocking halos and the concurrent scheduler with overlap.
    EngineConfig seqBlocking;
    seqBlocking.rankExec = RankExecution::Sequential;
    seqBlocking.commOverlap = false;
    EngineConfig concurrentOverlap;
    concurrentOverlap.rankExec = RankExecution::Concurrent;
    concurrentOverlap.commOverlap = true;

    std::vector<Snapshot> rankedSolo;
    for (const EngineConfig &config : {seqBlocking, concurrentOverlap}) {
        auto ranked = rankedLJAt(config);
        ranked->run(kSteps);
        rankedSolo.push_back(gatheredSnapshot(*ranked));
    }
    auto seq = rankedLJAt(seqBlocking);
    auto overlapped = rankedLJAt(concurrentOverlap);
    EXPECT_EQ(seq->execution(), RankExecution::Sequential);
    EXPECT_FALSE(seq->commOverlap());
    EXPECT_EQ(overlapped->execution(), RankExecution::Concurrent);
    EXPECT_TRUE(overlapped->commOverlap());
    for (long step = 0; step < kSteps; ++step) {
        seq->run(1);
        overlapped->run(1);
    }
    {
        SCOPED_TRACE("sequential, blocking");
        expectBitwiseEqual(gatheredSnapshot(*seq), rankedSolo[0]);
    }
    {
        SCOPED_TRACE("concurrent, overlapped");
        expectBitwiseEqual(gatheredSnapshot(*overlapped), rankedSolo[1]);
    }
    // The two schedules compute the same trajectory (DESIGN.md §17).
    expectBitwiseEqual(rankedSolo[0], rankedSolo[1]);
}

} // namespace
} // namespace mdbench
