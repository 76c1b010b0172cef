/**
 * @file
 * Tests of the public API: the five native suite builders (Table 2
 * fidelity + short-run stability), taxonomy measurement, and the
 * experiment facade across all four modes.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.h"
#include "core/suite.h"
#include "md/fix_shake.h"
#include "util/engine_config.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

TEST(Suite, LJBuilderMatchesBenchGeometry)
{
    auto sim = buildLJ(5);
    EXPECT_EQ(sim->atoms.nlocal(), 500u);
    EXPECT_NEAR(sim->atoms.nlocal() / sim->box.volume(), 0.8442, 1e-9);
    EXPECT_NEAR(sim->temperature(), 1.44, 1e-9);
    sim->thermoEvery = 0;
    sim->setup();
    EXPECT_NO_THROW(sim->run(50));
}

TEST(Suite, ChainBuilderChainsAreBonded)
{
    auto sim = buildChain(4);
    EXPECT_EQ(sim->atoms.nlocal(), 400u);
    EXPECT_EQ(sim->topology.bonds.size(), 4u * 99u);
    // All initial bond lengths inside the FENE well.
    for (const Bond &bond : sim->topology.bonds) {
        const Vec3 a = sim->atoms.x[bond.tagA - 1];
        const Vec3 b = sim->atoms.x[bond.tagB - 1];
        EXPECT_LT(sim->box.minimumImage(a - b).norm(), 1.3);
    }
    sim->thermoEvery = 0;
    sim->setup();
    EXPECT_NO_THROW(sim->run(100));
}

TEST(Suite, EamBuilderStable)
{
    auto sim = buildEAM(4);
    EXPECT_EQ(sim->atoms.nlocal(), 256u);
    sim->thermoEvery = 0;
    sim->setup();
    const double e0 = sim->kineticEnergy() + sim->potentialEnergy();
    sim->run(50);
    const double e1 = sim->kineticEnergy() + sim->potentialEnergy();
    EXPECT_NEAR(e1, e0, 0.02 * std::fabs(e0));
}

TEST(Suite, ChuteBuilderSettlesOnWall)
{
    auto sim = buildChute(6, 6, 4);
    EXPECT_EQ(sim->atoms.nlocal(), 6u * 6u * 4u);
    EXPECT_FALSE(sim->box.periodic(2));
    sim->thermoEvery = 0;
    sim->setup();
    sim->run(2000);
    // Nothing fell through the wall or flew away.
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        EXPECT_GT(sim->atoms.x[i].z, 0.2) << i;
        EXPECT_LT(sim->atoms.x[i].z, sim->box.hi().z) << i;
    }
}

TEST(Suite, RhodoProxyRunsWithAllFeatures)
{
    auto sim = buildRhodoProxy(8);
    EXPECT_GT(sim->atoms.nlocal(), 1000u);
    EXPECT_FALSE(sim->topology.shakeClusters.empty());
    EXPECT_FALSE(sim->topology.bonds.empty());  // solute chains
    EXPECT_FALSE(sim->topology.angles.empty());
    ASSERT_TRUE(sim->kspace);
    EXPECT_EQ(sim->kspace->name(), "pppm");
    // Charge neutrality.
    double qsum = 0.0;
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i)
        qsum += sim->atoms.q[i];
    EXPECT_NEAR(qsum, 0.0, 1e-9);

    sim->thermoEvery = 0;
    const FixShake *shake = nullptr;
    for (const auto &fix : sim->fixes)
        if (auto *found = dynamic_cast<FixShake *>(fix.get()))
            shake = found;
    ASSERT_NE(shake, nullptr);
    sim->setup();
    // Rigid solvent stays rigid to the fix's own tolerance after every
    // step, with NPT rescaling the box around it.
    for (int step = 1; step <= 20; ++step) {
        SCOPED_TRACE(step);
        ASSERT_NO_THROW(sim->run(1));
        EXPECT_LE(shake->maxResidual(), shake->tolerance());
    }
}

TEST(Suite, RhodoProxyNeighborsPerAtomNearPaper)
{
    // The proxy must land near Table 2's 440 neighbors/atom.
    const TaxonomyRow row = measureTaxonomy(BenchmarkId::Rhodo, 2500);
    EXPECT_NEAR(row.measuredNeighborsPerAtom, 440.0, 110.0);
}

class TaxonomyAll : public ::testing::TestWithParam<BenchmarkId>
{};

TEST_P(TaxonomyAll, MeasuredNeighborsMatchTable2)
{
    const BenchmarkId id = GetParam();
    const TaxonomyRow row = measureTaxonomy(id, 3000);
    EXPECT_GT(row.atoms, 1000);
    // Within ~35% of the Table 2 value (Chute's settled bed and the
    // proxy solvent differ slightly from the original inputs).
    EXPECT_GT(row.measuredNeighborsPerAtom,
              row.paperNeighborsPerAtom * 0.6);
    EXPECT_LT(row.measuredNeighborsPerAtom,
              row.paperNeighborsPerAtom * 1.6);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TaxonomyAll,
                         ::testing::Values(BenchmarkId::LJ,
                                           BenchmarkId::Chain,
                                           BenchmarkId::EAM,
                                           BenchmarkId::Rhodo,
                                           BenchmarkId::Chute));

TEST(ExperimentFacade, ModelCpuMode)
{
    ExperimentSpec spec;
    spec.mode = ExperimentMode::ModelCpu;
    spec.benchmark = BenchmarkId::LJ;
    spec.natoms = 256000;
    spec.resources = 16;
    const ExperimentRecord record = runExperiment(spec);
    EXPECT_GT(record.timestepsPerSecond, 0.0);
    EXPECT_GT(record.parallelEfficiencyPct, 0.0);
    EXPECT_EQ(record.spec.label(), "lj-256k");
}

TEST(ExperimentFacade, ModelGpuMode)
{
    ExperimentSpec spec;
    spec.mode = ExperimentMode::ModelGpu;
    spec.benchmark = BenchmarkId::Rhodo;
    spec.natoms = 864000;
    spec.resources = 4;
    const ExperimentRecord record = runExperiment(spec);
    EXPECT_GT(record.timestepsPerSecond, 0.0);
    EXPECT_GT(record.deviceUtilization, 0.0);
}

TEST(ExperimentFacade, NativeSerialMode)
{
    ExperimentSpec spec;
    spec.mode = ExperimentMode::NativeSerial;
    spec.benchmark = BenchmarkId::LJ;
    spec.natoms = 2000;
    spec.steps = 40;
    const ExperimentRecord record = runExperiment(spec);
    EXPECT_GT(record.timestepsPerSecond, 0.0);
    EXPECT_GT(record.taskBreakdown.fraction(Task::Pair), 0.3);
}

TEST(ExperimentFacade, NativeRankedMode)
{
    ExperimentSpec spec;
    spec.mode = ExperimentMode::NativeRanked;
    spec.benchmark = BenchmarkId::LJ;
    spec.natoms = 2000;
    spec.resources = 4;
    spec.steps = 30;
    const ExperimentRecord record = runExperiment(spec);
    EXPECT_GT(record.timestepsPerSecond, 0.0);
    EXPECT_GT(record.mpiTimePercent, 0.0);
    EXPECT_GT(record.mpiFunctionSeconds[static_cast<std::size_t>(
                  MpiFunction::Init)],
              0.0);
}

TEST(ExperimentFacade, NativeRankedRejectsRhodo)
{
    ExperimentSpec spec;
    spec.mode = ExperimentMode::NativeRanked;
    spec.benchmark = BenchmarkId::Rhodo;
    spec.natoms = 2000;
    spec.resources = 2;
    spec.steps = 5;
    EXPECT_THROW(runExperiment(spec), FatalError);
}

TEST(ExperimentFacade, NativeRunsRestoreTheCallersKnobs)
{
    // A caller's thread count must survive an experiment that resizes
    // the pool, and one whose setup throws. Width and tier live in the
    // run's own Simulation, so the process default stays as it was.
    const int threadsBefore = ThreadPool::threads();
    const EngineConfig defaults = EngineConfig::fromEnv();
    ThreadPool::setThreads(3);
    const auto expectPreset = [&](const char *after) {
        SCOPED_TRACE(after);
        EXPECT_EQ(ThreadPool::threads(), 3);
        EXPECT_EQ(EngineConfig::fromEnv(), defaults);
    };

    ExperimentSpec spec;
    spec.mode = ExperimentMode::NativeSerial;
    spec.benchmark = BenchmarkId::LJ;
    spec.natoms = 500;
    spec.steps = 5;
    spec.threads = 2;
    spec.simdWidth = 2;
    spec.precision = Precision::Single;
    runExperiment(spec);
    expectPreset("serial run");

    ExperimentSpec ranked = spec;
    ranked.mode = ExperimentMode::NativeRanked;
    ranked.natoms = 2000;
    ranked.resources = 2;
    runExperiment(ranked);
    expectPreset("ranked run");

    // The smallest Rhodo box (4 molecules per axis) is narrower than
    // twice the cutoff plus skin, so the halo set-up in setup() throws.
    ExperimentSpec failing = spec;
    failing.benchmark = BenchmarkId::Rhodo;
    failing.natoms = 3;
    EXPECT_THROW(runExperiment(failing), FatalError);
    expectPreset("throwing setup");

    ThreadPool::setThreads(threadsBefore);
}

} // namespace
} // namespace mdbench
