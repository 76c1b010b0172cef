/**
 * @file
 * The precision policy of the native compute path (DESIGN.md §13):
 * tier selection/parsing API, float-lane neighbor packing, mixed-tier
 * force agreement against the double oracle, bitwise thread-count
 * determinism at every tier, and the paper's Fig. 15-style acceptance
 * run — long NVE energy drift and RDF deviation bounds per tier.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "core/experiment.h"
#include "core/suite.h"
#include "env_guard.h"
#include "md/analysis.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "util/error.h"
#include "util/precision.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

/** Restore the default tier and SIMD width when a test exits. */
struct TierGuard
{
    ~TierGuard()
    {
        setPrecisionTier(Precision::EngineDefault);
        setSimdWidth(-1);
    }
};

/** Deterministic displacement so lattice symmetry doesn't hide bugs. */
void
jitter(Simulation &sim)
{
    std::mt19937_64 rng(999);
    std::uniform_real_distribution<double> jig(-0.03, 0.03);
    for (std::size_t i = 0; i < sim.atoms.nlocal(); ++i) {
        sim.atoms.x[i].x += jig(rng);
        sim.atoms.x[i].y += jig(rng);
        sim.atoms.x[i].z += jig(rng);
    }
}

/** A jittered system from @p build, set up at @p tier and @p width. */
template <typename Build>
std::unique_ptr<Simulation>
builtAt(Build build, Precision tier, int width)
{
    setPrecisionTier(tier);
    setSimdWidth(width);
    auto sim = build();
    jitter(*sim);
    sim->thermoEvery = 0;
    sim->setup();
    return sim;
}

std::unique_ptr<Simulation>
builtLJ(Precision tier, int width)
{
    return builtAt([] { return buildLJ(4); }, tier, width);
}

std::unique_ptr<Simulation>
builtEAM(Precision tier, int width)
{
    return builtAt([] { return buildEAM(4); }, tier, width);
}

std::unique_ptr<Simulation>
builtCharmm(Precision tier, int width)
{
    return builtAt([] { return buildRhodoProxy(8); }, tier, width);
}

/** The tier's native vector width (float tiers double the lanes). */
int
nativeWidth(Precision tier)
{
    return tier == Precision::Double ? kSimdCompiledWidth
                                     : kSimdCompiledFloatWidth;
}

// ------------------------------------------------------------ tier API

TEST(PrecisionApi, ParseAndNameRoundTrip)
{
    Precision tier = Precision::EngineDefault;
    ASSERT_TRUE(parsePrecision("double", tier));
    EXPECT_EQ(tier, Precision::Double);
    ASSERT_TRUE(parsePrecision("mixed", tier));
    EXPECT_EQ(tier, Precision::Mixed);
    ASSERT_TRUE(parsePrecision("single", tier));
    EXPECT_EQ(tier, Precision::Single);
    ASSERT_TRUE(parsePrecision("default", tier));
    EXPECT_EQ(tier, Precision::EngineDefault);
    EXPECT_FALSE(parsePrecision("half", tier));
    EXPECT_FALSE(parsePrecision("", tier));

    EXPECT_STREQ(precisionName(Precision::Double), "double");
    EXPECT_STREQ(precisionName(Precision::Mixed), "mixed");
    EXPECT_STREQ(precisionName(Precision::Single), "single");
}

TEST(PrecisionApi, OverrideAndRestore)
{
    TierGuard guard;
    setPrecisionTier(Precision::Single);
    EXPECT_EQ(precisionTier(), Precision::Single);
    setPrecisionTier(Precision::Mixed);
    EXPECT_EQ(precisionTier(), Precision::Mixed);
    setPrecisionTier(Precision::EngineDefault);
    EXPECT_EQ(precisionTier(), defaultPrecisionTier());
}

TEST(PrecisionApi, EnvironmentSelectsTheDefaultTier)
{
    const std::pair<const char *, Precision> cases[] = {
        {"", Precision::Double},
        {"double", Precision::Double},
        {"mixed", Precision::Mixed},
        {"single", Precision::Single}};
    for (const auto &[text, tier] : cases) {
        EnvGuard env("MDBENCH_PRECISION", text);
        EXPECT_EQ(defaultPrecisionTier(), tier)
            << "MDBENCH_PRECISION=" << text;
    }
}

TEST(PrecisionApi, EnvironmentRejectsUnknownTier)
{
    for (const char *text : {"float", "half", "Double", "default"}) {
        EnvGuard env("MDBENCH_PRECISION", text);
        EXPECT_THROW(defaultPrecisionTier(), FatalError)
            << "MDBENCH_PRECISION=" << text;
    }
}

TEST(PrecisionApi, ExperimentSpecRestoresEngineDefault)
{
    TierGuard guard;
    const Precision before = precisionTier();
    ExperimentSpec spec;
    spec.mode = ExperimentMode::NativeSerial;
    spec.benchmark = BenchmarkId::LJ;
    spec.natoms = 500;
    spec.steps = 5;
    spec.precision = Precision::Single;
    runExperiment(spec);
    EXPECT_EQ(precisionTier(), before);
}

// ----------------------------------------------------- float packing

TEST(PrecisionPacking, FloatTiersRecordTierAndWidth)
{
    TierGuard guard;
    auto mixed = builtLJ(Precision::Mixed, 8);
    EXPECT_EQ(mixed->neighbor.list().packTier, Precision::Mixed);
    EXPECT_EQ(mixed->neighbor.list().padWidth, 8);

    auto dbl = builtLJ(Precision::Double, 4);
    EXPECT_EQ(dbl->neighbor.list().packTier, Precision::Double);
    EXPECT_EQ(dbl->neighbor.list().padWidth, 4);
}

TEST(PrecisionPacking, DefaultWidthDoublesLanesOnFloatTiers)
{
    TierGuard guard;
    setPrecisionTier(Precision::Mixed);
    setSimdWidth(-1);
    if (simdDefaultFloatWidth() == 0)
        GTEST_SKIP() << "SIMD disabled on this build/host";
    auto sim = buildLJ(4);
    sim->thermoEvery = 0;
    sim->setup();
    EXPECT_EQ(sim->neighbor.list().padWidth, simdDefaultFloatWidth());
    EXPECT_EQ(sim->neighbor.list().packTier, Precision::Mixed);
}

// ------------------------------------------------- force agreement

/**
 * Both float tiers at their native width against the double scalar
 * oracle. Per-pair forces are computed in float and accumulated in
 * double, so the per-atom force error is bounded by float round-off on
 * each pair term, a few ulp x the neighbor count. The documented
 * tolerance is 1e-4 relative to the largest force component and 1e-5
 * relative on the potential energy.
 */
void
expectFloatTiersMatchDouble(std::unique_ptr<Simulation> (*built)(Precision,
                                                                 int))
{
    TierGuard guard;
    auto ref = built(Precision::Double, 0);
    for (Precision tier : {Precision::Mixed, Precision::Single}) {
        auto sim = built(tier, nativeWidth(tier));
        ASSERT_EQ(ref->atoms.nlocal(), sim->atoms.nlocal());
        double maxForce = 0.0;
        double maxDiff = 0.0;
        for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
            const Vec3 a = sim->atoms.f[i];
            const Vec3 b = ref->atoms.f[i];
            maxForce = std::max({maxForce, std::fabs(b.x), std::fabs(b.y),
                                 std::fabs(b.z)});
            maxDiff = std::max({maxDiff, std::fabs(a.x - b.x),
                                std::fabs(a.y - b.y), std::fabs(a.z - b.z)});
        }
        EXPECT_LT(maxDiff, 1e-4 * std::max(1.0, maxForce))
            << precisionName(tier);
        const double refEnergy = ref->potentialEnergy();
        EXPECT_NEAR(sim->potentialEnergy(), refEnergy,
                    1e-5 * std::fabs(refEnergy))
            << precisionName(tier);
    }
}

TEST(PrecisionForces, MixedMatchesDoubleWithinFloatTolerance)
{
    expectFloatTiersMatchDouble(builtLJ);
}

TEST(PrecisionForces, EamMatchesDoubleWithinFloatTolerance)
{
    // The float tiers evaluate the EAM splines over once-cast float
    // coefficient mirrors; the embedding pass stays double.
    expectFloatTiersMatchDouble(builtEAM);
}

TEST(PrecisionForces, CharmmMatchesDoubleWithinFloatTolerance)
{
    // Float-tier charmm runs the LJ switch and the Ewald prefactor in
    // float, including the float exp polynomial and erfc of
    // util/simd_math.h.
    expectFloatTiersMatchDouble(builtCharmm);
}

TEST(PrecisionForces, DoubleTierIsUnchangedByTheKnob)
{
    // Explicitly selecting the double tier must reproduce the
    // engine-default double path bit for bit at the same width.
    TierGuard guard;
    auto def = builtLJ(Precision::EngineDefault, 4);
    auto dbl = builtLJ(Precision::Double, 4);
    ASSERT_EQ(def->atoms.nlocal(), dbl->atoms.nlocal());
    for (std::size_t i = 0; i < dbl->atoms.nlocal(); ++i) {
        EXPECT_EQ(def->atoms.f[i].x, dbl->atoms.f[i].x);
        EXPECT_EQ(def->atoms.f[i].y, dbl->atoms.f[i].y);
        EXPECT_EQ(def->atoms.f[i].z, dbl->atoms.f[i].z);
    }
    EXPECT_EQ(def->pair->energy(), dbl->pair->energy());
}

// ------------------------------------------------ thread determinism

TEST(PrecisionDeterminism, ForcesAreThreadCountInvariantAtEveryTier)
{
    // Row-bounded accumulation makes every tier's forces and energies
    // independent of the slice decomposition: 1 vs 3 pool threads must
    // agree bitwise, not just within tolerance.
    TierGuard guard;
    const int before = ThreadPool::threads();
    for (auto *built : {builtLJ, builtEAM, builtCharmm}) {
        for (Precision tier :
             {Precision::Double, Precision::Mixed, Precision::Single}) {
            ThreadPool::setThreads(1);
            auto ref = built(tier, nativeWidth(tier));
            ThreadPool::setThreads(3);
            auto sim = built(tier, nativeWidth(tier));
            ThreadPool::setThreads(before);
            ASSERT_EQ(ref->atoms.nlocal(), sim->atoms.nlocal());
            for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
                EXPECT_EQ(ref->atoms.f[i].x, sim->atoms.f[i].x)
                    << precisionName(tier);
                EXPECT_EQ(ref->atoms.f[i].y, sim->atoms.f[i].y);
                EXPECT_EQ(ref->atoms.f[i].z, sim->atoms.f[i].z);
            }
            EXPECT_EQ(ref->pair->energy(), sim->pair->energy())
                << precisionName(tier);
            EXPECT_EQ(ref->pair->virial(), sim->pair->virial())
                << precisionName(tier);
        }
    }
}

// ------------------------------------------- Fig. 15-style acceptance

struct TierRun
{
    double drift = 0.0;
    std::vector<double> g;
};

/**
 * Long microcanonical run at the tier's native width: relative energy
 * drift plus an RDF averaged over trailing snapshots (a single
 * instantaneous histogram of a 256-atom box is too noisy to compare).
 */
TierRun
nveRun(Precision tier, long steps)
{
    setPrecisionTier(tier);
    setSimdWidth(nativeWidth(tier));
    auto sim = buildLJ(4);
    sim->thermoEvery = 0;
    sim->setup();
    const double e0 = sim->kineticEnergy() + sim->potentialEnergy();
    sim->run(steps);
    const double e1 = sim->kineticEnergy() + sim->potentialEnergy();

    TierRun run;
    run.drift = std::fabs(e1 - e0) / std::fabs(e0);
    const int snapshots = 8;
    for (int s = 0; s < snapshots; ++s) {
        sim->run(25);
        const Rdf rdf = computeRdf(*sim, 2.5, 100);
        if (run.g.empty())
            run.g.assign(rdf.g.size(), 0.0);
        for (std::size_t b = 0; b < rdf.g.size(); ++b)
            run.g[b] += rdf.g[b] / snapshots;
    }
    setPrecisionTier(Precision::EngineDefault);
    setSimdWidth(-1);
    return run;
}

TEST(PrecisionAcceptance, NveDriftAndRdfBoundsPerTier)
{
    // The paper's Fig. 15 acceptance criteria made native: every tier
    // must conserve energy over a long NVE run, the float tiers within
    // the same absolute bound as the double tier, and the structure
    // (RDF) must stay on the double-tier curve. Trajectories diverge
    // chaotically between tiers, so the RDF bound is statistical, not
    // bitwise.
    TierGuard guard;
    const long steps = 10000;
    const TierRun dbl = nveRun(Precision::Double, steps);
    const double driftBound = 5e-3;
    EXPECT_LT(dbl.drift, driftBound);
    for (Precision tier : {Precision::Mixed, Precision::Single}) {
        const TierRun run = nveRun(tier, steps);
        EXPECT_LT(run.drift, driftBound) << precisionName(tier);
        ASSERT_EQ(run.g.size(), dbl.g.size());
        double maxDiff = 0.0;
        for (std::size_t b = 0; b < run.g.size(); ++b)
            maxDiff = std::max(maxDiff, std::fabs(run.g[b] - dbl.g[b]));
        EXPECT_LT(maxDiff, 0.75) << precisionName(tier);
    }
}

} // namespace
} // namespace mdbench
