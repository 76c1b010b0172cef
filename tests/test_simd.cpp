/**
 * @file
 * The portable SIMD compute layer (DESIGN.md §12): wrapper-op semantics
 * of the generic and compiled backends, the padded neighbor packing,
 * scalar-vs-SIMD kernel agreement at every width, thread-count
 * invariance of the vector kernels, the sort-interaction regression,
 * the width-selection API, and the exp/erfc of util/simd_math.h.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/suite.h"
#include "env_guard.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/counters.h"
#include "util/error.h"
#include "util/simd.h"
#include "util/simd_math.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

using D2 = Simd<double, 2>;
using D4 = Simd<double, 4>;
using I2 = SimdIndex<2>;

/** Restore the environment-default width when a test exits. */
struct WidthGuard
{
    ~WidthGuard() { setSimdWidth(-1); }
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

using Builder = std::function<std::unique_ptr<Simulation>()>;

std::unique_ptr<Simulation>
builtLJ()
{
    auto sim = buildLJ(4);
    jitter(*sim);
    sim->thermoEvery = 0;
    sim->setup();
    return sim;
}

std::unique_ptr<Simulation>
builtEAM()
{
    auto sim = buildEAM(4);
    jitter(*sim);
    sim->thermoEvery = 0;
    sim->setup();
    return sim;
}

std::unique_ptr<Simulation>
builtCharmm()
{
    auto sim = buildRhodoProxy(8);
    sim->thermoEvery = 0;
    sim->setup();
    return sim;
}

struct Comparison
{
    double maxForceDiff = 0.0;
    bool forcesExact = true;
    double energyDiff = 0.0; ///< relative to the scalar reference
};

/** Forces/energy of a width-@p w setup against the scalar kernels. */
Comparison
compareAgainstScalar(const Builder &build, int w)
{
    setSimdWidth(0);
    auto ref = build();
    setSimdWidth(w);
    auto sim = build();
    Comparison c;
    EXPECT_EQ(ref->atoms.nlocal(), sim->atoms.nlocal());
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        const Vec3 a = sim->atoms.f[i];
        const Vec3 b = ref->atoms.f[i];
        c.maxForceDiff =
            std::max({c.maxForceDiff, std::abs(a.x - b.x),
                      std::abs(a.y - b.y), std::abs(a.z - b.z)});
        if (a.x != b.x || a.y != b.y || a.z != b.z)
            c.forcesExact = false;
    }
    const double refEnergy = ref->potentialEnergy();
    c.energyDiff = std::abs(sim->potentialEnergy() - refEnergy) /
                   std::max(1.0, std::abs(refEnergy));
    return c;
}

// -------------------------------------------------------- wrapper ops

TEST(SimdOps, BroadcastLoadStoreRoundTrip)
{
    const double vals[2] = {1.5, -2.25};
    const auto v = D2::loadu(vals);
    double out[2] = {};
    v.storeu(out);
    EXPECT_EQ(out[0], 1.5);
    EXPECT_EQ(out[1], -2.25);
    const D2 b(3.0);
    EXPECT_EQ(b.lane(0), 3.0);
    EXPECT_EQ(b.lane(1), 3.0);
}

TEST(SimdOps, ArithmeticMatchesScalarPerLane)
{
    const double a[2] = {1.75, -0.5};
    const double b[2] = {0.3, 4.0};
    const auto va = D2::loadu(a);
    const auto vb = D2::loadu(b);
    for (int l = 0; l < 2; ++l) {
        EXPECT_EQ((va + vb).lane(l), a[l] + b[l]);
        EXPECT_EQ((va - vb).lane(l), a[l] - b[l]);
        EXPECT_EQ((va * vb).lane(l), a[l] * b[l]);
        EXPECT_EQ((va / vb).lane(l), a[l] / b[l]);
        EXPECT_EQ(D2::sqrt(vb).lane(l), std::sqrt(b[l]));
        EXPECT_EQ(D2::min(va, vb).lane(l),
                  std::min(a[l], b[l]));
        EXPECT_EQ(D2::max(va, vb).lane(l),
                  std::max(a[l], b[l]));
    }
}

TEST(SimdOps, GenericFmaIsDeliberatelyUnfused)
{
    // Chosen so the rounded product differs from the infinitely precise
    // one: (1 + 2^-27)^2 = 1 + 2^-26 + 2^-54, and the last term is
    // below double precision at this magnitude.
    const double a = 1.0 + std::ldexp(1.0, -27);
    const D2 va(a);
    const D2 vc(-1.0);
    const double unfused = (a * a) + (-1.0);
    const double fused = std::fma(a, a, -1.0);
    ASSERT_NE(unfused, fused); // the probe is meaningful
    EXPECT_EQ((D2::fma(va, va, vc)).lane(0), unfused);
    EXPECT_EQ((D2::fms(va, va, D2(1.0))).lane(0),
              (a * a) - 1.0);
}

TEST(SimdOps, MaskBitsSelectAndCombine)
{
    const double a[4] = {1.0, 5.0, 2.0, 7.0};
    const auto va = D4::loadu(a);
    const D4 three(3.0);
    const auto lt = va < three; // lanes 0, 2
    EXPECT_EQ(lt.bits(), 0b0101);
    EXPECT_TRUE(lt.lane(0));
    EXPECT_FALSE(lt.lane(1));
    const auto gt = va > three; // lanes 1, 3
    EXPECT_EQ(gt.bits(), 0b1010);
    EXPECT_EQ((lt & gt).bits(), 0);
    const auto sel = D4::select(lt, va, three);
    EXPECT_EQ(sel.lane(0), 1.0);
    EXPECT_EQ(sel.lane(1), 3.0);
    EXPECT_EQ(sel.lane(2), 2.0);
    EXPECT_EQ(sel.lane(3), 3.0);
    const D4 zero(0.0);
    EXPECT_EQ((zero != zero).bits(), 0);
}

TEST(SimdOps, GatherAndIndexArithmetic)
{
    const double table[8] = {0, 10, 20, 30, 40, 50, 60, 70};
    const int types[4] = {2, 0, 3, 1};
    const std::uint32_t raw[2] = {3, 1};
    const auto idx = I2::load(raw);
    EXPECT_EQ(idx.lane(0), 3u);
    EXPECT_EQ(idx.lane(1), 1u);
    const auto scaled = idx * 2u + 1u;
    EXPECT_EQ(scaled.lane(0), 7u);
    EXPECT_EQ(scaled.lane(1), 3u);
    const auto g = D2::gather(table, scaled);
    EXPECT_EQ(g.lane(0), 70.0);
    EXPECT_EQ(g.lane(1), 30.0);
    const auto t = I2::gather32(types, idx); // types[3], types[1]
    EXPECT_EQ(t.lane(0), 1u);
    EXPECT_EQ(t.lane(1), 0u);
    EXPECT_EQ(I2::min(idx, 2u).lane(0), 2u);
    const D2 x(2.75);
    EXPECT_EQ(D2::truncToIndex(x).lane(0), 2u);
    EXPECT_EQ(D2::fromIndex(idx).lane(0), 3.0);
}

TEST(SimdOps, LoadXyzwTransposesFourDoubleRecords)
{
    // records r: [100r, 100r+1, 100r+2, 100r+3]
    double pack[4 * 5];
    for (int r = 0; r < 5; ++r)
        for (int c = 0; c < 4; ++c)
            pack[4 * r + c] = 100.0 * r + c;
    const std::uint32_t idx[4] = {4, 0, 2, 1};
    D4 x, y, z, w;
    loadXyzw(pack, idx, x, y, z, w);
    for (int l = 0; l < 4; ++l) {
        EXPECT_EQ(x.lane(l), 100.0 * idx[l] + 0);
        EXPECT_EQ(y.lane(l), 100.0 * idx[l] + 1);
        EXPECT_EQ(z.lane(l), 100.0 * idx[l] + 2);
        EXPECT_EQ(w.lane(l), 100.0 * idx[l] + 3);
    }
}

TEST(SimdOps, SumIsAscendingLaneOrder)
{
    // Order-sensitive values: any other association changes the result.
    const double vals[4] = {1e16, 1.0, -1e16, 1.0};
    const auto v = D4::loadu(vals);
    double expected = vals[0];
    for (int l = 1; l < 4; ++l)
        expected += vals[l];
    EXPECT_EQ(v.sum(), expected);
}

TEST(SimdOps, CompiledBackendMatchesGenericSemantics)
{
    // On an ISA build this exercises the intrinsic specializations; on
    // a scalar build it degenerates to the generic template (and the
    // fma check switches to the unfused contract).
    constexpr int W = kSimdCompiledWidth;
    using D = Simd<double, W>;
    std::array<double, W> a{}, b{}, c{};
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> dist(0.5, 2.0);
    for (int l = 0; l < W; ++l) {
        a[l] = dist(rng);
        b[l] = dist(rng);
        c[l] = dist(rng);
    }
    const D va = D::loadu(a.data());
    const D vb = D::loadu(b.data());
    const D vc = D::loadu(c.data());
    for (int l = 0; l < W; ++l) {
        EXPECT_EQ((va + vb).lane(l), a[l] + b[l]);
        EXPECT_EQ((va * vb).lane(l), a[l] * b[l]);
        EXPECT_EQ((va / vb).lane(l), a[l] / b[l]);
        EXPECT_EQ(D::sqrt(va).lane(l), std::sqrt(a[l]));
        const double expectFma = W > 1 ? std::fma(a[l], b[l], c[l])
                                       : (a[l] * b[l]) + c[l];
        EXPECT_EQ(D::fma(va, vb, vc).lane(l), expectFma);
    }
    const auto mask = va < vb;
    int expectBits = 0;
    for (int l = 0; l < W; ++l)
        expectBits |= (a[l] < b[l] ? 1 : 0) << l;
    EXPECT_EQ(mask.bits(), expectBits);
}

// ---------------------------------------------------- padded packing

TEST(PackedList, RowsPaddedWithSentinelToWidthMultiple)
{
    WidthGuard guard;
    setSimdWidth(4);
    auto sim = builtLJ();
    const NeighborList &list = sim->neighbor.list();
    ASSERT_EQ(list.padWidth, 4);
    ASSERT_TRUE(list.packedFor(4));
    EXPECT_EQ(sim->atoms.npad(), 1u);
    EXPECT_EQ(list.sentinel, static_cast<std::uint32_t>(sim->atoms.nall()));

    std::size_t padSeen = 0;
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        const auto [pb, pe] = list.packedRange(i);
        const auto [b, e] = list.range(i);
        ASSERT_EQ((pe - pb) % 4, 0u);
        ASSERT_GE(pe - pb, e - b);
        // Real entries first, in plain-CSR order; sentinel afterwards.
        for (std::uint32_t k = b; k < e; ++k)
            ASSERT_EQ(list.packedNeighbors[pb + (k - b)],
                      list.neighbors[k]);
        for (std::uint32_t k = pb + (e - b); k < pe; ++k) {
            ASSERT_EQ(list.packedNeighbors[k], list.sentinel);
            ++padSeen;
        }
    }
    EXPECT_EQ(padSeen, list.paddedSlots);
}

TEST(PackedList, DisabledAtWidthZero)
{
    WidthGuard guard;
    setSimdWidth(0);
    auto sim = builtLJ();
    const NeighborList &list = sim->neighbor.list();
    EXPECT_EQ(list.padWidth, 0);
    EXPECT_FALSE(list.packedFor(1));
    EXPECT_EQ(list.paddedSlots, 0u);
}

TEST(PackedList, FullListRequestSurvivesSetup)
{
    // Regression: Simulation::setup used to overwrite an explicit full
    // request with the pair style's (half) preference, silently turning
    // every full-list measurement into a half-list one.
    WidthGuard guard;
    setSimdWidth(0);
    auto half = buildLJ(4);
    jitter(*half);
    half->thermoEvery = 0;
    half->setup();
    ASSERT_FALSE(half->neighbor.list().full);

    auto full = buildLJ(4);
    jitter(*full);
    full->thermoEvery = 0;
    full->neighbor.full = true;
    full->setup();
    ASSERT_TRUE(full->neighbor.list().full);
    EXPECT_EQ(full->neighbor.list().pairCount(),
              2 * half->neighbor.list().pairCount());

    // Same physics from both flavors (summation order differs).
    EXPECT_NEAR(full->potentialEnergy(), half->potentialEnergy(),
                1e-9 * std::abs(half->potentialEnergy()));
    for (std::size_t i = 0; i < half->atoms.nlocal(); ++i) {
        EXPECT_NEAR(full->atoms.f[i].x, half->atoms.f[i].x, 1e-9);
        EXPECT_NEAR(full->atoms.f[i].y, half->atoms.f[i].y, 1e-9);
        EXPECT_NEAR(full->atoms.f[i].z, half->atoms.f[i].z, 1e-9);
    }
}

TEST(PackedList, SimdFullListMatchesScalarFullList)
{
    WidthGuard guard;
    auto build = [] {
        auto sim = buildLJ(4);
        jitter(*sim);
        sim->thermoEvery = 0;
        sim->neighbor.full = true;
        sim->setup();
        return sim;
    };
    for (int w : {1, 2, 4, 8, 16}) {
        const Comparison c = compareAgainstScalar(build, w);
        EXPECT_LT(c.maxForceDiff, 1e-10) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-8) << "width " << w;
    }
}

// ------------------------------------------------- kernel agreement

TEST(Kernels, LjCutMatchesScalarAtEveryWidth)
{
    WidthGuard guard;
    for (int w : {1, 2, 4, 8, 16}) {
        const Comparison c = compareAgainstScalar(builtLJ, w);
        EXPECT_LT(c.maxForceDiff, 1e-10) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-8) << "width " << w;
    }
}

TEST(Kernels, EamMatchesScalarAtEveryWidth)
{
    WidthGuard guard;
    for (int w : {1, 2, 4, 8, 16}) {
        const Comparison c = compareAgainstScalar(builtEAM, w);
        EXPECT_LT(c.maxForceDiff, 1e-10) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-8) << "width " << w;
    }
}

TEST(Kernels, CharmmMatchesScalarAtEveryWidth)
{
    WidthGuard guard;
    for (int w : {1, 2, 4, 8, 16}) {
        const Comparison c = compareAgainstScalar(builtCharmm, w);
        EXPECT_LT(c.maxForceDiff, 1e-9) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-6) << "width " << w;
    }
}

TEST(Kernels, WidthOneIsBitwiseScalarOnNoFmaBuilds)
{
    // The generic backend mirrors the scalar expression trees term for
    // term, so W = 1 must reproduce the scalar kernels bit for bit
    // whenever the compiler cannot contract a*b+c (no FMA codegen).
    // ISA builds hand width 1 the same generic template, but the whole
    // TU is compiled with -mfma, so only the claim below is portable.
    if (kSimdCompiledWidth != 1)
        GTEST_SKIP() << "FMA contraction expected on ISA builds";
    WidthGuard guard;
    for (const Builder &build : {Builder(builtLJ), Builder(builtEAM),
                                 Builder(builtCharmm)}) {
        const Comparison c = compareAgainstScalar(build, 1);
        EXPECT_TRUE(c.forcesExact);
        EXPECT_EQ(c.energyDiff, 0.0);
    }
}

TEST(Kernels, UnsupportedPackedWidthPanics)
{
    // A packing width no kernel instantiates is an internal bug; the
    // dispatcher must not quietly run the scalar kernel instead.
    WidthGuard guard;
    setSimdWidth(4);
    for (const Builder &build : {Builder(builtLJ), Builder(builtEAM),
                                 Builder(builtCharmm)}) {
        auto sim = build();
        NeighborList list = sim->neighbor.list();
        list.padWidth = 3;
        EXPECT_THROW(sim->pair->compute(*sim, list), PanicError);
    }
}

TEST(Kernels, SimdForcesAreThreadCountInvariant)
{
    WidthGuard guard;
    const int before = ThreadPool::threads();
    setSimdWidth(4);
    ThreadPool::setThreads(1);
    auto ref = builtLJ();
    ThreadPool::setThreads(3);
    auto sim = builtLJ();
    ThreadPool::setThreads(before);
    ASSERT_EQ(ref->atoms.nlocal(), sim->atoms.nlocal());
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        EXPECT_EQ(ref->atoms.f[i].x, sim->atoms.f[i].x);
        EXPECT_EQ(ref->atoms.f[i].y, sim->atoms.f[i].y);
        EXPECT_EQ(ref->atoms.f[i].z, sim->atoms.f[i].z);
    }
    EXPECT_EQ(ref->pair->energy(), sim->pair->energy());
    EXPECT_EQ(ref->pair->virial(), sim->pair->virial());
}

TEST(Kernels, SortEveryRebuildKeepsPackingConsistent)
{
    // Regression for the padded-packing x sort interaction: every
    // reorder invalidates the packed indices, so each sorted rebuild
    // must repack before the SIMD kernels touch the list again.
    WidthGuard guard;
    auto run = [](int width) {
        setSimdWidth(width);
        auto sim = buildLJ(4);
        jitter(*sim);
        sim->thermoEvery = 0;
        sim->setSortEvery(1);
        sim->setup();
        sim->run(12);
        return sim;
    };
    auto scalar = run(0);
    auto simd = run(4);
    const NeighborList &list = simd->neighbor.list();
    ASSERT_TRUE(list.packedFor(4));
    for (std::size_t i = 0; i < simd->atoms.nlocal(); ++i) {
        const auto [pb, pe] = list.packedRange(i);
        for (std::uint32_t k = pb; k < pe; ++k)
            ASSERT_LE(list.packedNeighbors[k], list.sentinel);
    }
    EXPECT_NEAR(simd->potentialEnergy(), scalar->potentialEnergy(),
                1e-8 * std::abs(scalar->potentialEnergy()));
}

// ------------------------------------------------------ width API

TEST(WidthApi, OverrideAndRestore)
{
    WidthGuard guard;
    setSimdWidth(2);
    EXPECT_EQ(simdWidth(), 2);
    setSimdWidth(0);
    EXPECT_EQ(simdWidth(), 0);
    setSimdWidth(-1);
    EXPECT_EQ(simdWidth(), simdDefaultWidth());
}

TEST(WidthApi, RejectsUnsupportedWidth)
{
    WidthGuard guard;
    setSimdWidth(4);
    for (int w : {3, 5, 32, -2})
        EXPECT_THROW(setSimdWidth(w), FatalError) << "width " << w;
    // A rejected request leaves the previous override in place.
    EXPECT_EQ(simdWidth(), 4);
}

TEST(WidthApi, EnvironmentAcceptsWidthsAndSwitches)
{
    const int native = 8;
    const std::pair<const char *, int> cases[] = {
        {"", native},   {"0", 0}, {"off", 0}, {"1", native},
        {"on", native}, {"native", native},   {"2", 2},
        {"4", 4},       {"8", 8}, {"16", 16}};
    for (const auto &[text, width] : cases) {
        EnvGuard env("MDBENCH_SIMD", text);
        EXPECT_EQ(detail::simdResolveEnvWidth(native), width)
            << "MDBENCH_SIMD=" << text;
    }
}

TEST(WidthApi, EnvironmentRejectsUnsupportedValues)
{
    for (const char *text : {"3", "32", "avx", "4x", "-1"}) {
        EnvGuard env("MDBENCH_SIMD", text);
        EXPECT_THROW(detail::simdResolveEnvWidth(8), FatalError)
            << "MDBENCH_SIMD=" << text;
    }
}

TEST(WidthApi, BackendNamesAreConsistent)
{
    EXPECT_STREQ(simdBackendName(0), "scalar");
    EXPECT_STREQ(simdBackendName(-1), "scalar");
    // The compiled ISA backend serves its own lane count; an AVX-512
    // build also compiles the AVX2 specializations, which serve half
    // that count. Every other width runs the generic template.
    const std::string isa = simdIsaName();
    const auto expected = [&](int w, int isaWidth) -> std::string {
        if (w > 1 && w == isaWidth)
            return isa;
        if (isa == "avx512" && w == isaWidth / 2)
            return "avx2";
        return "generic";
    };
    for (int w : {1, 2, 4, 8, 16}) {
        ASSERT_TRUE(simdWidthSupported(w));
        EXPECT_EQ(simdBackendName(w), expected(w, kSimdCompiledWidth))
            << "width " << w;
        // Float lanes at a given width use the ISA backend whose float
        // vector holds that many lanes (twice the double count).
        EXPECT_EQ(simdBackendName(w, true),
                  expected(w, kSimdCompiledFloatWidth))
            << "float width " << w;
    }
    EXPECT_FALSE(simdWidthSupported(3));
    EXPECT_FALSE(simdWidthSupported(32));
}

// ------------------------------------------------------ simd_math.h

/** fn.template operator()<W>() for every kernel width. */
template <typename Fn>
void
forEachWidth(Fn &&fn)
{
    fn.template operator()<1>();
    fn.template operator()<2>();
    fn.template operator()<4>();
    fn.template operator()<8>();
    fn.template operator()<16>();
}

/** Lane values of @p f applied to @p xs in W-wide groups. */
template <typename T, int W, typename Fn>
std::vector<T>
mapLanes(const std::vector<T> &xs, Fn &&f)
{
    std::vector<T> out(xs.size());
    for (std::size_t i = 0; i + W <= xs.size(); i += W)
        f(Simd<T, W>::loadu(xs.data() + i)).storeu(out.data() + i);
    return out;
}

/** 960 points spanning [0, 6], a multiple of every width. */
template <typename T>
std::vector<T>
samplesToSix()
{
    std::vector<T> xs(960);
    for (std::size_t i = 0; i < xs.size(); ++i)
        xs[i] = static_cast<T>(6.0 * i / (xs.size() - 1));
    return xs;
}

/**
 * Worst errors of expNonPositive(-x) and erfcExpm2(x) over [0, 6]
 * against libm in double: exp relative, erfc absolute. The reference
 * exponent is -(x*x) rounded in T, the argument the helper sees.
 */
template <typename T>
void
expectExpErfcWithin(double expRel, double erfcAbs)
{
    const std::vector<T> xs = samplesToSix<T>();
    forEachWidth([&]<int W>() {
        using D = Simd<T, W>;
        const auto e = mapLanes<T, W>(
            xs, [](const D &x) { return expNonPositive(D(T(0)) - x); });
        const auto erfc = mapLanes<T, W>(
            xs, [](const D &x) { return erfcExpm2(x).erfc; });
        const auto expm2 = mapLanes<T, W>(
            xs, [](const D &x) { return erfcExpm2(x).expm2; });
        double worstExp = 0.0;
        double worstErfc = 0.0;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const double x = xs[i];
            const double ref = std::exp(-x);
            const double refM2 = std::exp(-double(T(xs[i] * xs[i])));
            worstExp = std::max({worstExp, std::abs(e[i] - ref) / ref,
                                 std::abs(expm2[i] - refM2) / refM2});
            worstErfc =
                std::max(worstErfc, std::abs(erfc[i] - std::erfc(x)));
        }
        EXPECT_LE(worstExp, expRel) << "width " << W;
        EXPECT_LE(worstErfc, erfcAbs) << "width " << W;
    });
}

TEST(SimdMath, DoubleExpAndErfcMatchLibm)
{
    // exp: degree-12 Taylor after Cody–Waite reduction, a few ulp.
    // erfc: the Abramowitz–Stegun 7.1.26 bound, 1.5e-7 absolute.
    expectExpErfcWithin<double>(1e-15, 1.5e-7);
}

TEST(SimdMath, FloatExpAndErfcMatchLibm)
{
    // Degree-7 polynomial: a few float ulp. erfc adds float rounding to
    // the A&S bound; near x = 0 the form amplifies the rounding of t
    // by d(t P(t))/dt = 3.4, so the measured worst case is 5.4e-7.
    expectExpErfcWithin<float>(5e-7, 6e-7);
}

template <typename T>
void
expectExactZeroAndSentinel()
{
    forEachWidth([]<int W>() {
        using D = Simd<T, W>;
        const D zero(T(0));
        const D sentinel(T(1e6));
        const auto atZero = erfcExpm2(zero);
        const auto atSentinel = erfcExpm2(sentinel);
        for (int l = 0; l < W; ++l) {
            EXPECT_EQ(expNonPositive(zero).lane(l), T(1)) << "width " << W;
            EXPECT_EQ(atZero.expm2.lane(l), T(1)) << "width " << W;
            EXPECT_EQ(expNonPositive(zero - sentinel).lane(l), T(0));
            EXPECT_EQ(atSentinel.erfc.lane(l), T(0)) << "width " << W;
            EXPECT_EQ(atSentinel.expm2.lane(l), T(0)) << "width " << W;
        }
    });
}

TEST(SimdMath, ExpIsOneAtZeroAndSentinelsGiveZeros)
{
    expectExactZeroAndSentinel<double>();
    expectExactZeroAndSentinel<float>();
}

/**
 * round and ldexp of every width against Simd<T, 1>, which is the
 * generic backend on every build: ties, signed zeros, and scales
 * across the whole normal 2^k range, subnormal results included.
 */
template <typename T>
void
expectRoundLdexpMatchGeneric(int kMin, int kMax)
{
    using G = Simd<T, 1>;
    std::vector<T> a, k, xs;
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> mant(0.5, 2.0);
    std::uniform_int_distribution<int> expo(kMin, kMax);
    for (int i = 0; i < 256; ++i) {
        a.push_back(static_cast<T>(i % 2 ? mant(rng) : -mant(rng)));
        k.push_back(static_cast<T>(i < 4 ? (i % 2 ? kMin : kMax)
                                         : expo(rng)));
        xs.push_back(static_cast<T>((i - 128) * 0.25));
    }
    const T ties[] = {T(0.5), T(-0.5), T(1.5), T(2.5), T(-2.5), T(-0.0)};
    std::copy(std::begin(ties), std::end(ties), xs.begin());
    forEachWidth([&]<int W>() {
        using D = Simd<T, W>;
        const auto rounded = mapLanes<T, W>(
            xs, [](const D &x) { return D::round(x); });
        for (std::size_t i = 0; i < xs.size(); i += W) {
            const D scaled =
                D::ldexp(D::loadu(a.data() + i), D::loadu(k.data() + i));
            for (int l = 0; l < W; ++l) {
                const T g = G::ldexp(G(a[i + l]), G(k[i + l])).lane(0);
                EXPECT_EQ(scaled.lane(l), g) << "width " << W;
            }
        }
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const T g = G::round(G(xs[i])).lane(0);
            EXPECT_EQ(rounded[i], g) << xs[i] << " width " << W;
            EXPECT_EQ(std::signbit(rounded[i]), std::signbit(g));
        }
    });
    EXPECT_EQ(G::round(G(T(2.5))).lane(0), T(2)); // ties to even
    EXPECT_EQ(G::ldexp(G(T(0.75)), G(T(kMin))).lane(0),
              std::ldexp(T(0.75), kMin)); // subnormal result
}

TEST(SimdMath, RoundAndLdexpMatchGenericBackend)
{
    expectRoundLdexpMatchGeneric<double>(-1022, 1023);
    expectRoundLdexpMatchGeneric<float>(-126, 127);
}

} // namespace
} // namespace mdbench
