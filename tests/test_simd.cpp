/**
 * @file
 * The portable SIMD compute layer (DESIGN.md §12): wrapper-op semantics
 * of the generic and compiled backends, the padded neighbor packing,
 * the per-row cutoff compaction of forcefield/pair_kernel.h, kernel
 * agreement with the width-0 reference at every width, the
 * width-0 rows against the width-1 packing, thread-count
 * invariance of the vector kernels, the sort-interaction regression,
 * the width-selection API, and the exp/erfc of util/simd_math.h.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/suite.h"
#include "env_guard.h"
#include "forcefield/pair_kernel.h"
#include "forcefield/pair_lj_cut.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/counters.h"
#include "util/engine_config.h"
#include "util/error.h"
#include "util/precision.h"
#include "util/simd.h"
#include "util/simd_math.h"
#include "util/thread_pool.h"

namespace mdbench {
namespace {

using D2 = Simd<double, 2>;
using D4 = Simd<double, 4>;
using I2 = SimdIndex<2>;

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

/** A set-up system at a SIMD width (unset: the environment default). */
using Builder =
    std::function<std::unique_ptr<Simulation>(std::optional<int>)>;

/**
 * @p sim set up at SIMD @p width (unset: the environment default) on
 * the double tier, whatever the environment's tier: the width-0
 * reference is double, so every width is compared on the same tier.
 */
std::unique_ptr<Simulation>
setUpAt(std::unique_ptr<Simulation> sim, std::optional<int> width)
{
    if (width)
        sim->config.simdWidth = *width;
    sim->config.precision = Precision::Double;
    sim->thermoEvery = 0;
    sim->setup();
    return sim;
}

std::unique_ptr<Simulation>
builtLJ(std::optional<int> width)
{
    auto sim = buildLJ(4);
    jitter(*sim);
    return setUpAt(std::move(sim), width);
}

std::unique_ptr<Simulation>
builtEAM(std::optional<int> width)
{
    auto sim = buildEAM(4);
    jitter(*sim);
    return setUpAt(std::move(sim), width);
}

std::unique_ptr<Simulation>
builtCharmm(std::optional<int> width)
{
    return setUpAt(buildRhodoProxy(8), width);
}

struct Comparison
{
    double maxForceDiff = 0.0;
    double energyDiff = 0.0; ///< relative to the width-0 reference
};

/**
 * Forces/energy of a width-@p w setup against width 0, the SIMD-off
 * reference: the double W = 1 kernel over the plain neighbor rows.
 */
Comparison
compareAgainstWidthOneReference(const Builder &build, int w)
{
    auto ref = build(0);
    auto sim = build(w);
    Comparison c;
    EXPECT_EQ(ref->atoms.nlocal(), sim->atoms.nlocal());
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        const Vec3 a = sim->atoms.f[i];
        const Vec3 b = ref->atoms.f[i];
        c.maxForceDiff =
            std::max({c.maxForceDiff, std::abs(a.x - b.x),
                      std::abs(a.y - b.y), std::abs(a.z - b.z)});
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

/** @p a and @p b hold the same bits. */
template <typename T>
bool
sameBits(T a, T b)
{
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/**
 * loadXyzw at (T, W): lane l of x/y/z/w holds record idx[l]'s four
 * components bit for bit, and loadXyz returns the same first three.
 * The ids repeat, include the pad record the sentinel points at, and
 * that record is the last one of an exactly sized heap buffer, so a
 * load past it shows under ASan.
 */
template <typename T, int W>
void
expectLoadXyzwTransposesRecords()
{
    SCOPED_TRACE(testing::Message() << sizeof(T) * 8 << "-bit W=" << W);
    constexpr std::uint32_t kRecords = W + 3;
    constexpr std::uint32_t kPad = kRecords - 1;
    std::vector<T> pack(4 * kRecords);
    for (std::uint32_t r = 0; r < kRecords; ++r)
        for (std::uint32_t c = 0; c < 4; ++c)
            pack[4 * r + c] = T(100) * T(r) + T(c) + T(0.5);
    std::array<std::uint32_t, W> idx;
    for (int l = 0; l < W; ++l)
        idx[l] = (3u * static_cast<std::uint32_t>(l) + 1u) % kPad;
    idx[W / 2] = idx[0];
    idx[W - 1] = kPad;

    Simd<T, W> x, y, z, w;
    loadXyzw(pack.data(), idx.data(), x, y, z, w);
    Simd<T, W> x3, y3, z3;
    loadXyz(pack.data(), idx.data(), x3, y3, z3);
    for (int l = 0; l < W; ++l) {
        const T *rec = pack.data() + 4 * idx[l];
        EXPECT_TRUE(sameBits(x.lane(l), rec[0])) << "lane " << l;
        EXPECT_TRUE(sameBits(y.lane(l), rec[1])) << "lane " << l;
        EXPECT_TRUE(sameBits(z.lane(l), rec[2])) << "lane " << l;
        EXPECT_TRUE(sameBits(w.lane(l), rec[3])) << "lane " << l;
        EXPECT_TRUE(sameBits(x3.lane(l), x.lane(l))) << "lane " << l;
        EXPECT_TRUE(sameBits(y3.lane(l), y.lane(l))) << "lane " << l;
        EXPECT_TRUE(sameBits(z3.lane(l), z.lane(l))) << "lane " << l;
    }
}

TEST(SimdOps, LoadXyzwTransposesRecordsOnEveryTrait)
{
    // Double 4/8 and float 8/16 take the ISA traits where the build has
    // them; double 16 and float 4 always take the generic one.
    expectLoadXyzwTransposesRecords<double, 4>();
    expectLoadXyzwTransposesRecords<double, 8>();
    expectLoadXyzwTransposesRecords<float, 8>();
    expectLoadXyzwTransposesRecords<float, 16>();
    expectLoadXyzwTransposesRecords<double, 16>();
    expectLoadXyzwTransposesRecords<float, 4>();
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

// ------------------------------------------------ backend equivalence

/** Same lane value: both NaN, or equal bit for bit (-0 is not +0). */
template <typename T>
bool
sameLane(T x, T y)
{
    if (std::isnan(x) || std::isnan(y))
        return std::isnan(x) && std::isnan(y);
    return std::memcmp(&x, &y, sizeof(T)) == 0;
}

/**
 * Every op of Simd, SimdMask and SimdIndex at (T, W), lane for lane
 * against the generic trait detail::ArrayRegs<T, W> at the same W, on
 * every pair of NaN, ±0, ±inf, extremes, a subnormal and plain values.
 * fma/fms are expected fused on an ISA trait, unfused on the generic.
 * Where the build has no ISA trait for (T, W), the class body is
 * checked against its own generic trait.
 */
template <typename T, int W>
void
expectEveryOpMatchesGenericTrait()
{
    using D = Simd<T, W>;
    using M = SimdMask<T, W>;
    using I = SimdIndex<W>;
    using G = detail::ArrayRegs<T, W>;
    using GI = detail::ArrayIndexRegs<W>;
    constexpr bool kFused = !std::is_base_of_v<G, detail::SimdRegs<T, W>>;
    using Limits = std::numeric_limits<T>;
    // The generic trait's result of op(r, args...).
    const auto gv = [](auto op, const auto &...args) {
        typename G::V r{};
        op(r, args...);
        return r;
    };
    const auto gm = [](auto op, const auto &...args) {
        typename G::M r{};
        op(r, args...);
        return r;
    };
    const auto gi = [](auto op, const auto &...args) {
        typename GI::I r{};
        op(r, args...);
        return r;
    };

    constexpr int kSpecials = 16;
    const T specials[kSpecials] = {
        Limits::quiet_NaN(), T(-0.0), T(0.0), Limits::infinity(),
        -Limits::infinity(), T(1), T(-1), T(0.5), T(-2.5), T(1.5), T(3),
        Limits::max(), Limits::min(), Limits::denorm_min(), T(-7.25),
        T(1) + Limits::epsilon()};
    // Every (a, b) pair of specials; c cycles through them out of step.
    std::vector<T> a, b, c;
    for (int i = 0; i < kSpecials * kSpecials; ++i) {
        a.push_back(specials[i % kSpecials]);
        b.push_back(specials[i / kSpecials]);
        c.push_back(specials[(7 * i + 3) % kSpecials]);
    }

    const auto expectLanes = [](const D &got, const typename G::V &want,
                                const char *op, std::size_t at) {
        for (int l = 0; l < W; ++l)
            EXPECT_TRUE(sameLane(got.lane(l), want[l]))
                << op << " at " << at + l << ": " << got.lane(l)
                << " vs generic " << want[l];
    };
    const auto expectMask = [](const M &got, const typename G::M &want,
                               const char *op, std::size_t at) {
        EXPECT_EQ(got.bits(), G::movemask(want)) << op << " at " << at;
        for (int l = 0; l < W; ++l)
            EXPECT_EQ(got.lane(l), want[l]) << op << " at " << at + l;
    };

    for (std::size_t i = 0; i < a.size(); i += W) {
        const D va = D::loadu(&a[i]);
        const D vb = D::loadu(&b[i]);
        const D vc = D::loadu(&c[i]);
        const auto ga = gv(G::loadu, &a[i]);
        const auto gb = gv(G::loadu, &b[i]);
        const auto gc = gv(G::loadu, &c[i]);

        T stored[W];
        va.storeu(stored);
        for (int l = 0; l < W; ++l)
            EXPECT_TRUE(sameLane(stored[l], a[i + l])) << "storeu";
        expectLanes(D(a[i]), gv(G::set1, a[i]), "broadcast", i);
        expectLanes(va + vb, gv(G::add, ga, gb), "+", i);
        expectLanes(va - vb, gv(G::sub, ga, gb), "-", i);
        expectLanes(va * vb, gv(G::mul, ga, gb), "*", i);
        expectLanes(va / vb, gv(G::div, ga, gb), "/", i);
        D acc = va;
        acc += vb;
        expectLanes(acc, gv(G::add, ga, gb), "+=", i);
        expectLanes(D::sqrt(va), gv(G::sqrt, ga), "sqrt", i);
        if constexpr (kFused) {
            for (int l = 0; l < W; ++l) {
                const std::size_t k = i + static_cast<std::size_t>(l);
                EXPECT_TRUE(sameLane(D::fma(va, vb, vc).lane(l),
                                     std::fma(a[k], b[k], c[k])))
                    << "fma at " << k;
                EXPECT_TRUE(sameLane(D::fms(va, vb, vc).lane(l),
                                     std::fma(a[k], b[k], -c[k])))
                    << "fms at " << k;
            }
        } else {
            expectLanes(D::fma(va, vb, vc), gv(G::fmadd, ga, gb, gc), "fma", i);
            expectLanes(D::fms(va, vb, vc), gv(G::fmsub, ga, gb, gc), "fms", i);
        }
        expectLanes(D::min(va, vb), gv(G::min, ga, gb), "min", i);
        expectLanes(D::max(va, vb), gv(G::max, ga, gb), "max", i);
        expectLanes(D::round(va), gv(G::round, ga), "round", i);

        expectMask(va < vb, gm(G::cmp_lt, ga, gb), "<", i);
        expectMask(va > vb, gm(G::cmp_gt, ga, gb), ">", i);
        expectMask(va != vb, gm(G::cmp_ne, ga, gb), "!=", i);
        expectMask(va == vb, gm(G::cmp_eq, ga, gb), "==", i);
        expectMask(va >= vb, gm(G::cmp_ge, ga, gb), ">=", i);
        const M m1 = va < vb;
        const M m2 = vb >= vc;
        const auto gm1 = gm(G::cmp_lt, ga, gb);
        const auto gm2 = gm(G::cmp_ge, gb, gc);
        expectMask(m1 & m2, gm(G::mand, gm1, gm2), "&", i);
        expectMask(m1 | m2, gm(G::mor, gm1, gm2), "|", i);
        expectMask(m1.andnot(m2), gm(G::mandnot, gm1, gm2), "andnot", i);
        expectLanes(D::select(m1, va, vb), gv(G::blend, gm1, ga, gb),
                    "select", i);
        expectLanes(D::maskZero(m2, va), gv(G::maskz, gm2, ga), "maskZero",
                    i);

        T fold = a[i];
        for (int l = 1; l < W; ++l)
            fold += a[i + l];
        EXPECT_TRUE(sameLane(va.sum(), fold)) << "sum at " << i;
    }

    // ldexp: every special scaled by the exponent limits and between.
    const int kMax = Limits::max_exponent - 1;
    const int kMin = Limits::min_exponent - 1;
    const int exps[kSpecials] = {kMin,     kMax,     0,        1,
                                 -1,       2,        -2,       7,
                                 -9,       31,       -40,      60,
                                 kMin + 1, kMax - 1, kMin / 2, kMax / 2};
    for (int e = 0; e < kSpecials; ++e) {
        std::vector<T> k;
        for (int l = 0; l < kSpecials; ++l)
            k.push_back(static_cast<T>(exps[(e + l) % kSpecials]));
        for (int s = 0; s < kSpecials; s += W) {
            const D got = D::ldexp(D::loadu(&specials[s]), D::loadu(&k[s]));
            const auto want = gv(G::ldexp, gv(G::loadu, &specials[s]),
                                 gv(G::loadu, &k[s]));
            expectLanes(got, want, "ldexp", static_cast<std::size_t>(e));
        }
    }

    // Index lanes: unsigned wrap in * and +, ids < 2^31 where the
    // contract requires it (fromIndex*, truncToIndex, fromIndex).
    const std::uint32_t big[16] = {0,  1,          2,          3,
                                   5,  8,          13,         0x7fffffffu,
                                   0x80000000u, 0xffffffffu, 1u << 20,
                                   77, 4096,       65535,      9, 10};
    const std::uint32_t small[16] = {3, 0, 7, 1, 6, 2, 5, 4,
                                     2, 2, 0, 7, 1, 3, 6, 5};
    const int types[8] = {2, 0, 3, 1, 9, -4, 11, 6};
    const T table[8] = {T(0), T(10), T(-20), T(30),
                        T(40), T(-0.0), T(60), T(70)};
    const T toTrunc[16] = {T(0),   T(0.5),  T(0.99), T(1),
                           T(2.75), T(3.5), T(1e6),  T(1 << 30),
                           T(7),   T(8.25), T(9.9),  T(11),
                           T(12),  T(13.5), T(14),   T(15.75)};
    for (int at = 0; at < 16; at += W) {
        const I idx = I::load(&big[at]);
        const I ids = I::load(&small[at]);
        const auto gidx = gi(GI::loadu, &big[at]);
        const auto gids = gi(GI::loadu, &small[at]);
        for (int l = 0; l < W; ++l)
            EXPECT_EQ(idx.lane(l), big[at + l]) << "load";
        for (const std::uint32_t s : {0u, 3u, 6u, 0x9e3779b9u}) {
            const auto mullo = gi(GI::mullo, gidx, s);
            const auto add = gi(GI::add, gidx, s);
            const auto min = gi(GI::min, gidx, s);
            for (int l = 0; l < W; ++l) {
                EXPECT_EQ((idx * s).lane(l), mullo[l]) << "*" << s;
                EXPECT_EQ((idx + s).lane(l), add[l]) << "+" << s;
                EXPECT_EQ(I::min(idx, s).lane(l), min[l]) << "min" << s;
            }
            if (s < 8) {
                expectMask(M::fromIndexGT(ids, s), gm(G::idx_gt, ids, s),
                           "fromIndexGT", static_cast<std::size_t>(at));
                expectMask(M::fromIndexEQ(ids, s), gm(G::idx_eq, ids, s),
                           "fromIndexEQ", static_cast<std::size_t>(at));
            }
        }
        const auto types32 = gi(GI::gather32, types, gids);
        for (int l = 0; l < W; ++l)
            EXPECT_EQ(I::gather32(types, ids).lane(l), types32[l]);
        expectLanes(D::gather(table, ids), gv(G::gather, table, ids), "gather",
                    static_cast<std::size_t>(at));
        expectLanes(D::fromIndex(ids), gv(G::cvt, ids), "fromIndex",
                    static_cast<std::size_t>(at));
        const I trunc = D::truncToIndex(D::loadu(&toTrunc[at]));
        I gtrunc;
        G::cvtt(gtrunc, gv(G::loadu, &toTrunc[at]));
        for (int l = 0; l < W; ++l)
            EXPECT_EQ(trunc.lane(l), gtrunc.lane(l)) << "truncToIndex";

        // compressStore: the compiled overload against the generic
        // template, exactly popcount lanes written.
        for (int bits = 0; bits < (1 << W); bits += W == 16 ? 97 : 1) {
            std::uint32_t got[17], want[17];
            std::fill(std::begin(got), std::end(got), 0xdeadu);
            std::fill(std::begin(want), std::end(want), 0xdeadu);
            const int n = compressStore(got, idx, bits);
            EXPECT_EQ(n, compressStore<W>(want, idx, bits));
            EXPECT_TRUE(std::equal(std::begin(got), std::end(got),
                                   std::begin(want)))
                << "compressStore bits " << bits;
        }
    }
}

TEST(SimdBackend, EveryOpMatchesGenericTraitDouble4)
{
    expectEveryOpMatchesGenericTrait<double, 4>();
}

TEST(SimdBackend, EveryOpMatchesGenericTraitFloat8)
{
    expectEveryOpMatchesGenericTrait<float, 8>();
}

TEST(SimdBackend, EveryOpMatchesGenericTraitDouble8)
{
    expectEveryOpMatchesGenericTrait<double, 8>();
}

TEST(SimdBackend, EveryOpMatchesGenericTraitFloat16)
{
    expectEveryOpMatchesGenericTrait<float, 16>();
}

// ---------------------------------------------------- padded packing

/**
 * A system set up at @p width with a half (EAM) or full (LJ melt),
 * split or whole list on four threads, then rebuilt at a larger skin:
 * the rows outgrow the regions the first build sized, so rows of the
 * second build go through the fill's spill buffers.
 */
std::unique_ptr<Simulation>
builtListAt(int width, bool full, bool split)
{
    const int before = ThreadPool::threads();
    ThreadPool::setThreads(4);
    auto sim = full ? buildLJ(5) : buildEAM(5);
    jitter(*sim);
    sim->neighbor.splitGhostPairs = split;
    sim = setUpAt(std::move(sim), width);
    sim->neighbor.skin = 0.8;
    sim->reneighbor();
    ThreadPool::setThreads(before);
    return sim;
}

/** Which of a simulation's lists a layout case reads. */
enum class ListKind { Main, Interior, Boundary };

const NeighborList &
listOf(const Simulation &sim, ListKind kind)
{
    switch (kind) {
      case ListKind::Interior: return sim.neighbor.interiorList();
      case ListKind::Boundary: return sim.neighbor.boundaryList();
      default: return sim.neighbor.list();
    }
}

TEST(PackedList, RowsPaddedWithSentinelToWidthMultiple)
{
    // Every list the kernels traverse — the main list, and the interior
    // and boundary sublists of a split build — starts each row at a
    // multiple of the pad width, holds the width-1 row's ids there, and
    // only the sentinel from the row's count up to the next row start.
    const char *kindNames[] = {"main", "interior", "boundary"};
    for (const bool full : {false, true}) {
        for (const ListKind kind :
             {ListKind::Main, ListKind::Interior, ListKind::Boundary}) {
            const bool split = kind != ListKind::Main;
            const auto ref = builtListAt(1, full, split);
            const NeighborList &plain = listOf(*ref, kind);
            for (const int width : {0, 1, 2, 4, 8, 16}) {
                SCOPED_TRACE(testing::Message()
                             << (full ? "full " : "half ")
                             << kindNames[static_cast<int>(kind)]
                             << " width=" << width);
                const auto sim = builtListAt(width, full, split);
                const NeighborList &list = listOf(*sim, kind);
                const std::size_t nlocal = sim->atoms.nlocal();
                ASSERT_EQ(list.padWidth, width);
                ASSERT_EQ(list.offsets.size(), nlocal + 1);
                ASSERT_EQ(list.counts.size(), nlocal);
                ASSERT_EQ(list.offsets[nlocal], list.neighbors.size());
                if (width >= 1) {
                    EXPECT_EQ(sim->atoms.npad(), 1u);
                    EXPECT_EQ(list.sentinel,
                              static_cast<std::uint32_t>(sim->atoms.nall()));
                }
                // The kernels traverse the one array, padding included.
                ASSERT_EQ(list.rows().offsets, list.offsets.data());
                ASSERT_EQ(list.rows().neighbors, list.neighbors.data());
                const std::uint32_t w =
                    static_cast<std::uint32_t>(std::max(width, 1));
                const std::uint32_t *ids = list.neighbors.data();
                const std::uint32_t *refIds = plain.neighbors.data();
                std::size_t pairs = 0;
                std::size_t padSeen = 0;
                for (std::size_t i = 0; i < nlocal; ++i) {
                    ASSERT_EQ(list.offsets[i] % w, 0u) << i;
                    const auto [b, e] = list.range(i);
                    const auto [rb, re] = plain.range(i);
                    ASSERT_TRUE(std::equal(ids + b, ids + e, refIds + rb,
                                           refIds + re))
                        << i;
                    const std::uint32_t next = list.offsets[i + 1];
                    ASSERT_LE(e, next) << i;
                    ASSERT_LT(next - e, w) << i;
                    for (std::uint32_t k = e; k < next; ++k) {
                        ASSERT_EQ(ids[k], list.sentinel) << i;
                        ++padSeen;
                    }
                    pairs += list.counts[i];
                }
                EXPECT_EQ(list.pairCount(), pairs);
                EXPECT_EQ(list.paddedSlots, padSeen);
                if (split) {
                    // The sublists partition the unpadded main list.
                    const Simulation &s = *sim;
                    EXPECT_EQ(s.neighbor.list().padWidth, 0);
                    EXPECT_EQ(s.neighbor.interiorList().pairCount() +
                                  s.neighbor.boundaryList().pairCount(),
                              s.neighbor.list().pairCount());
                }
            }
        }
    }
}

TEST(PackedList, DisabledAtWidthZero)
{
    auto sim = builtLJ(0);
    const NeighborList &list = sim->neighbor.list();
    EXPECT_EQ(list.padWidth, 0);
    EXPECT_FALSE(list.packedFor(1));
    EXPECT_EQ(list.paddedSlots, 0u);
    // The rows hold their real ids and nothing else.
    EXPECT_EQ(list.neighbors.size(), list.pairCount());
    EXPECT_EQ(list.rows().offsets, list.offsets.data());
    EXPECT_EQ(list.rows().neighbors, list.neighbors.data());
}

/**
 * The LJ melt's forces and potential energy summed over every pair
 * once, by minimum image (its box is wider than twice the cutoff).
 */
std::pair<std::vector<Vec3>, double>
bruteForceLJ(const Simulation &sim)
{
    // buildLJ's style: epsilon = sigma = 1, cutoff 2.5, no shift.
    const double cutSq = 2.5 * 2.5;
    const std::size_t n = sim.atoms.nlocal();
    std::vector<Vec3> f(n);
    double energy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const Vec3 d =
                sim.box.minimumImage(sim.atoms.x[i] - sim.atoms.x[j]);
            const double r2 = d.normSq();
            if (r2 >= cutSq)
                continue;
            const double r6inv = 1.0 / (r2 * r2 * r2);
            const double fpair = r6inv * (48.0 * r6inv - 24.0) / r2;
            f[i] += d * fpair;
            f[j] -= d * fpair;
            energy += 4.0 * r6inv * (r6inv - 1.0);
        }
    }
    return {f, energy};
}

TEST(PackedList, LjCutRunsOnAFullListMatchingBruteForce)
{
    // lj/cut asks for a full list: setup builds one at every width and
    // tier, even when the request was for a half list.
    for (const int width : {0, 1, 2, 4, 8, 16}) {
        for (const Precision tier :
             {Precision::Double, Precision::Mixed, Precision::Single}) {
            SCOPED_TRACE(testing::Message() << "width=" << width << " "
                                            << precisionName(tier));
            auto sim = buildLJ(4);
            sim->config.simdWidth = width;
            sim->config.precision = tier;
            sim->neighbor.full = false;
            sim->thermoEvery = 0;
            sim->setup();
            EXPECT_TRUE(sim->neighbor.list().full);
        }
    }

    // The width-0 kernel against an O(N²) sum over each pair once.
    auto sim = builtLJ(0);
    const auto [f, energy] = bruteForceLJ(*sim);
    EXPECT_NEAR(sim->potentialEnergy(), energy, 1e-9 * std::abs(energy));
    for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
        EXPECT_NEAR(sim->atoms.f[i].x, f[i].x, 1e-9) << i;
        EXPECT_NEAR(sim->atoms.f[i].y, f[i].y, 1e-9) << i;
        EXPECT_NEAR(sim->atoms.f[i].z, f[i].z, 1e-9) << i;
    }
}

/**
 * builtLJ with every other atom of a second type, so lj/cut runs its
 * multi-type body: per-lane type and coefficient gathers.
 */
std::unique_ptr<Simulation>
builtLJTwoTypes(std::optional<int> width)
{
    auto sim = buildLJ(4);
    jitter(*sim);
    sim->atoms.setNumTypes(2);
    for (std::size_t i = 0; i < sim->atoms.nlocal(); i += 2)
        sim->atoms.type[i] = 2;
    auto pair = std::make_unique<PairLJCut>(2, 2.5);
    pair->setCoeff(1, 1, 1.0, 1.0);
    pair->setCoeff(2, 2, 0.8, 1.1);
    pair->mix(MixRule::Arithmetic);
    sim->pair = std::move(pair);
    return setUpAt(std::move(sim), width);
}

TEST(PackedList, SimdFullListMatchesScalarFullList)
{
    for (int w : {1, 2, 4, 8, 16}) {
        const Comparison c =
            compareAgainstWidthOneReference(builtLJTwoTypes, w);
        EXPECT_LT(c.maxForceDiff, 1e-10) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-8) << "width " << w;
    }
}

// ------------------------------------------------ cutoff compaction

/** All chunks of one row through CutoffRows, concatenated. */
struct CompactedChunks
{
    std::vector<std::uint32_t> ids; ///< every slot handed back, in order
    std::vector<std::uint32_t> counts; ///< slots per chunk
};

template <typename T, int W>
CompactedChunks
compactWholeRow(CutoffRows<T, W> &rows, const std::vector<std::uint32_t> &pk,
                std::uint32_t begin, std::uint32_t end)
{
    using D = Simd<T, W>;
    const D origin(T(0));
    CompactedChunks out;
    for (std::uint32_t c = begin; c < end;) {
        const CompactedRow row = rows.compact(c, end, origin, origin, origin);
        if (W == 1) {
            // W = 1 hands back the row itself, in one piece.
            EXPECT_EQ(row.ids, pk.data() + c);
            EXPECT_EQ(row.next, end);
        } else {
            EXPECT_EQ(row.next - c,
                      std::min(end - c, CutoffRows<T, W>::kChunk));
        }
        EXPECT_EQ(row.count % W, 0u);
        out.ids.insert(out.ids.end(), row.ids, row.ids + row.count);
        out.counts.push_back(row.count);
        c = row.next;
    }
    return out;
}

/**
 * CutoffRows<T, W> around an atom at the origin, over rows of atoms
 * placed well inside the cutoff, well outside it, and exactly on it.
 */
template <typename T, int W>
void
expectCompactRowKeepsInCutoffIdsInOrder()
{
    SCOPED_TRACE(std::string(std::is_same_v<T, double> ? "double" : "float") +
                 " W = " + std::to_string(W));
    using Rows = CutoffRows<T, W>;
    constexpr std::uint32_t kAtoms = 2 * Rows::kChunk + 40;
    const std::uint32_t sentinel = kAtoms;
    // Records [x, y, z, w]; atom ids 0..kAtoms-1, then the sentinel far
    // out. Atoms with id % 5 == 3 sit exactly on the cutoff (r² = 4 =
    // cutSq along one axis), id % 5 == 1 or 4 outside, the rest inside.
    std::vector<T> xpk(4 * (kAtoms + 1), T(0));
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> dir(-1.0, 1.0);
    std::vector<bool> inside(kAtoms);
    for (std::uint32_t a = 0; a < kAtoms; ++a) {
        T *rec = xpk.data() + 4 * a;
        if (a % 5 == 3) {
            rec[a % 3] = (a % 2) ? T(2) : T(-2);
            continue;
        }
        inside[a] = a % 5 != 1 && a % 5 != 4;
        const double radius = inside[a] ? 1.8 : 2.2;
        double v[3];
        double norm = 0.0;
        do {
            for (double &c : v)
                c = dir(rng);
            norm = std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
        } while (norm < 0.1);
        for (int c = 0; c < 3; ++c)
            rec[c] = static_cast<T>(radius * v[c] / norm);
    }
    for (int c = 0; c < 3; ++c)
        xpk[4 * sentinel + c] = T(1e6);

    // One packed row of every atom, a second row of in-cutoff atoms
    // only, a third of on-cutoff and outside atoms only; each padded
    // to a multiple of W with the sentinel, as packing pads it.
    std::vector<std::uint32_t> pk;
    std::vector<std::uint32_t> offsets = {0};
    std::vector<std::uint32_t> expected;
    const auto endRow = [&] {
        while (pk.size() % W != 0)
            pk.push_back(sentinel);
        offsets.push_back(static_cast<std::uint32_t>(pk.size()));
    };
    for (std::uint32_t a = 0; a < kAtoms; ++a) {
        pk.push_back(a);
        if (inside[a])
            expected.push_back(a);
    }
    endRow();
    for (std::uint32_t a = 0; a < 8 * W; ++a) {
        if (inside[a])
            pk.push_back(a);
    }
    endRow();
    for (std::uint32_t a = 0; a < 8 * W; ++a) {
        if (!inside[a])
            pk.push_back(a);
    }
    endRow();
    ASSERT_GT(offsets[1] - offsets[0], Rows::kChunk);

    Rows rows(xpk.data(), pk.data(), T(4), sentinel);
    std::uint64_t slots = 0;
    for (std::size_t r = 0; r + 1 < offsets.size(); ++r) {
        SCOPED_TRACE("row " + std::to_string(r));
        const CompactedChunks got =
            compactWholeRow(rows, pk, offsets[r], offsets[r + 1]);
        for (std::uint32_t n : got.counts)
            slots += n;
        if (W == 1) {
            // Nothing dropped: the W = 1 kernel skips rejected pairs.
            EXPECT_EQ(got.ids, std::vector<std::uint32_t>(
                                   pk.begin() + offsets[r],
                                   pk.begin() + offsets[r + 1]));
            continue;
        }
        if (r == 1) {
            // Entirely inside: the row comes back unchanged.
            EXPECT_EQ(got.ids, std::vector<std::uint32_t>(
                                   pk.begin() + offsets[1],
                                   pk.begin() + offsets[2]));
        }
        if (r == 2) {
            // On or outside the cutoff only: zero groups.
            EXPECT_TRUE(got.ids.empty());
        }
        // Each chunk is its kept ids ascending, then fewer than W
        // sentinels; the kept ids together are the row's in-cutoff
        // subset.
        std::vector<std::uint32_t> kept;
        std::size_t at = 0;
        for (std::uint32_t n : got.counts) {
            std::uint32_t pad = 0;
            for (std::uint32_t l = 0; l < n; ++l) {
                const std::uint32_t id = got.ids[at + l];
                if (id == sentinel) {
                    ++pad;
                } else {
                    EXPECT_EQ(pad, 0u) << "sentinel before a kept id";
                    kept.push_back(id);
                }
            }
            EXPECT_LT(pad, static_cast<std::uint32_t>(W));
            at += n;
        }
        if (r == 0) {
            EXPECT_EQ(kept, expected);
        }
    }
    EXPECT_EQ(rows.slots(), slots);
}

template <int W>
void
expectCompactRowAtWidth()
{
    expectCompactRowKeepsInCutoffIdsInOrder<double, W>();
    expectCompactRowKeepsInCutoffIdsInOrder<float, W>();
}

TEST(PairKernel, CompactRowKeepsInCutoffIdsInOrder)
{
    expectCompactRowAtWidth<1>();
    expectCompactRowAtWidth<2>();
    expectCompactRowAtWidth<4>();
    expectCompactRowAtWidth<8>();
    expectCompactRowAtWidth<16>();
}

// ------------------------------------------------- kernel agreement

TEST(Kernels, LjCutMatchesWidthOneReferenceAtEveryWidth)
{
    for (int w : {1, 2, 4, 8, 16}) {
        const Comparison c = compareAgainstWidthOneReference(builtLJ, w);
        EXPECT_LT(c.maxForceDiff, 1e-10) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-8) << "width " << w;
    }
}

TEST(Kernels, EamMatchesWidthOneReferenceAtEveryWidth)
{
    for (int w : {1, 2, 4, 8, 16}) {
        const Comparison c = compareAgainstWidthOneReference(builtEAM, w);
        EXPECT_LT(c.maxForceDiff, 1e-10) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-8) << "width " << w;
    }
}

TEST(Kernels, CharmmMatchesWidthOneReferenceAtEveryWidth)
{
    for (int w : {1, 2, 4, 8, 16}) {
        const Comparison c =
            compareAgainstWidthOneReference(builtCharmm, w);
        EXPECT_LT(c.maxForceDiff, 1e-9) << "width " << w;
        EXPECT_LT(c.energyDiff, 1e-6) << "width " << w;
    }
}

TEST(Kernels, PlainRowsAreBitwiseThePackedWidthOne)
{
    // Width 0 runs the double W = 1 kernel over unpadded rows; width 1
    // runs the same instantiation over the width-1 rows, which pad
    // nothing. Both must give the same bits on every build, FMA or not.
    const int before = ThreadPool::threads();
    const std::pair<const char *, Builder> styles[] = {
        {"lj/cut", builtLJ},
        {"eam", builtEAM},
        {"charmm", builtCharmm},
    };
    for (int threads : {1, 4}) {
        ThreadPool::setThreads(threads);
        for (const auto &[name, build] : styles) {
            SCOPED_TRACE(std::string(name) + ", " +
                         std::to_string(threads) + " threads");
            auto plain = build(0);
            auto packed = build(1);
            ASSERT_EQ(plain->neighbor.list().padWidth, 0);
            ASSERT_EQ(plain->neighbor.list().paddedSlots, 0u);
            ASSERT_EQ(packed->neighbor.list().padWidth, 1);
            ASSERT_EQ(packed->neighbor.list().paddedSlots, 0u);
            ASSERT_EQ(plain->atoms.nlocal(), packed->atoms.nlocal());
            std::size_t differ = 0;
            for (std::size_t i = 0; i < plain->atoms.nlocal(); ++i) {
                const Vec3 a = plain->atoms.f[i];
                const Vec3 b = packed->atoms.f[i];
                if (a.x != b.x || a.y != b.y || a.z != b.z)
                    ++differ;
            }
            EXPECT_EQ(differ, 0u);
            EXPECT_EQ(plain->pair->energy(), packed->pair->energy());
            EXPECT_EQ(plain->pair->virial(), packed->pair->virial());
        }
    }
    ThreadPool::setThreads(before);
}

TEST(Kernels, UnsupportedPackedWidthPanics)
{
    // A packing width no kernel instantiates is an internal bug; the
    // dispatcher must not quietly run the width-0 kernel instead.
    for (const Builder &build : {Builder(builtLJ), Builder(builtEAM),
                                 Builder(builtCharmm)}) {
        auto sim = build(4);
        NeighborList list = sim->neighbor.list();
        list.padWidth = 3;
        EXPECT_THROW(sim->pair->compute(*sim, list), PanicError);
    }
}

TEST(Kernels, SimdForcesAreThreadCountInvariant)
{
    // Forced width 4 runs the generic traits on builds without an ISA
    // one, so EAM's and charmm's cutoff compaction runs there too;
    // unset is the build's default width.
    const int before = ThreadPool::threads();
    const std::pair<const char *, Builder> styles[] = {
        {"lj/cut", builtLJ},
        {"eam", builtEAM},
        {"charmm", builtCharmm},
    };
    for (const std::optional<int> width : {std::optional<int>(4),
                                           std::optional<int>()}) {
        for (const auto &[name, build] : styles) {
            SCOPED_TRACE(std::string(name) + ", width " +
                         (width ? std::to_string(*width) : "default"));
            ThreadPool::setThreads(1);
            auto ref = build(width);
            ThreadPool::setThreads(3);
            auto sim = build(width);
            ASSERT_EQ(ref->atoms.nlocal(), sim->atoms.nlocal());
            std::size_t differ = 0;
            for (std::size_t i = 0; i < sim->atoms.nlocal(); ++i) {
                const Vec3 a = ref->atoms.f[i];
                const Vec3 b = sim->atoms.f[i];
                if (a.x != b.x || a.y != b.y || a.z != b.z)
                    ++differ;
            }
            EXPECT_EQ(differ, 0u);
            EXPECT_EQ(ref->pair->energy(), sim->pair->energy());
            EXPECT_EQ(ref->pair->virial(), sim->pair->virial());
        }
    }
    ThreadPool::setThreads(before);
}

TEST(Kernels, SortEveryRebuildKeepsPackingConsistent)
{
    // Regression for the padded-packing x sort interaction: every
    // reorder invalidates the packed indices, so each sorted rebuild
    // must repack before the SIMD kernels touch the list again.
    auto run = [](int width) {
        auto sim = buildLJ(4);
        sim->config.simdWidth = width;
        jitter(*sim);
        sim->thermoEvery = 0;
        sim->config.sortEvery = 1;
        sim->setup();
        sim->run(12);
        return sim;
    };
    auto scalar = run(0);
    auto simd = run(4);
    const NeighborList &list = simd->neighbor.list();
    ASSERT_TRUE(list.packedFor(4));
    for (std::size_t i = 0; i < simd->atoms.nlocal(); ++i) {
        const std::uint32_t pb = list.offsets[i];
        const std::uint32_t pe = list.offsets[i + 1];
        for (std::uint32_t k = pb; k < pe; ++k)
            ASSERT_LE(list.neighbors[k], list.sentinel);
    }
    EXPECT_NEAR(simd->potentialEnergy(), scalar->potentialEnergy(),
                1e-8 * std::abs(scalar->potentialEnergy()));
}

// ------------------------------------------------------ width API

TEST(WidthApi, OverrideAndRestore)
{
    // A width set on one simulation's config drives both lane types of
    // that simulation only; unset restores the native default rule.
    const int processWidth = simdWidth();
    EngineConfig config;
    config.simdWidth = 2;
    EXPECT_EQ(config.laneWidth(false), 2);
    EXPECT_EQ(config.laneWidth(true), 2);
    config.simdWidth = 0;
    EXPECT_EQ(config.packWidth(), 0);
    config.simdWidth.reset();
    EXPECT_EQ(config.laneWidth(false), simdNativeWidth(false));
    EXPECT_EQ(config.laneWidth(true), simdNativeWidth(true));
    EXPECT_EQ(simdWidth(), processWidth);
}

TEST(WidthApi, RejectsUnsupportedWidth)
{
    EngineConfig config;
    for (int w : {0, 1, 2, 4, 8, 16}) {
        config.simdWidth = w;
        EXPECT_NO_THROW(config.validate()) << "width " << w;
    }
    for (int w : {3, 5, 32, -2}) {
        config.simdWidth = w;
        EXPECT_THROW(config.validate(), FatalError) << "width " << w;
    }
    // setup() checks the config before it builds anything.
    auto sim = buildLJ(4);
    sim->config.simdWidth = 3;
    EXPECT_THROW(sim->setup(), FatalError);
    EXPECT_EQ(sim->neighbor.buildCount(), 0);
}

TEST(WidthApi, EnvironmentAcceptsWidthsAndSwitches)
{
    const std::optional<int> native;
    const std::pair<const char *, std::optional<int>> cases[] = {
        {"", native},   {"0", 0}, {"off", 0}, {"1", native},
        {"on", native}, {"native", native},   {"2", 2},
        {"4", 4},       {"8", 8}, {"16", 16}};
    for (const auto &[text, width] : cases) {
        EnvGuard env("MDBENCH_SIMD", text);
        EXPECT_EQ(EngineEnv::read().config.simdWidth, width)
            << "MDBENCH_SIMD=" << text;
    }
}

TEST(WidthApi, EnvironmentRejectsUnsupportedValues)
{
    for (const char *text : {"3", "32", "avx", "4x", "-1"}) {
        EnvGuard env("MDBENCH_SIMD", text);
        EXPECT_THROW(EngineEnv::read(), FatalError)
            << "MDBENCH_SIMD=" << text;
    }
}

// The other MDBENCH_* knobs: every documented value is accepted, and
// anything else is fatal. Empty reads as unset.

TEST(EngineEnvironment, ThreadsAcceptPositiveCounts)
{
    const std::pair<const char *, int> accepted[] = {
        {"", 0}, {"1", 1}, {"4", 4}, {"64", 64}};
    for (const auto &[text, threads] : accepted) {
        EnvGuard env("MDBENCH_THREADS", text);
        EXPECT_EQ(EngineEnv::read().threads, threads)
            << "MDBENCH_THREADS=" << text;
    }
    for (const char *text : {"0", "-2", "abc", "4x", " 4", "+4", "1.5",
                             "99999999999"}) {
        EnvGuard env("MDBENCH_THREADS", text);
        EXPECT_THROW(EngineEnv::read(), FatalError)
            << "MDBENCH_THREADS=" << text;
    }
}

TEST(EngineEnvironment, SortEveryAcceptsNonNegativeCounts)
{
    const std::pair<const char *, int> accepted[] = {
        {"", 0}, {"0", 0}, {"1", 1}, {"7", 7}};
    for (const auto &[text, every] : accepted) {
        EnvGuard env("MDBENCH_SORT_EVERY", text);
        EXPECT_EQ(EngineEnv::read().config.sortEvery, every)
            << "MDBENCH_SORT_EVERY=" << text;
    }
    for (const char *text : {"-3", "-0x1", "abc", "5s", "2.0"}) {
        EnvGuard env("MDBENCH_SORT_EVERY", text);
        EXPECT_THROW(EngineEnv::read(), FatalError)
            << "MDBENCH_SORT_EVERY=" << text;
    }
}

TEST(EngineEnvironment, RankExecAcceptsTheThreeSpellings)
{
    const std::pair<const char *, RankExecution> accepted[] = {
        {"", RankExecution::Concurrent},
        {"concurrent", RankExecution::Concurrent},
        {"seq", RankExecution::Sequential},
        {"sequential", RankExecution::Sequential}};
    for (const auto &[text, exec] : accepted) {
        EnvGuard env("MDBENCH_RANK_EXEC", text);
        EXPECT_EQ(EngineEnv::read().config.rankExec, exec)
            << "MDBENCH_RANK_EXEC=" << text;
    }
    for (const char *text : {"bogus", "sequental", "SEQ", "0", "1"}) {
        EnvGuard env("MDBENCH_RANK_EXEC", text);
        EXPECT_THROW(EngineEnv::read(), FatalError)
            << "MDBENCH_RANK_EXEC=" << text;
    }
}

TEST(EngineEnvironment, CommOverlapAcceptsZeroAndOne)
{
    const std::pair<const char *, bool> accepted[] = {
        {"", false}, {"0", false}, {"1", true}};
    for (const auto &[text, overlap] : accepted) {
        EnvGuard env("MDBENCH_COMM_OVERLAP", text);
        EXPECT_EQ(EngineEnv::read().config.commOverlap, overlap)
            << "MDBENCH_COMM_OVERLAP=" << text;
    }
    // "on" used to read as off (only the first character was tested).
    for (const char *text : {"on", "off", "yes", "true", "2", "10"}) {
        EnvGuard env("MDBENCH_COMM_OVERLAP", text);
        EXPECT_THROW(EngineEnv::read(), FatalError)
            << "MDBENCH_COMM_OVERLAP=" << text;
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
