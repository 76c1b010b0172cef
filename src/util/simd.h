/**
 * @file
 * Portable SIMD compute layer for the pair kernels (DESIGN.md §12).
 *
 * `Simd<T, W>` is a fixed-width value vector with the handful of
 * operations the force kernels need: broadcast, load/store, gather by
 * 32-bit index, arithmetic, compares returning `SimdMask`, blend
 * (select), and a *sequential* lane sum. Three backends share the same
 * interface:
 *
 *  - a generic array backend (the primary template) that compiles for
 *    any T and W with plain scalar loops — the scalar-fallback oracle
 *    and the body every sanitizer build exercises,
 *  - an AVX2 backend for `Simd<double, 4>` (`__m256d` + `__m128i`
 *    indices) and `Simd<float, 8>` (`__m256` + `__m256i` indices),
 *    selected when the translation unit is compiled with
 *    `-mavx2 -mfma`,
 *  - an AVX-512 backend for `Simd<double, 8>` (`__m512d` + `__m256i`
 *    indices) and `Simd<float, 16>` (`__m512` + `__m512i` indices),
 *    selected under `-mavx512f`.
 *
 * The float backends serve the mixed/single precision tiers
 * (util/precision.h): at a given ISA level float lanes come in twice
 * the count of double lanes, which is exactly the precision × SIMD
 * synergy the paper's Section 8 models and this engine measures.
 *
 * Determinism contract: every wrapper operation is a per-lane IEEE-754
 * operation (no fused multiply-add, no approximate reciprocals), so for
 * a fixed expression the three backends produce bitwise-identical lane
 * values; only the order in which a *kernel* folds lanes together
 * distinguishes widths. `sum()` is defined as the ascending-lane
 * sequential sum for the same reason. A kernel instantiated at W = 1
 * therefore performs exactly the scalar instruction sequence.
 *
 * Width configuration: `simdWidthFor(floatLanes)` is the packed
 * neighbor-list width the engine should use — 0 disables the SIMD path
 * entirely (scalar loops, no padded packing); `simdWidth()` is the
 * double-lane width. The default comes from the `MDBENCH_SIMD`
 * environment variable (`0`/`off` = disabled, `1`/`on`/unset = native
 * compiled width — double that for float lanes — and an explicit
 * `2`/`4`/`8`/`16` forces that width for both element types, through
 * the generic backend when no matching ISA backend exists) gated by a
 * runtime CPU capability check; `setSimdWidth()` overrides it
 * programmatically (benches, tests, ExperimentSpec).
 */

#ifndef MDBENCH_UTIL_SIMD_H
#define MDBENCH_UTIL_SIMD_H

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if !defined(MDBENCH_SIMD_FORCE_SCALAR)
#if defined(__AVX512F__)
#define MDBENCH_SIMD_AVX512 1
#define MDBENCH_SIMD_AVX2 1
#elif defined(__AVX2__) && defined(__FMA__)
#define MDBENCH_SIMD_AVX2 1
#endif
#endif

#if defined(MDBENCH_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace mdbench {

/** Widest backend this translation unit was compiled with. */
inline constexpr int kSimdCompiledWidth =
#if defined(MDBENCH_SIMD_AVX512)
    8;
#elif defined(MDBENCH_SIMD_AVX2)
    4;
#else
    1;
#endif

/** Widest float backend this translation unit was compiled with. */
inline constexpr int kSimdCompiledFloatWidth =
#if defined(MDBENCH_SIMD_AVX512)
    16;
#elif defined(MDBENCH_SIMD_AVX2)
    8;
#else
    1;
#endif

/** Human/manifest name of the compiled backend. */
inline const char *
simdIsaName()
{
#if defined(MDBENCH_SIMD_AVX512)
    return "avx512";
#elif defined(MDBENCH_SIMD_AVX2)
    return "avx2";
#else
    return "scalar";
#endif
}

/**
 * True when the executing CPU supports the compiled ISA backend. A
 * binary built with `-march` flags for a newer CPU than the host would
 * fault inside the intrinsic paths; this check routes such runs to the
 * scalar loops instead (the generic backend compiles to plain scalar
 * code and needs no check).
 */
inline bool
simdRuntimeSupported()
{
#if defined(MDBENCH_SIMD_AVX512) && defined(__GNUC__)
    return __builtin_cpu_supports("avx512f");
#elif defined(MDBENCH_SIMD_AVX2) && defined(__GNUC__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return true;
#endif
}

/** Widths the pair kernels instantiate; others fall back to scalar. */
inline bool
simdWidthSupported(int w)
{
    return w == 1 || w == 2 || w == 4 || w == 8 || w == 16;
}

/**
 * Backend that executes width @p w in this translation unit: the ISA
 * specialization when one matches (which depends on whether the tier
 * computes in float or double lanes), otherwise the generic (unrolled
 * scalar) template; 0 is the plain scalar kernels.
 */
inline const char *
simdBackendName(int w, [[maybe_unused]] bool floatLanes = false)
{
    if (w <= 0)
        return "scalar";
#if defined(MDBENCH_SIMD_AVX512)
    if (w == (floatLanes ? 16 : 8))
        return "avx512";
#endif
#if defined(MDBENCH_SIMD_AVX2)
    if (w == (floatLanes ? 8 : 4))
        return "avx2";
#endif
    return "generic";
}

namespace detail {

/** Resolve the MDBENCH_SIMD default against a native width. */
inline int
simdResolveEnvWidth(int native)
{
    const char *env = std::getenv("MDBENCH_SIMD");
    if (!env || !*env)
        return native;
    if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0)
        return 0;
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
        std::strcmp(env, "native") == 0)
        return native;
    const int requested = std::atoi(env);
    if (simdWidthSupported(requested))
        return requested;
    return native;
}

} // namespace detail

/** MDBENCH_SIMD environment default for double lanes, cached. */
inline int
simdDefaultWidth()
{
    static const int width = detail::simdResolveEnvWidth(
        (kSimdCompiledWidth > 1 && simdRuntimeSupported())
            ? kSimdCompiledWidth
            : 0);
    return width;
}

/** MDBENCH_SIMD environment default for float lanes, cached. */
inline int
simdDefaultFloatWidth()
{
    static const int width = detail::simdResolveEnvWidth(
        (kSimdCompiledFloatWidth > 1 && simdRuntimeSupported())
            ? kSimdCompiledFloatWidth
            : 0);
    return width;
}

namespace detail {
/** Programmatic width override; -1 defers to the environment default. */
inline std::atomic<int> gSimdWidthOverride{-1};
} // namespace detail

/**
 * Packed neighbor-list width the engine should use right now for the
 * given lane element type: 0 = SIMD path disabled (plain scalar
 * kernels, no padded packing). An explicit override (setSimdWidth or
 * a numeric MDBENCH_SIMD) forces that lane count for both element
 * types; the native default doubles the lane count for float tiers.
 */
inline int
simdWidthFor(bool floatLanes)
{
    const int override_ =
        detail::gSimdWidthOverride.load(std::memory_order_relaxed);
    if (override_ >= 0)
        return override_;
    return floatLanes ? simdDefaultFloatWidth() : simdDefaultWidth();
}

/** Double-lane packed width (the historical knob). */
inline int
simdWidth()
{
    return simdWidthFor(false);
}

/**
 * Override the packed width: 0 disables the SIMD path, 1/2/4/8/16
 * force that width (through the generic backend when no ISA backend
 * matches), -1 restores the MDBENCH_SIMD environment default. Takes
 * effect at the next neighbor-list build.
 */
inline void
setSimdWidth(int width)
{
    detail::gSimdWidthOverride.store(
        width >= -1 && (width <= 0 || simdWidthSupported(width)) ? width
                                                                 : -1,
        std::memory_order_relaxed);
}

// --------------------------------------------------------------- generic

template <int W>
struct SimdIndex;
template <typename T, int W>
struct SimdMask;
template <typename T, int W>
struct Simd;

/** Vector of W 32-bit element indices (neighbor ids, table slots). */
template <int W>
struct SimdIndex
{
    std::array<std::uint32_t, W> v{};

    static SimdIndex
    load(const std::uint32_t *p)
    {
        SimdIndex r;
        for (int l = 0; l < W; ++l)
            r.v[l] = p[l];
        return r;
    }

    /** Gather base[idx[l]] of a 32-bit integer array (atom types). */
    static SimdIndex
    gather32(const int *base, const SimdIndex &idx)
    {
        SimdIndex r;
        for (int l = 0; l < W; ++l)
            r.v[l] = static_cast<std::uint32_t>(base[idx.v[l]]);
        return r;
    }

    SimdIndex
    operator*(std::uint32_t s) const
    {
        SimdIndex r;
        for (int l = 0; l < W; ++l)
            r.v[l] = v[l] * s;
        return r;
    }

    SimdIndex
    operator+(std::uint32_t s) const
    {
        SimdIndex r;
        for (int l = 0; l < W; ++l)
            r.v[l] = v[l] + s;
        return r;
    }

    /** Per-lane unsigned minimum against a scalar (table clamping). */
    static SimdIndex
    min(const SimdIndex &a, std::uint32_t s)
    {
        SimdIndex r;
        for (int l = 0; l < W; ++l)
            r.v[l] = a.v[l] < s ? a.v[l] : s;
        return r;
    }

    std::uint32_t lane(int l) const { return v[l]; }
};

/** Per-lane boolean result of a Simd comparison. */
template <typename T, int W>
struct SimdMask
{
    std::array<bool, W> m{};

    bool lane(int l) const { return m[l]; }

    /**
     * Active lanes as a bitmap (lane l -> bit l). Zero means no work;
     * iterating set bits ascending visits lanes in scalar order.
     */
    int
    bits() const
    {
        int b = 0;
        for (int l = 0; l < W; ++l)
            b |= static_cast<int>(m[l]) << l;
        return b;
    }

    SimdMask
    operator&(const SimdMask &o) const
    {
        SimdMask r;
        for (int l = 0; l < W; ++l)
            r.m[l] = m[l] && o.m[l];
        return r;
    }

    SimdMask
    operator|(const SimdMask &o) const
    {
        SimdMask r;
        for (int l = 0; l < W; ++l)
            r.m[l] = m[l] || o.m[l];
        return r;
    }

    /** Lanes of @p o with this mask's lanes cleared: ~this & o. */
    SimdMask
    andnot(const SimdMask &o) const
    {
        SimdMask r;
        for (int l = 0; l < W; ++l)
            r.m[l] = !m[l] && o.m[l];
        return r;
    }

    // Index-domain compares lifted into this element type's mask
    // domain (the neighbor build combines id rules with coordinate
    // tie-breaks in one vector predicate). Indices are atom ids and
    // always < 2^31, so the ISA backends may compare signed.

    /** Lane l set when idx[l] < s. */
    static SimdMask
    fromIndexLT(const SimdIndex<W> &idx, std::uint32_t s)
    {
        SimdMask r;
        for (int l = 0; l < W; ++l)
            r.m[l] = idx.lane(l) < s;
        return r;
    }

    /** Lane l set when idx[l] > s. */
    static SimdMask
    fromIndexGT(const SimdIndex<W> &idx, std::uint32_t s)
    {
        SimdMask r;
        for (int l = 0; l < W; ++l)
            r.m[l] = idx.lane(l) > s;
        return r;
    }

    /** Lane l set when idx[l] == s. */
    static SimdMask
    fromIndexEQ(const SimdIndex<W> &idx, std::uint32_t s)
    {
        SimdMask r;
        for (int l = 0; l < W; ++l)
            r.m[l] = idx.lane(l) == s;
        return r;
    }
};

/**
 * Generic array backend: W lanes of T computed with scalar loops. The
 * loops auto-vectorize on friendly targets, but the point of this
 * backend is semantics, not speed — it defines the exact per-lane
 * behaviour the ISA backends must reproduce.
 */
template <typename T, int W>
struct Simd
{
    std::array<T, W> v{};

    Simd() = default;

    /* implicit */ Simd(T s)
    {
        for (int l = 0; l < W; ++l)
            v[l] = s;
    }

    static Simd
    loadu(const T *p)
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = p[l];
        return r;
    }

    void
    storeu(T *p) const
    {
        for (int l = 0; l < W; ++l)
            p[l] = v[l];
    }

    static Simd
    gather(const T *base, const SimdIndex<W> &idx)
    {
        // lane(), not idx.v[l]: this generic body also runs against an
        // ISA-specialized SimdIndex<W> (forced widths on ISA builds),
        // whose register storage is not lane-addressable by [].
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = base[idx.lane(l)];
        return r;
    }

    T lane(int l) const { return v[l]; }

    Simd
    operator+(const Simd &o) const
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = v[l] + o.v[l];
        return r;
    }

    Simd
    operator-(const Simd &o) const
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = v[l] - o.v[l];
        return r;
    }

    Simd
    operator*(const Simd &o) const
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = v[l] * o.v[l];
        return r;
    }

    Simd
    operator/(const Simd &o) const
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = v[l] / o.v[l];
        return r;
    }

    Simd &
    operator+=(const Simd &o)
    {
        for (int l = 0; l < W; ++l)
            v[l] += o.v[l];
        return *this;
    }

    static Simd
    sqrt(const Simd &a)
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = std::sqrt(a.v[l]);
        return r;
    }

    /**
     * a*b + c. Deliberately UNFUSED here: the generic backend is the
     * bitwise oracle for W==1-vs-scalar equality on builds without FMA
     * codegen, so it must round the product. ISA backends fuse (the
     * determinism contract is per-ISA, not cross-ISA).
     */
    static Simd
    fma(const Simd &a, const Simd &b, const Simd &c)
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = (a.v[l] * b.v[l]) + c.v[l];
        return r;
    }

    /** a*b - c, same (un)fusion policy as fma(). */
    static Simd
    fms(const Simd &a, const Simd &b, const Simd &c)
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = (a.v[l] * b.v[l]) - c.v[l];
        return r;
    }

    static Simd
    min(const Simd &a, const Simd &b)
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = b.v[l] < a.v[l] ? b.v[l] : a.v[l];
        return r;
    }

    static Simd
    max(const Simd &a, const Simd &b)
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = a.v[l] < b.v[l] ? b.v[l] : a.v[l];
        return r;
    }

    SimdMask<T, W>
    operator<(const Simd &o) const
    {
        SimdMask<T, W> r;
        for (int l = 0; l < W; ++l)
            r.m[l] = v[l] < o.v[l];
        return r;
    }

    SimdMask<T, W>
    operator>(const Simd &o) const
    {
        SimdMask<T, W> r;
        for (int l = 0; l < W; ++l)
            r.m[l] = v[l] > o.v[l];
        return r;
    }

    SimdMask<T, W>
    operator!=(const Simd &o) const
    {
        SimdMask<T, W> r;
        for (int l = 0; l < W; ++l)
            r.m[l] = v[l] != o.v[l];
        return r;
    }

    SimdMask<T, W>
    operator==(const Simd &o) const
    {
        SimdMask<T, W> r;
        for (int l = 0; l < W; ++l)
            r.m[l] = v[l] == o.v[l];
        return r;
    }

    SimdMask<T, W>
    operator>=(const Simd &o) const
    {
        SimdMask<T, W> r;
        for (int l = 0; l < W; ++l)
            r.m[l] = v[l] >= o.v[l];
        return r;
    }

    /** Lanes of @p a where the mask is set, of @p b elsewhere. */
    static Simd
    select(const SimdMask<T, W> &mask, const Simd &a, const Simd &b)
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = mask.m[l] ? a.v[l] : b.v[l];
        return r;
    }

    /**
     * select(mask, a, 0): rejected lanes become exact +0.0. On the
     * AVX backends this is a single bitwise AND instead of a blend.
     */
    static Simd
    maskZero(const SimdMask<T, W> &mask, const Simd &a)
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = mask.m[l] ? a.v[l] : T(0);
        return r;
    }

    /** Truncating conversion to element indices (spline locate). */
    static SimdIndex<W>
    truncToIndex(const Simd &a)
    {
        // Round-trip through memory so a specialized SimdIndex<W>
        // (register storage) can be built from this generic body.
        alignas(64) std::uint32_t tmp[W];
        for (int l = 0; l < W; ++l)
            tmp[l] = static_cast<std::uint32_t>(a.v[l]);
        return SimdIndex<W>::load(tmp);
    }

    /** Index-to-value conversion (spline locate's t = s - index). */
    static Simd
    fromIndex(const SimdIndex<W> &idx)
    {
        Simd r;
        for (int l = 0; l < W; ++l)
            r.v[l] = static_cast<T>(static_cast<std::int32_t>(idx.lane(l)));
        return r;
    }

    /** Sequential ascending-lane sum (fixed summation tree). */
    T
    sum() const
    {
        T total = v[0];
        for (int l = 1; l < W; ++l)
            total += v[l];
        return total;
    }
};

/**
 * Structure-of-arrays load from a 4-element-per-record buffer
 * ([x, y, z, w] per index, 32 bytes double / 16 bytes float): lane l
 * of each output comes from pack[4*idx[l] + component]. Pair kernels
 * stage positions (+charge) into such a buffer so this replaces three
 * or four hardware gathers with contiguous loads and an in-register
 * transpose on the ISA backends. @p idx points at W indices in memory
 * (the packed neighbor list), which the ISA backends read as cheap
 * scalar loads instead of extracting lanes from a vector register.
 * The buffer must have a full 4-element record per index (the pad
 * atom included).
 */
template <typename T, int W>
inline void
loadXyzw(const T *pack, const std::uint32_t *idx, Simd<T, W> &x,
         Simd<T, W> &y, Simd<T, W> &z, Simd<T, W> &w)
{
    for (int l = 0; l < W; ++l) {
        const T *rec = pack + 4u * idx[l];
        x.v[l] = rec[0];
        y.v[l] = rec[1];
        z.v[l] = rec[2];
        w.v[l] = rec[3];
    }
}

/** Three-component variant for kernels with no per-atom payload. */
template <typename T, int W>
inline void
loadXyz(const T *pack, const std::uint32_t *idx, Simd<T, W> &x,
        Simd<T, W> &y, Simd<T, W> &z)
{
    for (int l = 0; l < W; ++l) {
        const T *rec = pack + 4u * idx[l];
        x.v[l] = rec[0];
        y.v[l] = rec[1];
        z.v[l] = rec[2];
    }
}

/**
 * Compress-store: write the lanes of @p ids whose bit is set in
 * @p maskBits to @p dst in ascending lane order — the vector analogue
 * of the scalar "if (keep) out[n++] = id" append, which is how the
 * vectorized neighbor build emits CSR rows in exactly the scalar
 * order. Writes exactly popcount(maskBits) elements (no tail slop, so
 * rows owned by different threads can abut) and returns that count.
 */
template <int W>
inline int
compressStore(std::uint32_t *dst, const SimdIndex<W> &ids, int maskBits)
{
    int n = 0;
    for (int rest = maskBits; rest; rest &= rest - 1) {
        const int l = std::countr_zero(static_cast<unsigned>(rest));
        dst[n++] = ids.lane(l);
    }
    return n;
}

/**
 * Horizontal sum of three accumulator stripes at once (per-row force
 * flush). The generic body keeps the ascending-lane order of sum();
 * the ISA overloads share shuffle work across the three reductions
 * and sum pairwise, which costs ~a third of three serial sum() chains
 * — per-row flush latency is real overhead for float tiers, whose
 * rows hold half as many groups.
 */
template <typename T, int W>
inline void
sumXyz(const Simd<T, W> &x, const Simd<T, W> &y, const Simd<T, W> &z,
       T &sx, T &sy, T &sz)
{
    sx = x.sum();
    sy = y.sum();
    sz = z.sum();
}

/** Two-stripe companion of sumXyz (per-row energy/virial flush). */
template <typename T, int W>
inline void
sumPair(const Simd<T, W> &a, const Simd<T, W> &b, T &sa, T &sb)
{
    sa = a.sum();
    sb = b.sum();
}

// ------------------------------------------------------------------ AVX2

#if defined(MDBENCH_SIMD_AVX2)

// GCC 12's unmasked gather/convert intrinsics expand through
// _mm256_undefined_pd()-style "__Y = __Y" initializers that trip
// -Wuninitialized once inlined into optimized callers (GCC PR 105593);
// the values are fully overwritten, so silence the false positive for
// the backend definitions (the pragma travels with inlining).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/** AVX2 backend: 4 x u32 indices in an SSE register. */
template <>
struct SimdIndex<4>
{
    __m128i v = _mm_setzero_si128();

    static SimdIndex
    load(const std::uint32_t *p)
    {
        SimdIndex r;
        r.v = _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return r;
    }

    static SimdIndex
    gather32(const int *base, const SimdIndex &idx)
    {
        SimdIndex r;
        r.v = _mm_i32gather_epi32(base, idx.v, 4);
        return r;
    }

    SimdIndex
    operator*(std::uint32_t s) const
    {
        SimdIndex r;
        r.v = _mm_mullo_epi32(v, _mm_set1_epi32(static_cast<int>(s)));
        return r;
    }

    SimdIndex
    operator+(std::uint32_t s) const
    {
        SimdIndex r;
        r.v = _mm_add_epi32(v, _mm_set1_epi32(static_cast<int>(s)));
        return r;
    }

    static SimdIndex
    min(const SimdIndex &a, std::uint32_t s)
    {
        SimdIndex r;
        r.v = _mm_min_epu32(a.v, _mm_set1_epi32(static_cast<int>(s)));
        return r;
    }

    std::uint32_t
    lane(int l) const
    {
        alignas(16) std::uint32_t tmp[4];
        _mm_store_si128(reinterpret_cast<__m128i *>(tmp), v);
        return tmp[l];
    }
};

/**
 * 8 x u32 indices in an AVX2 register. Used by the AVX-512 double
 * backend (W=8) and the AVX2 float backend (W=8) alike — only AVX2
 * intrinsics appear here.
 */
template <>
struct SimdIndex<8>
{
    __m256i v = _mm256_setzero_si256();

    static SimdIndex
    load(const std::uint32_t *p)
    {
        SimdIndex r;
        r.v = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        return r;
    }

    static SimdIndex
    gather32(const int *base, const SimdIndex &idx)
    {
        SimdIndex r;
        r.v = _mm256_i32gather_epi32(base, idx.v, 4);
        return r;
    }

    SimdIndex
    operator*(std::uint32_t s) const
    {
        SimdIndex r;
        r.v = _mm256_mullo_epi32(v, _mm256_set1_epi32(static_cast<int>(s)));
        return r;
    }

    SimdIndex
    operator+(std::uint32_t s) const
    {
        SimdIndex r;
        r.v = _mm256_add_epi32(v, _mm256_set1_epi32(static_cast<int>(s)));
        return r;
    }

    static SimdIndex
    min(const SimdIndex &a, std::uint32_t s)
    {
        SimdIndex r;
        r.v = _mm256_min_epu32(a.v, _mm256_set1_epi32(static_cast<int>(s)));
        return r;
    }

    std::uint32_t
    lane(int l) const
    {
        alignas(32) std::uint32_t tmp[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(tmp), v);
        return tmp[l];
    }
};

/** AVX2 mask: all-ones / all-zeros double lanes (blendv convention). */
template <>
struct SimdMask<double, 4>
{
    __m256d m = _mm256_setzero_pd();

    bool
    lane(int l) const
    {
        return (_mm256_movemask_pd(m) >> l) & 1;
    }

    int bits() const { return _mm256_movemask_pd(m); }

    SimdMask
    operator&(const SimdMask &o) const
    {
        SimdMask r;
        r.m = _mm256_and_pd(m, o.m);
        return r;
    }

    SimdMask
    operator|(const SimdMask &o) const
    {
        SimdMask r;
        r.m = _mm256_or_pd(m, o.m);
        return r;
    }

    SimdMask
    andnot(const SimdMask &o) const
    {
        SimdMask r;
        r.m = _mm256_andnot_pd(m, o.m);
        return r;
    }

    // 32-bit id compares widened to double-lane masks (sign-extending
    // the 0/-1 compare result to 64 bits; ids are < 2^31, so the
    // signed epi32 compares agree with the generic unsigned rule).

    static SimdMask
    fromIndexLT(const SimdIndex<4> &idx, std::uint32_t s)
    {
        const __m128i cmp =
            _mm_cmplt_epi32(idx.v, _mm_set1_epi32(static_cast<int>(s)));
        SimdMask r;
        r.m = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(cmp));
        return r;
    }

    static SimdMask
    fromIndexGT(const SimdIndex<4> &idx, std::uint32_t s)
    {
        const __m128i cmp =
            _mm_cmpgt_epi32(idx.v, _mm_set1_epi32(static_cast<int>(s)));
        SimdMask r;
        r.m = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(cmp));
        return r;
    }

    static SimdMask
    fromIndexEQ(const SimdIndex<4> &idx, std::uint32_t s)
    {
        const __m128i cmp =
            _mm_cmpeq_epi32(idx.v, _mm_set1_epi32(static_cast<int>(s)));
        SimdMask r;
        r.m = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(cmp));
        return r;
    }
};

template <>
struct Simd<double, 4>
{
    __m256d v = _mm256_setzero_pd();

    Simd() = default;

    /* implicit */ Simd(double s) : v(_mm256_set1_pd(s)) {}

    static Simd
    loadu(const double *p)
    {
        Simd r;
        r.v = _mm256_loadu_pd(p);
        return r;
    }

    void storeu(double *p) const { _mm256_storeu_pd(p, v); }

    static Simd
    gather(const double *base, const SimdIndex<4> &idx)
    {
        Simd r;
        r.v = _mm256_i32gather_pd(base, idx.v, 8);
        return r;
    }

    double
    lane(int l) const
    {
        alignas(32) double tmp[4];
        _mm256_store_pd(tmp, v);
        return tmp[l];
    }

    Simd
    operator+(const Simd &o) const
    {
        Simd r;
        r.v = _mm256_add_pd(v, o.v);
        return r;
    }

    Simd
    operator-(const Simd &o) const
    {
        Simd r;
        r.v = _mm256_sub_pd(v, o.v);
        return r;
    }

    Simd
    operator*(const Simd &o) const
    {
        Simd r;
        r.v = _mm256_mul_pd(v, o.v);
        return r;
    }

    Simd
    operator/(const Simd &o) const
    {
        Simd r;
        r.v = _mm256_div_pd(v, o.v);
        return r;
    }

    Simd &
    operator+=(const Simd &o)
    {
        v = _mm256_add_pd(v, o.v);
        return *this;
    }

    static Simd
    sqrt(const Simd &a)
    {
        Simd r;
        r.v = _mm256_sqrt_pd(a.v);
        return r;
    }

    /** Fused a*b + c (per-ISA determinism permits fusing here). */
    static Simd
    fma(const Simd &a, const Simd &b, const Simd &c)
    {
        Simd r;
        r.v = _mm256_fmadd_pd(a.v, b.v, c.v);
        return r;
    }

    /** Fused a*b - c. */
    static Simd
    fms(const Simd &a, const Simd &b, const Simd &c)
    {
        Simd r;
        r.v = _mm256_fmsub_pd(a.v, b.v, c.v);
        return r;
    }

    static Simd
    min(const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm256_min_pd(a.v, b.v);
        return r;
    }

    static Simd
    max(const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm256_max_pd(a.v, b.v);
        return r;
    }

    SimdMask<double, 4>
    operator<(const Simd &o) const
    {
        SimdMask<double, 4> r;
        r.m = _mm256_cmp_pd(v, o.v, _CMP_LT_OQ);
        return r;
    }

    SimdMask<double, 4>
    operator>(const Simd &o) const
    {
        SimdMask<double, 4> r;
        r.m = _mm256_cmp_pd(v, o.v, _CMP_GT_OQ);
        return r;
    }

    SimdMask<double, 4>
    operator!=(const Simd &o) const
    {
        SimdMask<double, 4> r;
        r.m = _mm256_cmp_pd(v, o.v, _CMP_NEQ_UQ);
        return r;
    }

    SimdMask<double, 4>
    operator==(const Simd &o) const
    {
        SimdMask<double, 4> r;
        r.m = _mm256_cmp_pd(v, o.v, _CMP_EQ_OQ);
        return r;
    }

    SimdMask<double, 4>
    operator>=(const Simd &o) const
    {
        SimdMask<double, 4> r;
        r.m = _mm256_cmp_pd(v, o.v, _CMP_GE_OQ);
        return r;
    }

    static Simd
    select(const SimdMask<double, 4> &mask, const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm256_blendv_pd(b.v, a.v, mask.m);
        return r;
    }

    static Simd
    maskZero(const SimdMask<double, 4> &mask, const Simd &a)
    {
        Simd r;
        r.v = _mm256_and_pd(mask.m, a.v);
        return r;
    }

    static SimdIndex<4>
    truncToIndex(const Simd &a)
    {
        SimdIndex<4> r;
        r.v = _mm256_cvttpd_epi32(a.v);
        return r;
    }

    static Simd
    fromIndex(const SimdIndex<4> &idx)
    {
        Simd r;
        r.v = _mm256_cvtepi32_pd(idx.v);
        return r;
    }

    double
    sum() const
    {
        alignas(32) double tmp[4];
        _mm256_store_pd(tmp, v);
        return ((tmp[0] + tmp[1]) + tmp[2]) + tmp[3];
    }
};

/**
 * AVX2 loadXyzw: four contiguous 32-byte record loads plus a 4x4
 * in-register transpose — far cheaper than three/four vpgatherdpd on
 * cores that microcode gathers.
 */
inline void
loadXyzw(const double *pack, const std::uint32_t *idx, Simd<double, 4> &x,
         Simd<double, 4> &y, Simd<double, 4> &z, Simd<double, 4> &w)
{
    const __m256d r0 = _mm256_loadu_pd(pack + 4u * idx[0]);
    const __m256d r1 = _mm256_loadu_pd(pack + 4u * idx[1]);
    const __m256d r2 = _mm256_loadu_pd(pack + 4u * idx[2]);
    const __m256d r3 = _mm256_loadu_pd(pack + 4u * idx[3]);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1); // x0 x1 z0 z1
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1); // y0 y1 w0 w1
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3); // x2 x3 z2 z3
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3); // y2 y3 w2 w3
    x.v = _mm256_permute2f128_pd(t0, t2, 0x20);
    y.v = _mm256_permute2f128_pd(t1, t3, 0x20);
    z.v = _mm256_permute2f128_pd(t0, t2, 0x31);
    w.v = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/** As above, skipping the unused payload shuffle. */
inline void
loadXyz(const double *pack, const std::uint32_t *idx, Simd<double, 4> &x,
        Simd<double, 4> &y, Simd<double, 4> &z)
{
    const __m256d r0 = _mm256_loadu_pd(pack + 4u * idx[0]);
    const __m256d r1 = _mm256_loadu_pd(pack + 4u * idx[1]);
    const __m256d r2 = _mm256_loadu_pd(pack + 4u * idx[2]);
    const __m256d r3 = _mm256_loadu_pd(pack + 4u * idx[3]);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1); // x0 x1 z0 z1
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1); // y0 y1 w0 w1
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3); // x2 x3 z2 z3
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3); // y2 y3 w2 w3
    x.v = _mm256_permute2f128_pd(t0, t2, 0x20);
    y.v = _mm256_permute2f128_pd(t1, t3, 0x20);
    z.v = _mm256_permute2f128_pd(t0, t2, 0x31);
}

/** Pairwise three-stripe horizontal sum (see the generic template). */
inline void
sumXyz(const Simd<double, 4> &x, const Simd<double, 4> &y,
       const Simd<double, 4> &z, double &sx, double &sy, double &sz)
{
    const __m256d xy = _mm256_hadd_pd(x.v, y.v); // x0+x1 y0+y1 | x2+x3 y2+y3
    const __m128d sxy = _mm_add_pd(_mm256_castpd256_pd128(xy),
                                   _mm256_extractf128_pd(xy, 1));
    const __m128d zlo = _mm256_castpd256_pd128(z.v);
    const __m128d zhi = _mm256_extractf128_pd(z.v, 1);
    const __m128d sz2 = _mm_add_pd(zlo, zhi);
    sx = _mm_cvtsd_f64(sxy);
    sy = _mm_cvtsd_f64(_mm_unpackhi_pd(sxy, sxy));
    sz = _mm_cvtsd_f64(_mm_add_sd(sz2, _mm_unpackhi_pd(sz2, sz2)));
}

namespace detail {

/**
 * Compress permutation tables: row `mask` lists the set-bit lanes of
 * `mask` ascending (padded with 0 — those lanes are masked off at the
 * store). AVX2 has no compress instruction, so the compressStore
 * overloads permute by table lookup and cut the tail with a masked
 * store of exactly popcount(mask) elements.
 */
struct Compress4Table
{
    alignas(16) std::uint32_t perm[16][4];
};

constexpr Compress4Table
makeCompress4Table()
{
    Compress4Table t{};
    for (int mask = 0; mask < 16; ++mask) {
        int n = 0;
        for (int l = 0; l < 4; ++l) {
            if ((mask >> l) & 1)
                t.perm[mask][n++] = static_cast<std::uint32_t>(l);
        }
    }
    return t;
}

inline constexpr Compress4Table kCompress4 = makeCompress4Table();

struct Compress8Table
{
    alignas(32) std::uint32_t perm[256][8];
};

constexpr Compress8Table
makeCompress8Table()
{
    Compress8Table t{};
    for (int mask = 0; mask < 256; ++mask) {
        int n = 0;
        for (int l = 0; l < 8; ++l) {
            if ((mask >> l) & 1)
                t.perm[mask][n++] = static_cast<std::uint32_t>(l);
        }
    }
    return t;
}

inline constexpr Compress8Table kCompress8 = makeCompress8Table();

/** Row `count` enables the first `count` lanes of a maskstore. */
struct TailMaskTable
{
    alignas(32) std::int32_t head[9][8];
};

constexpr TailMaskTable
makeTailMaskTable()
{
    TailMaskTable t{};
    for (int count = 0; count <= 8; ++count) {
        for (int l = 0; l < count; ++l)
            t.head[count][l] = -1;
    }
    return t;
}

inline constexpr TailMaskTable kTailMask = makeTailMaskTable();

} // namespace detail

/**
 * AVX2/AVX-512 compressStore over 4 ids: permute the kept lanes to the
 * front by table lookup, then store exactly popcount(mask) elements
 * with a masked store (AVX-512 builds use the native compress).
 */
inline int
compressStore(std::uint32_t *dst, const SimdIndex<4> &ids, int maskBits)
{
    const unsigned mask = static_cast<unsigned>(maskBits) & 0xFu;
    const int n = std::popcount(mask);
#if defined(MDBENCH_SIMD_AVX512)
    _mm512_mask_compressstoreu_epi32(dst, static_cast<__mmask16>(mask),
                                     _mm512_castsi128_si512(ids.v));
#else
    const __m128i perm = _mm_load_si128(reinterpret_cast<const __m128i *>(
        detail::kCompress4.perm[mask]));
    const __m128 packed =
        _mm_permutevar_ps(_mm_castsi128_ps(ids.v), perm);
    _mm_maskstore_epi32(reinterpret_cast<int *>(dst),
                        _mm_load_si128(reinterpret_cast<const __m128i *>(
                            detail::kTailMask.head[n])),
                        _mm_castps_si128(packed));
#endif
    return n;
}

/** As above over 8 ids (AVX2 float width / AVX-512 double width). */
inline int
compressStore(std::uint32_t *dst, const SimdIndex<8> &ids, int maskBits)
{
    const unsigned mask = static_cast<unsigned>(maskBits) & 0xFFu;
    const int n = std::popcount(mask);
#if defined(MDBENCH_SIMD_AVX512)
    _mm512_mask_compressstoreu_epi32(dst, static_cast<__mmask16>(mask),
                                     _mm512_castsi256_si512(ids.v));
#else
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(detail::kCompress8.perm[mask]));
    const __m256i packed = _mm256_permutevar8x32_epi32(ids.v, perm);
    _mm256_maskstore_epi32(reinterpret_cast<int *>(dst),
                           _mm256_load_si256(
                               reinterpret_cast<const __m256i *>(
                                   detail::kTailMask.head[n])),
                           packed);
#endif
    return n;
}

/** AVX2 float mask: all-ones / all-zeros float lanes. */
template <>
struct SimdMask<float, 8>
{
    __m256 m = _mm256_setzero_ps();

    bool
    lane(int l) const
    {
        return (_mm256_movemask_ps(m) >> l) & 1;
    }

    int bits() const { return _mm256_movemask_ps(m); }

    SimdMask
    operator&(const SimdMask &o) const
    {
        SimdMask r;
        r.m = _mm256_and_ps(m, o.m);
        return r;
    }

    SimdMask
    operator|(const SimdMask &o) const
    {
        SimdMask r;
        r.m = _mm256_or_ps(m, o.m);
        return r;
    }

    /** Lanes of @p o with this mask's lanes cleared: ~this & o. */
    SimdMask
    andnot(const SimdMask &o) const
    {
        SimdMask r;
        r.m = _mm256_andnot_ps(m, o.m);
        return r;
    }

    // Index-domain compares (ids < 2^31, so signed epi32 compare is safe).
    static SimdMask
    fromIndexLT(const SimdIndex<8> &idx, std::uint32_t s)
    {
        SimdMask r;
        r.m = _mm256_castsi256_ps(_mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(s)), idx.v));
        return r;
    }

    static SimdMask
    fromIndexGT(const SimdIndex<8> &idx, std::uint32_t s)
    {
        SimdMask r;
        r.m = _mm256_castsi256_ps(_mm256_cmpgt_epi32(
            idx.v, _mm256_set1_epi32(static_cast<int>(s))));
        return r;
    }

    static SimdMask
    fromIndexEQ(const SimdIndex<8> &idx, std::uint32_t s)
    {
        SimdMask r;
        r.m = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
            idx.v, _mm256_set1_epi32(static_cast<int>(s))));
        return r;
    }
};

/** AVX2 float backend: twice the lanes of `Simd<double, 4>`. */
template <>
struct Simd<float, 8>
{
    __m256 v = _mm256_setzero_ps();

    Simd() = default;

    /* implicit */ Simd(float s) : v(_mm256_set1_ps(s)) {}

    static Simd
    loadu(const float *p)
    {
        Simd r;
        r.v = _mm256_loadu_ps(p);
        return r;
    }

    void storeu(float *p) const { _mm256_storeu_ps(p, v); }

    static Simd
    gather(const float *base, const SimdIndex<8> &idx)
    {
        Simd r;
        r.v = _mm256_i32gather_ps(base, idx.v, 4);
        return r;
    }

    float
    lane(int l) const
    {
        alignas(32) float tmp[8];
        _mm256_store_ps(tmp, v);
        return tmp[l];
    }

    Simd
    operator+(const Simd &o) const
    {
        Simd r;
        r.v = _mm256_add_ps(v, o.v);
        return r;
    }

    Simd
    operator-(const Simd &o) const
    {
        Simd r;
        r.v = _mm256_sub_ps(v, o.v);
        return r;
    }

    Simd
    operator*(const Simd &o) const
    {
        Simd r;
        r.v = _mm256_mul_ps(v, o.v);
        return r;
    }

    Simd
    operator/(const Simd &o) const
    {
        Simd r;
        r.v = _mm256_div_ps(v, o.v);
        return r;
    }

    Simd &
    operator+=(const Simd &o)
    {
        v = _mm256_add_ps(v, o.v);
        return *this;
    }

    static Simd
    sqrt(const Simd &a)
    {
        Simd r;
        r.v = _mm256_sqrt_ps(a.v);
        return r;
    }

    /** Fused a*b + c (per-ISA determinism permits fusing here). */
    static Simd
    fma(const Simd &a, const Simd &b, const Simd &c)
    {
        Simd r;
        r.v = _mm256_fmadd_ps(a.v, b.v, c.v);
        return r;
    }

    /** Fused a*b - c. */
    static Simd
    fms(const Simd &a, const Simd &b, const Simd &c)
    {
        Simd r;
        r.v = _mm256_fmsub_ps(a.v, b.v, c.v);
        return r;
    }

    static Simd
    min(const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm256_min_ps(a.v, b.v);
        return r;
    }

    static Simd
    max(const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm256_max_ps(a.v, b.v);
        return r;
    }

    SimdMask<float, 8>
    operator<(const Simd &o) const
    {
        SimdMask<float, 8> r;
        r.m = _mm256_cmp_ps(v, o.v, _CMP_LT_OQ);
        return r;
    }

    SimdMask<float, 8>
    operator>(const Simd &o) const
    {
        SimdMask<float, 8> r;
        r.m = _mm256_cmp_ps(v, o.v, _CMP_GT_OQ);
        return r;
    }

    SimdMask<float, 8>
    operator!=(const Simd &o) const
    {
        SimdMask<float, 8> r;
        r.m = _mm256_cmp_ps(v, o.v, _CMP_NEQ_UQ);
        return r;
    }

    SimdMask<float, 8>
    operator==(const Simd &o) const
    {
        SimdMask<float, 8> r;
        r.m = _mm256_cmp_ps(v, o.v, _CMP_EQ_OQ);
        return r;
    }

    SimdMask<float, 8>
    operator>=(const Simd &o) const
    {
        SimdMask<float, 8> r;
        r.m = _mm256_cmp_ps(v, o.v, _CMP_GE_OQ);
        return r;
    }

    static Simd
    select(const SimdMask<float, 8> &mask, const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm256_blendv_ps(b.v, a.v, mask.m);
        return r;
    }

    static Simd
    maskZero(const SimdMask<float, 8> &mask, const Simd &a)
    {
        Simd r;
        r.v = _mm256_and_ps(mask.m, a.v);
        return r;
    }

    static SimdIndex<8>
    truncToIndex(const Simd &a)
    {
        SimdIndex<8> r;
        r.v = _mm256_cvttps_epi32(a.v);
        return r;
    }

    static Simd
    fromIndex(const SimdIndex<8> &idx)
    {
        Simd r;
        r.v = _mm256_cvtepi32_ps(idx.v);
        return r;
    }

    float
    sum() const
    {
        alignas(32) float tmp[8];
        _mm256_store_ps(tmp, v);
        float total = tmp[0];
        for (int l = 1; l < 8; ++l)
            total += tmp[l];
        return total;
    }
};

/**
 * AVX2 float loadXyzw: eight contiguous 16-byte record loads plus an
 * 8x4 in-register transpose (unpack within 128-bit halves, shuffle
 * across) — the float analogue of the double transpose above.
 */
inline void
loadXyzw(const float *pack, const std::uint32_t *idx, Simd<float, 8> &x,
         Simd<float, 8> &y, Simd<float, 8> &z, Simd<float, 8> &w)
{
    const __m128 a0 = _mm_loadu_ps(pack + 4u * idx[0]);
    const __m128 a1 = _mm_loadu_ps(pack + 4u * idx[1]);
    const __m128 a2 = _mm_loadu_ps(pack + 4u * idx[2]);
    const __m128 a3 = _mm_loadu_ps(pack + 4u * idx[3]);
    const __m128 a4 = _mm_loadu_ps(pack + 4u * idx[4]);
    const __m128 a5 = _mm_loadu_ps(pack + 4u * idx[5]);
    const __m128 a6 = _mm_loadu_ps(pack + 4u * idx[6]);
    const __m128 a7 = _mm_loadu_ps(pack + 4u * idx[7]);
    const __m256 r04 = _mm256_set_m128(a4, a0); // rec0 low | rec4 high
    const __m256 r15 = _mm256_set_m128(a5, a1);
    const __m256 r26 = _mm256_set_m128(a6, a2);
    const __m256 r37 = _mm256_set_m128(a7, a3);
    const __m256 t0 = _mm256_unpacklo_ps(r04, r15); // x0 x1 y0 y1 | x4 x5 y4 y5
    const __m256 t1 = _mm256_unpackhi_ps(r04, r15); // z0 z1 w0 w1 | z4 z5 w4 w5
    const __m256 t2 = _mm256_unpacklo_ps(r26, r37); // x2 x3 y2 y3 | x6 x7 y6 y7
    const __m256 t3 = _mm256_unpackhi_ps(r26, r37); // z2 z3 w2 w3 | z6 z7 w6 w7
    x.v = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    y.v = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    z.v = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    w.v = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
}

/**
 * As above, skipping the unused payload shuffle. (Measured on
 * Skylake-SP: this 8-load transpose beats three vpgatherdps — the
 * microcoded gather loses despite touching all eight lanes at once.)
 */
inline void
loadXyz(const float *pack, const std::uint32_t *idx, Simd<float, 8> &x,
        Simd<float, 8> &y, Simd<float, 8> &z)
{
    const __m128 a0 = _mm_loadu_ps(pack + 4u * idx[0]);
    const __m128 a1 = _mm_loadu_ps(pack + 4u * idx[1]);
    const __m128 a2 = _mm_loadu_ps(pack + 4u * idx[2]);
    const __m128 a3 = _mm_loadu_ps(pack + 4u * idx[3]);
    const __m128 a4 = _mm_loadu_ps(pack + 4u * idx[4]);
    const __m128 a5 = _mm_loadu_ps(pack + 4u * idx[5]);
    const __m128 a6 = _mm_loadu_ps(pack + 4u * idx[6]);
    const __m128 a7 = _mm_loadu_ps(pack + 4u * idx[7]);
    const __m256 r04 = _mm256_set_m128(a4, a0);
    const __m256 r15 = _mm256_set_m128(a5, a1);
    const __m256 r26 = _mm256_set_m128(a6, a2);
    const __m256 r37 = _mm256_set_m128(a7, a3);
    const __m256 t0 = _mm256_unpacklo_ps(r04, r15); // x0 x1 y0 y1 | ...
    const __m256 t1 = _mm256_unpackhi_ps(r04, r15); // z0 z1 w0 w1 | ...
    const __m256 t2 = _mm256_unpacklo_ps(r26, r37); // x2 x3 y2 y3 | ...
    const __m256 t3 = _mm256_unpackhi_ps(r26, r37); // z2 z3 w2 w3 | ...
    x.v = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    y.v = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    z.v = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
}

/** Pairwise three-stripe horizontal sum (see the generic template). */
inline void
sumXyz(const Simd<float, 8> &x, const Simd<float, 8> &y,
       const Simd<float, 8> &z, float &sx, float &sy, float &sz)
{
    const __m256 xy = _mm256_hadd_ps(x.v, y.v);
    const __m256 zz = _mm256_hadd_ps(z.v, z.v);
    // x0123 y0123 z0123 z0123 | x4567 y4567 z4567 z4567
    const __m256 xyzz = _mm256_hadd_ps(xy, zz);
    const __m128 s = _mm_add_ps(_mm256_castps256_ps128(xyzz),
                                _mm256_extractf128_ps(xyzz, 1));
    sx = _mm_cvtss_f32(s);
    sy = _mm_cvtss_f32(_mm_shuffle_ps(s, s, 1));
    sz = _mm_cvtss_f32(_mm_shuffle_ps(s, s, 2));
}

/** Pairwise two-stripe horizontal sum (see the generic template). */
inline void
sumPair(const Simd<float, 8> &a, const Simd<float, 8> &b, float &sa,
        float &sb)
{
    // a0+a1 a2+a3 b0+b1 b2+b3 | a4+a5 a6+a7 b4+b5 b6+b7
    const __m256 ab = _mm256_hadd_ps(a.v, b.v);
    const __m128 s = _mm_add_ps(_mm256_castps256_ps128(ab),
                                _mm256_extractf128_ps(ab, 1));
    const __m128 t = _mm_hadd_ps(s, s); // [Σa, Σb, Σa, Σb]
    sa = _mm_cvtss_f32(t);
    sb = _mm_cvtss_f32(_mm_shuffle_ps(t, t, 1));
}

#endif // MDBENCH_SIMD_AVX2

// ---------------------------------------------------------------- AVX512

#if defined(MDBENCH_SIMD_AVX512)

/** AVX-512 mask: a real predicate register. */
template <>
struct SimdMask<double, 8>
{
    __mmask8 m = 0;

    bool lane(int l) const { return (m >> l) & 1; }

    int bits() const { return m; }

    SimdMask
    operator&(const SimdMask &o) const
    {
        SimdMask r;
        r.m = static_cast<__mmask8>(m & o.m);
        return r;
    }

    SimdMask
    operator|(const SimdMask &o) const
    {
        SimdMask r;
        r.m = static_cast<__mmask8>(m | o.m);
        return r;
    }

    /** Lanes of @p o with this mask's lanes cleared: ~this & o. */
    SimdMask
    andnot(const SimdMask &o) const
    {
        SimdMask r;
        r.m = static_cast<__mmask8>(~m & o.m);
        return r;
    }

    // Index-domain compares, widened to 64-bit so the 8 id lanes line
    // up with the 8 double lanes.
    static SimdMask
    fromIndexLT(const SimdIndex<8> &idx, std::uint32_t s)
    {
        SimdMask r;
        r.m = _mm512_cmp_epu64_mask(_mm512_cvtepu32_epi64(idx.v),
                                    _mm512_set1_epi64(s), _MM_CMPINT_LT);
        return r;
    }

    static SimdMask
    fromIndexGT(const SimdIndex<8> &idx, std::uint32_t s)
    {
        SimdMask r;
        r.m = _mm512_cmp_epu64_mask(_mm512_cvtepu32_epi64(idx.v),
                                    _mm512_set1_epi64(s), _MM_CMPINT_NLE);
        return r;
    }

    static SimdMask
    fromIndexEQ(const SimdIndex<8> &idx, std::uint32_t s)
    {
        SimdMask r;
        r.m = _mm512_cmp_epu64_mask(_mm512_cvtepu32_epi64(idx.v),
                                    _mm512_set1_epi64(s), _MM_CMPINT_EQ);
        return r;
    }
};

template <>
struct Simd<double, 8>
{
    __m512d v = _mm512_setzero_pd();

    Simd() = default;

    /* implicit */ Simd(double s) : v(_mm512_set1_pd(s)) {}

    static Simd
    loadu(const double *p)
    {
        Simd r;
        r.v = _mm512_loadu_pd(p);
        return r;
    }

    void storeu(double *p) const { _mm512_storeu_pd(p, v); }

    static Simd
    gather(const double *base, const SimdIndex<8> &idx)
    {
        Simd r;
        r.v = _mm512_i32gather_pd(idx.v, base, 8);
        return r;
    }

    double
    lane(int l) const
    {
        alignas(64) double tmp[8];
        _mm512_store_pd(tmp, v);
        return tmp[l];
    }

    Simd
    operator+(const Simd &o) const
    {
        Simd r;
        r.v = _mm512_add_pd(v, o.v);
        return r;
    }

    Simd
    operator-(const Simd &o) const
    {
        Simd r;
        r.v = _mm512_sub_pd(v, o.v);
        return r;
    }

    Simd
    operator*(const Simd &o) const
    {
        Simd r;
        r.v = _mm512_mul_pd(v, o.v);
        return r;
    }

    Simd
    operator/(const Simd &o) const
    {
        Simd r;
        r.v = _mm512_div_pd(v, o.v);
        return r;
    }

    Simd &
    operator+=(const Simd &o)
    {
        v = _mm512_add_pd(v, o.v);
        return *this;
    }

    static Simd
    sqrt(const Simd &a)
    {
        Simd r;
        r.v = _mm512_sqrt_pd(a.v);
        return r;
    }

    /** Fused a*b + c (per-ISA determinism permits fusing here). */
    static Simd
    fma(const Simd &a, const Simd &b, const Simd &c)
    {
        Simd r;
        r.v = _mm512_fmadd_pd(a.v, b.v, c.v);
        return r;
    }

    /** Fused a*b - c. */
    static Simd
    fms(const Simd &a, const Simd &b, const Simd &c)
    {
        Simd r;
        r.v = _mm512_fmsub_pd(a.v, b.v, c.v);
        return r;
    }

    static Simd
    min(const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm512_min_pd(a.v, b.v);
        return r;
    }

    static Simd
    max(const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm512_max_pd(a.v, b.v);
        return r;
    }

    SimdMask<double, 8>
    operator<(const Simd &o) const
    {
        SimdMask<double, 8> r;
        r.m = _mm512_cmp_pd_mask(v, o.v, _CMP_LT_OQ);
        return r;
    }

    SimdMask<double, 8>
    operator>(const Simd &o) const
    {
        SimdMask<double, 8> r;
        r.m = _mm512_cmp_pd_mask(v, o.v, _CMP_GT_OQ);
        return r;
    }

    SimdMask<double, 8>
    operator!=(const Simd &o) const
    {
        SimdMask<double, 8> r;
        r.m = _mm512_cmp_pd_mask(v, o.v, _CMP_NEQ_UQ);
        return r;
    }

    SimdMask<double, 8>
    operator==(const Simd &o) const
    {
        SimdMask<double, 8> r;
        r.m = _mm512_cmp_pd_mask(v, o.v, _CMP_EQ_OQ);
        return r;
    }

    SimdMask<double, 8>
    operator>=(const Simd &o) const
    {
        SimdMask<double, 8> r;
        r.m = _mm512_cmp_pd_mask(v, o.v, _CMP_GE_OQ);
        return r;
    }

    static Simd
    select(const SimdMask<double, 8> &mask, const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm512_mask_blend_pd(mask.m, b.v, a.v);
        return r;
    }

    static Simd
    maskZero(const SimdMask<double, 8> &mask, const Simd &a)
    {
        Simd r;
        r.v = _mm512_maskz_mov_pd(mask.m, a.v);
        return r;
    }

    static SimdIndex<8>
    truncToIndex(const Simd &a)
    {
        SimdIndex<8> r;
        r.v = _mm512_cvttpd_epi32(a.v);
        return r;
    }

    static Simd
    fromIndex(const SimdIndex<8> &idx)
    {
        Simd r;
        r.v = _mm512_cvtepi32_pd(idx.v);
        return r;
    }

    double
    sum() const
    {
        alignas(64) double tmp[8];
        _mm512_store_pd(tmp, v);
        double total = tmp[0];
        for (int l = 1; l < 8; ++l)
            total += tmp[l];
        return total;
    }
};

/**
 * AVX-512 loadXyzw: four gathers off a single pre-scaled index vector
 * (record base = idx*4 doubles; component picked by the base pointer).
 */
inline void
loadXyzw(const double *pack, const std::uint32_t *idx, Simd<double, 8> &x,
         Simd<double, 8> &y, Simd<double, 8> &z, Simd<double, 8> &w)
{
    const __m256i rec = _mm256_slli_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(idx)), 2);
    x.v = _mm512_i32gather_pd(rec, pack + 0, 8);
    y.v = _mm512_i32gather_pd(rec, pack + 1, 8);
    z.v = _mm512_i32gather_pd(rec, pack + 2, 8);
    w.v = _mm512_i32gather_pd(rec, pack + 3, 8);
}

/** As above, skipping the unused payload gather. */
inline void
loadXyz(const double *pack, const std::uint32_t *idx, Simd<double, 8> &x,
        Simd<double, 8> &y, Simd<double, 8> &z)
{
    const __m256i rec = _mm256_slli_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(idx)), 2);
    x.v = _mm512_i32gather_pd(rec, pack + 0, 8);
    y.v = _mm512_i32gather_pd(rec, pack + 1, 8);
    z.v = _mm512_i32gather_pd(rec, pack + 2, 8);
}

/** AVX-512 backend: 16 x u32 indices in a ZMM register. */
template <>
struct SimdIndex<16>
{
    __m512i v = _mm512_setzero_si512();

    static SimdIndex
    load(const std::uint32_t *p)
    {
        SimdIndex r;
        r.v = _mm512_loadu_si512(p);
        return r;
    }

    static SimdIndex
    gather32(const int *base, const SimdIndex &idx)
    {
        SimdIndex r;
        r.v = _mm512_i32gather_epi32(idx.v, base, 4);
        return r;
    }

    SimdIndex
    operator*(std::uint32_t s) const
    {
        SimdIndex r;
        r.v = _mm512_mullo_epi32(v, _mm512_set1_epi32(static_cast<int>(s)));
        return r;
    }

    SimdIndex
    operator+(std::uint32_t s) const
    {
        SimdIndex r;
        r.v = _mm512_add_epi32(v, _mm512_set1_epi32(static_cast<int>(s)));
        return r;
    }

    static SimdIndex
    min(const SimdIndex &a, std::uint32_t s)
    {
        SimdIndex r;
        r.v = _mm512_min_epu32(a.v, _mm512_set1_epi32(static_cast<int>(s)));
        return r;
    }

    std::uint32_t
    lane(int l) const
    {
        alignas(64) std::uint32_t tmp[16];
        _mm512_store_si512(reinterpret_cast<__m512i *>(tmp), v);
        return tmp[l];
    }
};

/** AVX-512 compressStore over 16 ids: the native compress. */
inline int
compressStore(std::uint32_t *dst, const SimdIndex<16> &ids, int maskBits)
{
    const unsigned mask = static_cast<unsigned>(maskBits) & 0xFFFFu;
    _mm512_mask_compressstoreu_epi32(dst, static_cast<__mmask16>(mask),
                                     ids.v);
    return std::popcount(mask);
}

/** AVX-512 float mask: a 16-bit predicate register. */
template <>
struct SimdMask<float, 16>
{
    __mmask16 m = 0;

    bool lane(int l) const { return (m >> l) & 1; }

    int bits() const { return m; }

    SimdMask
    operator&(const SimdMask &o) const
    {
        SimdMask r;
        r.m = static_cast<__mmask16>(m & o.m);
        return r;
    }

    SimdMask
    operator|(const SimdMask &o) const
    {
        SimdMask r;
        r.m = static_cast<__mmask16>(m | o.m);
        return r;
    }

    /** Lanes of @p o with this mask's lanes cleared: ~this & o. */
    SimdMask
    andnot(const SimdMask &o) const
    {
        SimdMask r;
        r.m = static_cast<__mmask16>(~m & o.m);
        return r;
    }

    // Index-domain compares (lane counts already match at 32 bits).
    static SimdMask
    fromIndexLT(const SimdIndex<16> &idx, std::uint32_t s)
    {
        SimdMask r;
        r.m = _mm512_cmp_epu32_mask(
            idx.v, _mm512_set1_epi32(static_cast<int>(s)), _MM_CMPINT_LT);
        return r;
    }

    static SimdMask
    fromIndexGT(const SimdIndex<16> &idx, std::uint32_t s)
    {
        SimdMask r;
        r.m = _mm512_cmp_epu32_mask(
            idx.v, _mm512_set1_epi32(static_cast<int>(s)), _MM_CMPINT_NLE);
        return r;
    }

    static SimdMask
    fromIndexEQ(const SimdIndex<16> &idx, std::uint32_t s)
    {
        SimdMask r;
        r.m = _mm512_cmp_epu32_mask(
            idx.v, _mm512_set1_epi32(static_cast<int>(s)), _MM_CMPINT_EQ);
        return r;
    }
};

/** AVX-512 float backend: twice the lanes of `Simd<double, 8>`. */
template <>
struct Simd<float, 16>
{
    __m512 v = _mm512_setzero_ps();

    Simd() = default;

    /* implicit */ Simd(float s) : v(_mm512_set1_ps(s)) {}

    static Simd
    loadu(const float *p)
    {
        Simd r;
        r.v = _mm512_loadu_ps(p);
        return r;
    }

    void storeu(float *p) const { _mm512_storeu_ps(p, v); }

    static Simd
    gather(const float *base, const SimdIndex<16> &idx)
    {
        Simd r;
        r.v = _mm512_i32gather_ps(idx.v, base, 4);
        return r;
    }

    float
    lane(int l) const
    {
        alignas(64) float tmp[16];
        _mm512_store_ps(tmp, v);
        return tmp[l];
    }

    Simd
    operator+(const Simd &o) const
    {
        Simd r;
        r.v = _mm512_add_ps(v, o.v);
        return r;
    }

    Simd
    operator-(const Simd &o) const
    {
        Simd r;
        r.v = _mm512_sub_ps(v, o.v);
        return r;
    }

    Simd
    operator*(const Simd &o) const
    {
        Simd r;
        r.v = _mm512_mul_ps(v, o.v);
        return r;
    }

    Simd
    operator/(const Simd &o) const
    {
        Simd r;
        r.v = _mm512_div_ps(v, o.v);
        return r;
    }

    Simd &
    operator+=(const Simd &o)
    {
        v = _mm512_add_ps(v, o.v);
        return *this;
    }

    static Simd
    sqrt(const Simd &a)
    {
        Simd r;
        r.v = _mm512_sqrt_ps(a.v);
        return r;
    }

    /** Fused a*b + c (per-ISA determinism permits fusing here). */
    static Simd
    fma(const Simd &a, const Simd &b, const Simd &c)
    {
        Simd r;
        r.v = _mm512_fmadd_ps(a.v, b.v, c.v);
        return r;
    }

    /** Fused a*b - c. */
    static Simd
    fms(const Simd &a, const Simd &b, const Simd &c)
    {
        Simd r;
        r.v = _mm512_fmsub_ps(a.v, b.v, c.v);
        return r;
    }

    static Simd
    min(const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm512_min_ps(a.v, b.v);
        return r;
    }

    static Simd
    max(const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm512_max_ps(a.v, b.v);
        return r;
    }

    SimdMask<float, 16>
    operator<(const Simd &o) const
    {
        SimdMask<float, 16> r;
        r.m = _mm512_cmp_ps_mask(v, o.v, _CMP_LT_OQ);
        return r;
    }

    SimdMask<float, 16>
    operator>(const Simd &o) const
    {
        SimdMask<float, 16> r;
        r.m = _mm512_cmp_ps_mask(v, o.v, _CMP_GT_OQ);
        return r;
    }

    SimdMask<float, 16>
    operator!=(const Simd &o) const
    {
        SimdMask<float, 16> r;
        r.m = _mm512_cmp_ps_mask(v, o.v, _CMP_NEQ_UQ);
        return r;
    }

    SimdMask<float, 16>
    operator==(const Simd &o) const
    {
        SimdMask<float, 16> r;
        r.m = _mm512_cmp_ps_mask(v, o.v, _CMP_EQ_OQ);
        return r;
    }

    SimdMask<float, 16>
    operator>=(const Simd &o) const
    {
        SimdMask<float, 16> r;
        r.m = _mm512_cmp_ps_mask(v, o.v, _CMP_GE_OQ);
        return r;
    }

    static Simd
    select(const SimdMask<float, 16> &mask, const Simd &a, const Simd &b)
    {
        Simd r;
        r.v = _mm512_mask_blend_ps(mask.m, b.v, a.v);
        return r;
    }

    static Simd
    maskZero(const SimdMask<float, 16> &mask, const Simd &a)
    {
        Simd r;
        r.v = _mm512_maskz_mov_ps(mask.m, a.v);
        return r;
    }

    static SimdIndex<16>
    truncToIndex(const Simd &a)
    {
        SimdIndex<16> r;
        r.v = _mm512_cvttps_epi32(a.v);
        return r;
    }

    static Simd
    fromIndex(const SimdIndex<16> &idx)
    {
        Simd r;
        r.v = _mm512_cvtepi32_ps(idx.v);
        return r;
    }

    float
    sum() const
    {
        alignas(64) float tmp[16];
        _mm512_store_ps(tmp, v);
        float total = tmp[0];
        for (int l = 1; l < 16; ++l)
            total += tmp[l];
        return total;
    }
};

/**
 * AVX-512 float loadXyzw: four gathers off a single pre-scaled index
 * vector (record base = idx*4 floats; component picked by the base
 * pointer).
 */
inline void
loadXyzw(const float *pack, const std::uint32_t *idx, Simd<float, 16> &x,
         Simd<float, 16> &y, Simd<float, 16> &z, Simd<float, 16> &w)
{
    const __m512i rec =
        _mm512_slli_epi32(_mm512_loadu_si512(idx), 2);
    x.v = _mm512_i32gather_ps(rec, pack + 0, 4);
    y.v = _mm512_i32gather_ps(rec, pack + 1, 4);
    z.v = _mm512_i32gather_ps(rec, pack + 2, 4);
    w.v = _mm512_i32gather_ps(rec, pack + 3, 4);
}

/** As above, skipping the unused payload gather. */
inline void
loadXyz(const float *pack, const std::uint32_t *idx, Simd<float, 16> &x,
        Simd<float, 16> &y, Simd<float, 16> &z)
{
    const __m512i rec =
        _mm512_slli_epi32(_mm512_loadu_si512(idx), 2);
    x.v = _mm512_i32gather_ps(rec, pack + 0, 4);
    y.v = _mm512_i32gather_ps(rec, pack + 1, 4);
    z.v = _mm512_i32gather_ps(rec, pack + 2, 4);
}

#endif // MDBENCH_SIMD_AVX512

#if defined(MDBENCH_SIMD_AVX2)
#pragma GCC diagnostic pop
#endif

} // namespace mdbench

#endif // MDBENCH_UTIL_SIMD_H
