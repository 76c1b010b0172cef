/**
 * @file
 * Portable SIMD compute layer for the pair kernels and the neighbor
 * build (DESIGN.md §12).
 *
 * `Simd<T, W>` is a fixed-width value vector with the handful of
 * operations the kernels need: broadcast, load/store, gather by 32-bit
 * index, arithmetic, compares returning `SimdMask<T, W>`, blend
 * (select), round and ldexp (the 2^k scale of util/simd_math.h's exp),
 * and a *sequential* lane sum; `SimdIndex<W>` holds 32-bit lane
 * indices. Each class is written once, over a register trait of
 * one-line wrappers (`detail::SimdRegs<T, W>`, `detail::IndexRegs<W>`):
 *
 *  - the generic array backend (`detail::ArrayRegs<T, W>`, the primary
 *    template) compiles for any T and W with plain scalar loops — at
 *    W = 1 the reference every other width is checked against, and the
 *    body every sanitizer build exercises,
 *  - AVX2 specializes (double, 4) (`__m256d` + `__m128i` indices) and
 *    (float, 8) (`__m256` + `__m256i`), under `-mavx2 -mfma`,
 *  - AVX-512 specializes (double, 8) (`__m512d` + `__m256i` indices)
 *    and (float, 16) (`__m512` + `__m512i`), under `-mavx512f`.
 *
 * Only the loadXyzw record-load transposes, the gathers, compressStore
 * and the sumXyz/sumPair horizontal sums stay hand-written per ISA. The
 * float traits serve the mixed/single precision tiers
 * (util/precision.h): at a given ISA level float lanes come in twice
 * the count of double lanes, the precision × SIMD synergy of the
 * paper's Section 8.
 *
 * Determinism contract: every operation is a per-lane IEEE-754
 * operation with no approximate reciprocals, and every trait returns
 * the same lanes for it, except fma()/fms(): fused on the ISA traits,
 * written unfused on the generic one. GCC also contracts a*b + c
 * written in C++ into an FMA wherever the target has one (C++ defaults
 * to -ffp-contract=fast), so results are bitwise per build, not across
 * builds; only the order in which a *kernel* folds lanes distinguishes
 * widths, and `sum()` is the ascending-lane sequential sum for that
 * reason. Width 0 runs the W = 1 instantiation.
 *
 * Width configuration: a simulation's neighbor rows are padded to
 * `EngineConfig::packWidth()` (util/engine_config.h) — 0 disables the
 * SIMD layer (the double W = 1 kernels over unpadded rows). The
 * default comes from the `MDBENCH_SIMD` environment
 * variable (`0`/`off` = disabled, `1`/`on`/unset = simdNativeWidth(),
 * which doubles the lane count for float lanes, and an explicit
 * `2`/`4`/`8`/`16` forces that width for both element types, through
 * the generic backend when no matching ISA backend exists); any other
 * value is a fatal() error.
 */

#ifndef MDBENCH_UTIL_SIMD_H
#define MDBENCH_UTIL_SIMD_H

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>

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
 * fault inside the intrinsic paths; this check routes such runs to
 * width 0 instead (the generic backend compiles to plain scalar code
 * and needs no check).
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

/** Widths the pair kernels instantiate. */
inline bool
simdWidthSupported(int w)
{
    return w == 1 || w == 2 || w == 4 || w == 8 || w == 16;
}

/**
 * Backend that executes width @p w in this translation unit: the ISA
 * specialization when one matches (which depends on whether the tier
 * computes in float or double lanes), otherwise the generic (unrolled
 * scalar) template; 0 ("scalar") is the SIMD-off W = 1 double kernel
 * over unpadded rows.
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

/**
 * The native packed width for float (@p floatLanes) or double lanes:
 * the compiled ISA backend's lane count when the executing CPU
 * supports it, else 0 (SIMD off).
 */
inline int
simdNativeWidth(bool floatLanes)
{
    static const bool supported = simdRuntimeSupported();
    const int compiled =
        floatLanes ? kSimdCompiledFloatWidth : kSimdCompiledWidth;
    return compiled > 1 && supported ? compiled : 0;
}

/**
 * Double-lane width of the process default EngineConfig
 * (util/engine_config.h): `MDBENCH_SIMD`, the native width when unset.
 */
int simdWidth();

// ------------------------------------------------------- register traits
//
// Every trait op writes its result to its first argument: a class body
// declares its result, has the trait fill it in place and returns it,
// which after inlining is the code of a body hand-written per register
// type. On FMA builds that shape is part of the bitwise contract,
// since which generic products GCC fuses depends on it.

template <int W>
struct SimdIndex;

namespace detail {

/** Generic index registers: W u32 lanes, one scalar op per lane. */
template <int W>
struct ArrayIndexRegs
{
    using I = std::array<std::uint32_t, W>;
    using U = std::uint32_t;

    /** r[l] = f(l) for every lane. */
    template <typename F>
    static void
    each(I &r, F f)
    {
        for (int l = 0; l < W; ++l)
            r[l] = f(l);
    }

    static void loadu(I &r, const U *p) { std::copy_n(p, W, r.begin()); }
    static void storeu(U *p, const I &a) { std::copy_n(a.begin(), W, p); }

    static void
    gather32(I &r, const int *base, const I &idx)
    {
        each(r, [&](int l) { return static_cast<U>(base[idx[l]]); });
    }

    static void
    mullo(I &r, I a, U s)
    {
        each(r, [&](int l) { return a[l] * s; });
    }

    static void
    add(I &r, I a, U s)
    {
        each(r, [&](int l) { return a[l] + s; });
    }

    static void
    min(I &r, I a, U s)
    {
        each(r, [&](int l) { return a[l] < s ? a[l] : s; });
    }
};

/** Index registers of width W: generic unless specialized below. */
template <int W>
struct IndexRegs : ArrayIndexRegs<W>
{};

/**
 * Generic value registers: W lanes of T computed with scalar loops.
 * The loops auto-vectorize on friendly targets, but the point of this
 * backend is semantics, not speed — it defines the exact per-lane
 * behaviour the ISA traits must reproduce (the backend-equivalence
 * test compares them op by op), and at W = 1 it is the reference
 * every other width is checked against.
 */
template <typename T, int W>
struct ArrayRegs
{
    using V = std::array<T, W>;
    using M = std::array<bool, W>;
    using CV = const V &;
    using CM = const M &;

    /** r[l] = f(a[l], b[l]) for every lane (compares, mask logic). */
    template <typename R, typename A, typename F>
    static void
    zip(R &r, const A &a, const A &b, F f)
    {
        for (int l = 0; l < W; ++l)
            r[l] = f(a[l], b[l]);
    }

    static void
    set1(V &r, T s)
    {
        for (int l = 0; l < W; ++l)
            r[l] = s;
    }

    static void
    loadu(V &r, const T *p)
    {
        for (int l = 0; l < W; ++l)
            r[l] = p[l];
    }

    static void
    storeu(T *p, CV a)
    {
        for (int l = 0; l < W; ++l)
            p[l] = a[l];
    }

    // lane(), not the index storage: the generic body also runs against
    // an ISA-specialized SimdIndex<W> (forced widths on ISA builds).
    static void
    gather(V &r, const T *base, const SimdIndex<W> &idx)
    {
        for (int l = 0; l < W; ++l)
            r[l] = base[idx.lane(l)];
    }

    static void
    add(V &r, CV a, CV b)
    {
        for (int l = 0; l < W; ++l)
            r[l] = a[l] + b[l];
    }

    static void
    sub(V &r, CV a, CV b)
    {
        for (int l = 0; l < W; ++l)
            r[l] = a[l] - b[l];
    }

    static void
    mul(V &r, CV a, CV b)
    {
        for (int l = 0; l < W; ++l)
            r[l] = a[l] * b[l];
    }

    static void
    div(V &r, CV a, CV b)
    {
        for (int l = 0; l < W; ++l)
            r[l] = a[l] / b[l];
    }

    static void
    sqrt(V &r, CV a)
    {
        for (int l = 0; l < W; ++l)
            r[l] = std::sqrt(a[l]);
    }

    // a*b ± c written unfused: the product is rounded first, so a W = 1
    // kernel computes each expression as written — on targets without
    // FMA. Where the target has one, GCC may still fuse it (see above).
    static void
    fmadd(V &r, CV a, CV b, CV c)
    {
        for (int l = 0; l < W; ++l)
            r[l] = (a[l] * b[l]) + c[l];
    }

    static void
    fmsub(V &r, CV a, CV b, CV c)
    {
        for (int l = 0; l < W; ++l)
            r[l] = (a[l] * b[l]) - c[l];
    }

    // The x86 min/max rule: b unless a is strictly smaller (larger),
    // so a NaN in either operand and a ±0 tie return b.
    static void
    min(V &r, CV a, CV b)
    {
        for (int l = 0; l < W; ++l)
            r[l] = a[l] < b[l] ? a[l] : b[l];
    }

    static void
    max(V &r, CV a, CV b)
    {
        for (int l = 0; l < W; ++l)
            r[l] = a[l] > b[l] ? a[l] : b[l];
    }

    static void cmp_lt(M &r, CV a, CV b) { zip(r, a, b, std::less<>()); }
    static void cmp_gt(M &r, CV a, CV b) { zip(r, a, b, std::greater<>()); }

    static void
    cmp_ne(M &r, CV a, CV b)
    {
        zip(r, a, b, std::not_equal_to<>());
    }

    static void cmp_eq(M &r, CV a, CV b) { zip(r, a, b, std::equal_to<>()); }

    static void
    cmp_ge(M &r, CV a, CV b)
    {
        zip(r, a, b, std::greater_equal<>());
    }

    /** Lanes of @p a where @p m is set, of @p b elsewhere. */
    static void
    blend(V &r, CM m, CV a, CV b)
    {
        for (int l = 0; l < W; ++l)
            r[l] = m[l] ? a[l] : b[l];
    }

    static void
    maskz(V &r, CM m, CV a)
    {
        for (int l = 0; l < W; ++l)
            r[l] = m[l] ? a[l] : T(0);
    }

    static int
    movemask(CM m)
    {
        int b = 0;
        for (int l = 0; l < W; ++l)
            b |= static_cast<int>(m[l]) << l;
        return b;
    }

    static void mand(M &r, CM a, CM b) { zip(r, a, b, std::logical_and<>()); }
    static void mor(M &r, CM a, CM b) { zip(r, a, b, std::logical_or<>()); }

    /** ~a & b. */
    static void
    mandnot(M &r, CM a, CM b)
    {
        zip(r, a, b, [](bool x, bool y) { return !x && y; });
    }

    static void
    idx_gt(M &r, const SimdIndex<W> &idx, std::uint32_t s)
    {
        for (int l = 0; l < W; ++l)
            r[l] = idx.lane(l) > s;
    }

    static void
    idx_eq(M &r, const SimdIndex<W> &idx, std::uint32_t s)
    {
        for (int l = 0; l < W; ++l)
            r[l] = idx.lane(l) == s;
    }

    static void
    cvtt(SimdIndex<W> &r, CV a)
    {
        // Through memory, so an ISA-specialized SimdIndex<W> can be
        // filled from this generic body.
        alignas(64) std::uint32_t tmp[W];
        for (int l = 0; l < W; ++l)
            tmp[l] = static_cast<std::uint32_t>(a[l]);
        IndexRegs<W>::loadu(r.v, tmp);
    }

    static void
    cvt(V &r, const SimdIndex<W> &idx)
    {
        for (int l = 0; l < W; ++l)
            r[l] = static_cast<T>(static_cast<std::int32_t>(idx.lane(l)));
    }

    static void
    round(V &r, CV a)
    {
        for (int l = 0; l < W; ++l)
            r[l] = std::nearbyint(a[l]);
    }

    static void
    ldexp(V &r, CV a, CV k)
    {
        for (int l = 0; l < W; ++l)
            r[l] = std::ldexp(a[l], static_cast<int>(k[l]));
    }
};

/** Value registers of (T, W): generic unless specialized below. */
template <typename T, int W>
struct SimdRegs : ArrayRegs<T, W>
{};

} // namespace detail

// ----------------------------------------------------------- the classes

/** Vector of W 32-bit element indices (neighbor ids, table slots). */
template <int W>
struct SimdIndex
{
    using Regs = detail::IndexRegs<W>;
    using U = std::uint32_t;
    typename Regs::I v{};

    static SimdIndex load(const U *p) { return make<Regs::loadu>(p); }

    /** Gather base[idx[l]] of a 32-bit integer array (atom types). */
    static SimdIndex
    gather32(const int *base, const SimdIndex &idx)
    {
        return make<Regs::gather32>(base, idx.v);
    }

    SimdIndex operator*(U s) const { return make<Regs::mullo>(v, s); }
    SimdIndex operator+(U s) const { return make<Regs::add>(v, s); }

    /** Per-lane unsigned minimum against a scalar (table clamping). */
    static SimdIndex
    min(const SimdIndex &a, U s)
    {
        return make<Regs::min>(a.v, s);
    }

    U
    lane(int l) const
    {
        alignas(64) U tmp[W];
        Regs::storeu(tmp, v);
        return tmp[l];
    }

  private:
    /** The index trait op Op(r, args...) fills in place. */
    template <auto Op, typename... A>
    [[gnu::always_inline]] static SimdIndex
    make(const A &...args)
    {
        SimdIndex r;
        Op(r.v, args...);
        return r;
    }
};

/** Per-lane boolean result of a Simd comparison. */
template <typename T, int W>
struct SimdMask
{
    using Regs = detail::SimdRegs<T, W>;
    typename Regs::M m{};

    bool lane(int l) const { return (bits() >> l) & 1; }

    /**
     * Active lanes as a bitmap (lane l -> bit l). Zero means no work;
     * iterating set bits ascending visits lanes in scalar order.
     */
    int bits() const { return Regs::movemask(m); }

    SimdMask
    operator&(const SimdMask &o) const
    {
        return make<Regs::mand>(m, o.m);
    }

    SimdMask
    operator|(const SimdMask &o) const
    {
        return make<Regs::mor>(m, o.m);
    }

    /** Lanes of @p o with this mask's lanes cleared: ~this & o. */
    SimdMask
    andnot(const SimdMask &o) const
    {
        return make<Regs::mandnot>(m, o.m);
    }

    // Index-domain compares lifted into this element type's mask
    // domain (the neighbor build combines id rules with coordinate
    // tie-breaks in one vector predicate). Indices are atom ids and
    // always < 2^31, so the ISA traits may compare signed.

    /** Lane l set when idx[l] > s. */
    static SimdMask
    fromIndexGT(const SimdIndex<W> &idx, std::uint32_t s)
    {
        return make<Regs::idx_gt>(idx, s);
    }

    /** Lane l set when idx[l] == s. */
    static SimdMask
    fromIndexEQ(const SimdIndex<W> &idx, std::uint32_t s)
    {
        return make<Regs::idx_eq>(idx, s);
    }

  private:
    /** The mask trait op Op(r, args...) fills in place. */
    template <auto Op, typename... A>
    [[gnu::always_inline]] static SimdMask
    make(const A &...args)
    {
        SimdMask r;
        Op(r.m, args...);
        return r;
    }
};

/** W lanes of T (see the file comment for the backends). */
template <typename T, int W>
struct Simd
{
    using Regs = detail::SimdRegs<T, W>;
    using Mask = SimdMask<T, W>;
    typename Regs::V v{};

    Simd() = default;

    /* implicit */ Simd(T s) { Regs::set1(v, s); }

    static Simd loadu(const T *p) { return make<Regs::loadu>(p); }
    void storeu(T *p) const { Regs::storeu(p, v); }

    static Simd
    gather(const T *base, const SimdIndex<W> &idx)
    {
        return make<Regs::gather>(base, idx);
    }

    T
    lane(int l) const
    {
        alignas(64) T tmp[W];
        storeu(tmp);
        return tmp[l];
    }

    Simd operator+(const Simd &o) const { return make<Regs::add>(v, o.v); }
    Simd operator-(const Simd &o) const { return make<Regs::sub>(v, o.v); }
    Simd operator*(const Simd &o) const { return make<Regs::mul>(v, o.v); }
    Simd operator/(const Simd &o) const { return make<Regs::div>(v, o.v); }

    Simd &
    operator+=(const Simd &o)
    {
        Regs::add(v, v, o.v);
        return *this;
    }

    static Simd sqrt(const Simd &a) { return make<Regs::sqrt>(a.v); }

    /** a*b + c: fused on the ISA traits, written unfused on the generic. */
    static Simd
    fma(const Simd &a, const Simd &b, const Simd &c)
    {
        return make<Regs::fmadd>(a.v, b.v, c.v);
    }

    /** a*b - c, same fusion policy as fma(). */
    static Simd
    fms(const Simd &a, const Simd &b, const Simd &c)
    {
        return make<Regs::fmsub>(a.v, b.v, c.v);
    }

    /** a < b ? a : b per lane: b when either is NaN or on a ±0 tie. */
    static Simd
    min(const Simd &a, const Simd &b)
    {
        return make<Regs::min>(a.v, b.v);
    }

    /** a > b ? a : b per lane: b when either is NaN or on a ±0 tie. */
    static Simd
    max(const Simd &a, const Simd &b)
    {
        return make<Regs::max>(a.v, b.v);
    }

    Mask operator<(const Simd &o) const { return cmp<Regs::cmp_lt>(v, o.v); }
    Mask operator>(const Simd &o) const { return cmp<Regs::cmp_gt>(v, o.v); }
    Mask operator!=(const Simd &o) const { return cmp<Regs::cmp_ne>(v, o.v); }
    Mask operator==(const Simd &o) const { return cmp<Regs::cmp_eq>(v, o.v); }
    Mask operator>=(const Simd &o) const { return cmp<Regs::cmp_ge>(v, o.v); }

    /** Lanes of @p a where the mask is set, of @p b elsewhere. */
    static Simd
    select(const Mask &mask, const Simd &a, const Simd &b)
    {
        return make<Regs::blend>(mask.m, a.v, b.v);
    }

    /**
     * select(mask, a, 0): rejected lanes become exact +0.0. On the AVX
     * traits this is a single bitwise AND or zero-masking move instead
     * of a blend.
     */
    static Simd
    maskZero(const Mask &mask, const Simd &a)
    {
        return make<Regs::maskz>(mask.m, a.v);
    }

    /** Truncating conversion to element indices (spline locate). */
    static SimdIndex<W>
    truncToIndex(const Simd &a)
    {
        SimdIndex<W> r;
        Regs::cvtt(r, a.v);
        return r;
    }

    /** Index-to-value conversion (spline locate's t = s - index). */
    static Simd
    fromIndex(const SimdIndex<W> &idx)
    {
        return make<Regs::cvt>(idx);
    }

    /** Round to the nearest integer, ties to even (exp's 2^k split). */
    static Simd round(const Simd &a) { return make<Regs::round>(a.v); }

    /**
     * a * 2^k for integer-valued k with 2^k a normal number (k in
     * [-1022, 1023] for double, [-126, 127] for float): one correctly
     * rounded multiply, so every backend returns the same lanes.
     */
    static Simd
    ldexp(const Simd &a, const Simd &k)
    {
        return make<Regs::ldexp>(a.v, k.v);
    }

    /** Sequential ascending-lane sum (fixed summation tree). */
    T
    sum() const
    {
        alignas(64) T tmp[W];
        storeu(tmp);
        T total = tmp[0];
        for (int l = 1; l < W; ++l)
            total += tmp[l];
        return total;
    }

  private:
    /** The value trait op Op(r, args...) fills in place. */
    template <auto Op, typename... A>
    [[gnu::always_inline]] static Simd
    make(const A &...args)
    {
        Simd r;
        Op(r.v, args...);
        return r;
    }

    /** The mask trait op Op(r, args...) fills in place. */
    template <auto Op, typename... A>
    [[gnu::always_inline]] static Mask
    cmp(const A &...args)
    {
        Mask r;
        Op(r.m, args...);
        return r;
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
 * atom included). The templates serve the generic traits, whose
 * storage is an array; the ISA overloads below take the rest.
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

/**
 * Three-component variant for kernels with no per-atom payload: the
 * payload lanes are dead, so the compiler drops their shuffles on every
 * trait. (Measured: on Skylake-SP the 8-load float transpose beats
 * three vpgatherdps, and on a Sapphire Rapids-class AVX-512 host both
 * AVX-512 transposes beat the three or four gathers they replaced.)
 */
template <typename T, int W>
inline void
loadXyz(const T *pack, const std::uint32_t *idx, Simd<T, W> &x,
        Simd<T, W> &y, Simd<T, W> &z)
{
    Simd<T, W> unused;
    loadXyzw(pack, idx, x, y, z, unused);
}

/**
 * Compress-store: write the lanes of @p ids whose bit is set in
 * @p maskBits to @p dst in ascending lane order — the vector analogue
 * of the scalar "if (keep) out[n++] = id" append, which is how the
 * neighbor build emits the same CSR rows at every width. Writes
 * exactly popcount(maskBits) elements (no tail slop, so rows owned by
 * different threads can abut) and returns that count.
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

namespace detail {

/** round(): to nearest, ties to even, exceptions suppressed. */
inline constexpr int kRoundNearest =
    _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

/** 4 x u32 indices in an SSE register (AVX2 double width). */
template <>
struct IndexRegs<4>
{
    using I = __m128i;
    using U = std::uint32_t;

    static I set1(U s) { return _mm_set1_epi32(static_cast<int>(s)); }

    static void
    loadu(I &r, const U *p)
    {
        r = _mm_loadu_si128(reinterpret_cast<const I *>(p));
    }

    static void
    storeu(U *p, I a)
    {
        _mm_storeu_si128(reinterpret_cast<I *>(p), a);
    }

    static void
    gather32(I &r, const int *base, I idx)
    {
        r = _mm_i32gather_epi32(base, idx, 4);
    }

    static void mullo(I &r, I a, U s) { r = _mm_mullo_epi32(a, set1(s)); }
    static void add(I &r, I a, U s) { r = _mm_add_epi32(a, set1(s)); }
    static void min(I &r, I a, U s) { r = _mm_min_epu32(a, set1(s)); }
};

/**
 * 8 x u32 indices in an AVX2 register. Used by the AVX-512 double
 * trait (W=8) and the AVX2 float trait (W=8) alike — only AVX2
 * intrinsics appear here.
 */
template <>
struct IndexRegs<8>
{
    using I = __m256i;
    using U = std::uint32_t;

    static I set1(U s) { return _mm256_set1_epi32(static_cast<int>(s)); }

    static void
    loadu(I &r, const U *p)
    {
        r = _mm256_loadu_si256(reinterpret_cast<const I *>(p));
    }

    static void
    storeu(U *p, I a)
    {
        _mm256_storeu_si256(reinterpret_cast<I *>(p), a);
    }

    static void
    gather32(I &r, const int *base, I idx)
    {
        r = _mm256_i32gather_epi32(base, idx, 4);
    }

    static void mullo(I &r, I a, U s) { r = _mm256_mullo_epi32(a, set1(s)); }
    static void add(I &r, I a, U s) { r = _mm256_add_epi32(a, set1(s)); }
    static void min(I &r, I a, U s) { r = _mm256_min_epu32(a, set1(s)); }
};

/** AVX2 double: `__m256d` lanes, all-ones / all-zeros lane masks. */
template <>
struct SimdRegs<double, 4>
{
    using V = __m256d;
    using M = __m256d;
    using I4 = SimdIndex<4>;

    static void set1(V &r, double s) { r = _mm256_set1_pd(s); }
    static void loadu(V &r, const double *p) { r = _mm256_loadu_pd(p); }
    static void storeu(double *p, V a) { _mm256_storeu_pd(p, a); }

    static void
    gather(V &r, const double *base, const I4 &idx)
    {
        r = _mm256_i32gather_pd(base, idx.v, 8);
    }

    static void add(V &r, V a, V b) { r = _mm256_add_pd(a, b); }
    static void sub(V &r, V a, V b) { r = _mm256_sub_pd(a, b); }
    static void mul(V &r, V a, V b) { r = _mm256_mul_pd(a, b); }
    static void div(V &r, V a, V b) { r = _mm256_div_pd(a, b); }
    static void sqrt(V &r, V a) { r = _mm256_sqrt_pd(a); }
    static void fmadd(V &r, V a, V b, V c) { r = _mm256_fmadd_pd(a, b, c); }
    static void fmsub(V &r, V a, V b, V c) { r = _mm256_fmsub_pd(a, b, c); }
    static void min(V &r, V a, V b) { r = _mm256_min_pd(a, b); }
    static void max(V &r, V a, V b) { r = _mm256_max_pd(a, b); }
    static void cmp_lt(M &r, V a, V b) { r = _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
    static void cmp_gt(M &r, V a, V b) { r = _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
    static void cmp_ne(M &r, V a, V b) { r = _mm256_cmp_pd(a, b, _CMP_NEQ_UQ); }
    static void cmp_eq(M &r, V a, V b) { r = _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
    static void cmp_ge(M &r, V a, V b) { r = _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
    static void blend(V &r, M m, V a, V b) { r = _mm256_blendv_pd(b, a, m); }
    static void maskz(V &r, M m, V a) { r = _mm256_and_pd(m, a); }
    static int movemask(M m) { return _mm256_movemask_pd(m); }
    static void mand(M &r, M a, M b) { r = _mm256_and_pd(a, b); }
    static void mor(M &r, M a, M b) { r = _mm256_or_pd(a, b); }
    static void mandnot(M &r, M a, M b) { r = _mm256_andnot_pd(a, b); }

    // 32-bit id compares widened to double-lane masks (sign-extending
    // the 0/-1 compare result to 64 bits; ids are < 2^31, so the
    // signed epi32 compares agree with the generic unsigned rule).
    static void
    idx_gt(M &r, const I4 &idx, std::uint32_t s)
    {
        r = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
            _mm_cmpgt_epi32(idx.v, IndexRegs<4>::set1(s))));
    }

    static void
    idx_eq(M &r, const I4 &idx, std::uint32_t s)
    {
        r = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
            _mm_cmpeq_epi32(idx.v, IndexRegs<4>::set1(s))));
    }

    static void cvtt(I4 &r, V a) { r.v = _mm256_cvttpd_epi32(a); }
    static void cvt(V &r, const I4 &idx) { r = _mm256_cvtepi32_pd(idx.v); }
    static void round(V &r, V a) { r = _mm256_round_pd(a, kRoundNearest); }

    /** Multiply by 2^k built by shifting k + bias into the exponent. */
    static void
    ldexp(V &r, V a, V k)
    {
        const __m256i e = _mm256_slli_epi64(
            _mm256_cvtepi32_epi64(_mm_add_epi32(_mm256_cvtpd_epi32(k),
                                                _mm_set1_epi32(1023))),
            52);
        r = _mm256_mul_pd(a, _mm256_castsi256_pd(e));
    }
};

/** AVX2 float: twice the lanes of `SimdRegs<double, 4>`. */
template <>
struct SimdRegs<float, 8>
{
    using V = __m256;
    using M = __m256;
    using I8 = SimdIndex<8>;

    static void set1(V &r, float s) { r = _mm256_set1_ps(s); }
    static void loadu(V &r, const float *p) { r = _mm256_loadu_ps(p); }
    static void storeu(float *p, V a) { _mm256_storeu_ps(p, a); }

    static void
    gather(V &r, const float *base, const I8 &idx)
    {
        r = _mm256_i32gather_ps(base, idx.v, 4);
    }

    static void add(V &r, V a, V b) { r = _mm256_add_ps(a, b); }
    static void sub(V &r, V a, V b) { r = _mm256_sub_ps(a, b); }
    static void mul(V &r, V a, V b) { r = _mm256_mul_ps(a, b); }
    static void div(V &r, V a, V b) { r = _mm256_div_ps(a, b); }
    static void sqrt(V &r, V a) { r = _mm256_sqrt_ps(a); }
    static void fmadd(V &r, V a, V b, V c) { r = _mm256_fmadd_ps(a, b, c); }
    static void fmsub(V &r, V a, V b, V c) { r = _mm256_fmsub_ps(a, b, c); }
    static void min(V &r, V a, V b) { r = _mm256_min_ps(a, b); }
    static void max(V &r, V a, V b) { r = _mm256_max_ps(a, b); }
    static void cmp_lt(M &r, V a, V b) { r = _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
    static void cmp_gt(M &r, V a, V b) { r = _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
    static void cmp_ne(M &r, V a, V b) { r = _mm256_cmp_ps(a, b, _CMP_NEQ_UQ); }
    static void cmp_eq(M &r, V a, V b) { r = _mm256_cmp_ps(a, b, _CMP_EQ_OQ); }
    static void cmp_ge(M &r, V a, V b) { r = _mm256_cmp_ps(a, b, _CMP_GE_OQ); }
    static void blend(V &r, M m, V a, V b) { r = _mm256_blendv_ps(b, a, m); }
    static void maskz(V &r, M m, V a) { r = _mm256_and_ps(m, a); }
    static int movemask(M m) { return _mm256_movemask_ps(m); }
    static void mand(M &r, M a, M b) { r = _mm256_and_ps(a, b); }
    static void mor(M &r, M a, M b) { r = _mm256_or_ps(a, b); }
    static void mandnot(M &r, M a, M b) { r = _mm256_andnot_ps(a, b); }

    // Index-domain compares (ids < 2^31, so signed epi32 compare is safe).
    static void
    idx_gt(M &r, const I8 &idx, std::uint32_t s)
    {
        r = _mm256_castsi256_ps(
            _mm256_cmpgt_epi32(idx.v, IndexRegs<8>::set1(s)));
    }

    static void
    idx_eq(M &r, const I8 &idx, std::uint32_t s)
    {
        r = _mm256_castsi256_ps(
            _mm256_cmpeq_epi32(idx.v, IndexRegs<8>::set1(s)));
    }

    static void cvtt(I8 &r, V a) { r.v = _mm256_cvttps_epi32(a); }
    static void cvt(V &r, const I8 &idx) { r = _mm256_cvtepi32_ps(idx.v); }
    static void round(V &r, V a) { r = _mm256_round_ps(a, kRoundNearest); }

    /** Multiply by 2^k built by shifting k + bias into the exponent. */
    static void
    ldexp(V &r, V a, V k)
    {
        const __m256i e = _mm256_slli_epi32(
            _mm256_add_epi32(_mm256_cvtps_epi32(k), _mm256_set1_epi32(127)),
            23);
        r = _mm256_mul_ps(a, _mm256_castsi256_ps(e));
    }
};

} // namespace detail

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
template <int N>
struct CompressTable
{
    alignas(4 * N) std::uint32_t perm[1 << N][N];
};

template <int N>
constexpr CompressTable<N>
makeCompressTable()
{
    CompressTable<N> t{};
    for (int mask = 0; mask < (1 << N); ++mask) {
        int n = 0;
        for (int l = 0; l < N; ++l) {
            if ((mask >> l) & 1)
                t.perm[mask][n++] = static_cast<std::uint32_t>(l);
        }
    }
    return t;
}

inline constexpr CompressTable<4> kCompress4 = makeCompressTable<4>();
inline constexpr CompressTable<8> kCompress8 = makeCompressTable<8>();

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

namespace detail {

/** 16 x u32 indices in a ZMM register (AVX-512 float width). */
template <>
struct IndexRegs<16>
{
    using I = __m512i;
    using U = std::uint32_t;

    static I set1(U s) { return _mm512_set1_epi32(static_cast<int>(s)); }
    static void loadu(I &r, const U *p) { r = _mm512_loadu_si512(p); }
    static void storeu(U *p, I a) { _mm512_storeu_si512(p, a); }

    static void
    gather32(I &r, const int *base, I idx)
    {
        r = _mm512_i32gather_epi32(idx, base, 4);
    }

    static void mullo(I &r, I a, U s) { r = _mm512_mullo_epi32(a, set1(s)); }
    static void add(I &r, I a, U s) { r = _mm512_add_epi32(a, set1(s)); }
    static void min(I &r, I a, U s) { r = _mm512_min_epu32(a, set1(s)); }
};

/** AVX-512 double: `__m512d` lanes, a real predicate register. */
template <>
struct SimdRegs<double, 8>
{
    using V = __m512d;
    using M = __mmask8;
    using I8 = SimdIndex<8>;

    static void set1(V &r, double s) { r = _mm512_set1_pd(s); }
    static void loadu(V &r, const double *p) { r = _mm512_loadu_pd(p); }
    static void storeu(double *p, V a) { _mm512_storeu_pd(p, a); }

    static void
    gather(V &r, const double *base, const I8 &idx)
    {
        r = _mm512_i32gather_pd(idx.v, base, 8);
    }

    static void add(V &r, V a, V b) { r = _mm512_add_pd(a, b); }
    static void sub(V &r, V a, V b) { r = _mm512_sub_pd(a, b); }
    static void mul(V &r, V a, V b) { r = _mm512_mul_pd(a, b); }
    static void div(V &r, V a, V b) { r = _mm512_div_pd(a, b); }
    static void sqrt(V &r, V a) { r = _mm512_sqrt_pd(a); }
    static void fmadd(V &r, V a, V b, V c) { r = _mm512_fmadd_pd(a, b, c); }
    static void fmsub(V &r, V a, V b, V c) { r = _mm512_fmsub_pd(a, b, c); }
    static void min(V &r, V a, V b) { r = _mm512_min_pd(a, b); }
    static void max(V &r, V a, V b) { r = _mm512_max_pd(a, b); }

    static void
    cmp_lt(M &r, V a, V b)
    {
        r = _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
    }

    static void
    cmp_gt(M &r, V a, V b)
    {
        r = _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
    }

    static void
    cmp_ne(M &r, V a, V b)
    {
        r = _mm512_cmp_pd_mask(a, b, _CMP_NEQ_UQ);
    }

    static void
    cmp_eq(M &r, V a, V b)
    {
        r = _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ);
    }

    static void
    cmp_ge(M &r, V a, V b)
    {
        r = _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
    }

    static void
    blend(V &r, M m, V a, V b)
    {
        r = _mm512_mask_blend_pd(m, b, a);
    }

    static void maskz(V &r, M m, V a) { r = _mm512_maskz_mov_pd(m, a); }
    static int movemask(M m) { return m; }
    static void mand(M &r, M a, M b) { r = static_cast<M>(a & b); }
    static void mor(M &r, M a, M b) { r = static_cast<M>(a | b); }
    static void mandnot(M &r, M a, M b) { r = static_cast<M>(~a & b); }

    // Index-domain compares, widened to 64-bit so the 8 id lanes line
    // up with the 8 double lanes.
    static void
    idx_gt(M &r, const I8 &idx, std::uint32_t s)
    {
        r = _mm512_cmp_epu64_mask(_mm512_cvtepu32_epi64(idx.v),
                                  _mm512_set1_epi64(s), _MM_CMPINT_NLE);
    }

    static void
    idx_eq(M &r, const I8 &idx, std::uint32_t s)
    {
        r = _mm512_cmp_epu64_mask(_mm512_cvtepu32_epi64(idx.v),
                                  _mm512_set1_epi64(s), _MM_CMPINT_EQ);
    }

    static void cvtt(I8 &r, V a) { r.v = _mm512_cvttpd_epi32(a); }
    static void cvt(V &r, const I8 &idx) { r = _mm512_cvtepi32_pd(idx.v); }
    static void round(V &r, V a) { r = _mm512_roundscale_pd(a, kRoundNearest); }
    static void ldexp(V &r, V a, V k) { r = _mm512_scalef_pd(a, k); }
};

/** AVX-512 float: twice the lanes of `SimdRegs<double, 8>`. */
template <>
struct SimdRegs<float, 16>
{
    using V = __m512;
    using M = __mmask16;
    using I16 = SimdIndex<16>;

    static void set1(V &r, float s) { r = _mm512_set1_ps(s); }
    static void loadu(V &r, const float *p) { r = _mm512_loadu_ps(p); }
    static void storeu(float *p, V a) { _mm512_storeu_ps(p, a); }

    static void
    gather(V &r, const float *base, const I16 &idx)
    {
        r = _mm512_i32gather_ps(idx.v, base, 4);
    }

    static void add(V &r, V a, V b) { r = _mm512_add_ps(a, b); }
    static void sub(V &r, V a, V b) { r = _mm512_sub_ps(a, b); }
    static void mul(V &r, V a, V b) { r = _mm512_mul_ps(a, b); }
    static void div(V &r, V a, V b) { r = _mm512_div_ps(a, b); }
    static void sqrt(V &r, V a) { r = _mm512_sqrt_ps(a); }
    static void fmadd(V &r, V a, V b, V c) { r = _mm512_fmadd_ps(a, b, c); }
    static void fmsub(V &r, V a, V b, V c) { r = _mm512_fmsub_ps(a, b, c); }
    static void min(V &r, V a, V b) { r = _mm512_min_ps(a, b); }
    static void max(V &r, V a, V b) { r = _mm512_max_ps(a, b); }

    static void
    cmp_lt(M &r, V a, V b)
    {
        r = _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ);
    }

    static void
    cmp_gt(M &r, V a, V b)
    {
        r = _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ);
    }

    static void
    cmp_ne(M &r, V a, V b)
    {
        r = _mm512_cmp_ps_mask(a, b, _CMP_NEQ_UQ);
    }

    static void
    cmp_eq(M &r, V a, V b)
    {
        r = _mm512_cmp_ps_mask(a, b, _CMP_EQ_OQ);
    }

    static void
    cmp_ge(M &r, V a, V b)
    {
        r = _mm512_cmp_ps_mask(a, b, _CMP_GE_OQ);
    }

    static void
    blend(V &r, M m, V a, V b)
    {
        r = _mm512_mask_blend_ps(m, b, a);
    }

    static void maskz(V &r, M m, V a) { r = _mm512_maskz_mov_ps(m, a); }
    static int movemask(M m) { return m; }
    static void mand(M &r, M a, M b) { r = static_cast<M>(a & b); }
    static void mor(M &r, M a, M b) { r = static_cast<M>(a | b); }
    static void mandnot(M &r, M a, M b) { r = static_cast<M>(~a & b); }

    // Index-domain compares (lane counts already match at 32 bits).
    static void
    idx_gt(M &r, const I16 &idx, std::uint32_t s)
    {
        r = _mm512_cmp_epu32_mask(idx.v, IndexRegs<16>::set1(s),
                                  _MM_CMPINT_NLE);
    }

    static void
    idx_eq(M &r, const I16 &idx, std::uint32_t s)
    {
        r = _mm512_cmp_epu32_mask(idx.v, IndexRegs<16>::set1(s),
                                  _MM_CMPINT_EQ);
    }

    static void cvtt(I16 &r, V a) { r.v = _mm512_cvttps_epi32(a); }
    static void cvt(V &r, const I16 &idx) { r = _mm512_cvtepi32_ps(idx.v); }
    static void round(V &r, V a) { r = _mm512_roundscale_ps(a, kRoundNearest); }
    static void ldexp(V &r, V a, V k) { r = _mm512_scalef_ps(a, k); }
};

} // namespace detail

/**
 * AVX-512 loadXyzw: eight contiguous 32-byte record loads, paired into
 * 512-bit registers (record l low, record l + 4 high), then an 8x4
 * in-register transpose: unpack within 128-bit lanes, permute across.
 * Only data moves, so every lane holds what a gather would return.
 */
inline void
loadXyzw(const double *pack, const std::uint32_t *idx, Simd<double, 8> &x,
         Simd<double, 8> &y, Simd<double, 8> &z, Simd<double, 8> &w)
{
    const auto pair = [pack, idx](int l) {
        return _mm512_insertf64x4(
            _mm512_castpd256_pd512(_mm256_loadu_pd(pack + 4u * idx[l])),
            _mm256_loadu_pd(pack + 4u * idx[l + 4]), 1);
    };
    const __m512d a0 = pair(0); // rec0 | rec4
    const __m512d a1 = pair(1);
    const __m512d a2 = pair(2);
    const __m512d a3 = pair(3);
    const __m512d t0 = _mm512_unpacklo_pd(a0, a1); // x0 x1 z0 z1 | x4 x5 z4 z5
    const __m512d t1 = _mm512_unpackhi_pd(a0, a1); // y0 y1 w0 w1 | y4 y5 w4 w5
    const __m512d t2 = _mm512_unpacklo_pd(a2, a3); // x2 x3 z2 z3 | x6 x7 z6 z7
    const __m512d t3 = _mm512_unpackhi_pd(a2, a3); // y2 y3 w2 w3 | y6 y7 w6 w7
    const __m512i lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    x.v = _mm512_permutex2var_pd(t0, lo, t2);
    y.v = _mm512_permutex2var_pd(t1, lo, t3);
    z.v = _mm512_permutex2var_pd(t0, hi, t2);
    w.v = _mm512_permutex2var_pd(t1, hi, t3);
}

/** AVX-512 compressStore over 16 ids: the native compress. */
inline int
compressStore(std::uint32_t *dst, const SimdIndex<16> &ids, int maskBits)
{
    const unsigned mask = static_cast<unsigned>(maskBits) & 0xFFFFu;
    _mm512_mask_compressstoreu_epi32(dst, static_cast<__mmask16>(mask),
                                     ids.v);
    return std::popcount(mask);
}

/**
 * AVX-512 float loadXyzw: sixteen contiguous 16-byte record loads, four
 * to a register (records l, l + 4, l + 8, l + 12), then a 16x4
 * transpose within 128-bit lanes — the AVX2 float transpose, four
 * lanes wide.
 */
inline void
loadXyzw(const float *pack, const std::uint32_t *idx, Simd<float, 16> &x,
         Simd<float, 16> &y, Simd<float, 16> &z, Simd<float, 16> &w)
{
    const auto rec = [pack, idx](int l) {
        return _mm_loadu_ps(pack + 4u * idx[l]);
    };
    const auto quad = [&rec](int l) {
        __m512 a = _mm512_castps128_ps512(rec(l));
        a = _mm512_insertf32x4(a, rec(l + 4), 1);
        a = _mm512_insertf32x4(a, rec(l + 8), 2);
        return _mm512_insertf32x4(a, rec(l + 12), 3);
    };
    const __m512 a0 = quad(0); // rec0 | rec4 | rec8 | rec12
    const __m512 a1 = quad(1);
    const __m512 a2 = quad(2);
    const __m512 a3 = quad(3);
    const __m512 t0 = _mm512_unpacklo_ps(a0, a1); // x0 x1 y0 y1 | ...
    const __m512 t1 = _mm512_unpackhi_ps(a0, a1); // z0 z1 w0 w1 | ...
    const __m512 t2 = _mm512_unpacklo_ps(a2, a3); // x2 x3 y2 y3 | ...
    const __m512 t3 = _mm512_unpackhi_ps(a2, a3); // z2 z3 w2 w3 | ...
    x.v = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    y.v = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    z.v = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    w.v = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
}

#endif // MDBENCH_SIMD_AVX512

#if defined(MDBENCH_SIMD_AVX2)
#pragma GCC diagnostic pop
#endif

} // namespace mdbench

#endif // MDBENCH_UTIL_SIMD_H
