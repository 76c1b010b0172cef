/**
 * @file
 * Elementary functions over `Simd<T, W>` (DESIGN.md §12-13): `exp` for
 * non-positive arguments and the Ewald `erfc` of the long-range Coulomb
 * pair kernels.
 *
 * Each function is one templated Simd expression. W = 1 is the scalar
 * path, and every width and backend evaluates the same formula; as for
 * any kernel expression, only the ISA backends' fused `fma` tells them
 * apart (the generic backend rounds the product, §12). No lane calls
 * libm.
 *
 *  - `expNonPositive(x)`, x <= 0: Cody–Waite reduction x = k ln2 + r
 *    with |r| <= ln2/2, the Taylor polynomial of e^r, and the exact
 *    scale `ldexp(e^r, k)`. Double takes degree 12 (truncation below
 *    2e-16 relative), float degree 7 (below 6e-9). Arguments below
 *    `kExpMin` return exact zeros: 2^k stays a normal number for every
 *    argument above it, and sentinel-sized arguments stay finite.
 *  - `erfcExpm2(x)`, x >= 0: Abramowitz–Stegun 7.1.26, the form LAMMPS
 *    uses, erfc(x) = t (A1 + t (A2 + t (A3 + t (A4 + t A5)))) e^{-x^2}
 *    with t = 1 / (1 + P x), absolute error <= 1.5e-7. It returns
 *    e^{-x^2} too, which the Ewald force term needs, so each pair
 *    evaluates one exp. Float tiers cast the same coefficients.
 */

#ifndef MDBENCH_UTIL_SIMD_MATH_H
#define MDBENCH_UTIL_SIMD_MATH_H

#include <array>
#include <cstddef>

#include "util/simd.h"

namespace mdbench {

namespace detail {

template <typename T>
struct ExpConsts;

template <>
struct ExpConsts<double>
{
    static constexpr double kLog2e = 1.4426950408889634;
    // Cody–Waite split of ln 2: kLn2Hi has 15 significant bits, so
    // k * kLn2Hi is exact for every k the reduction produces.
    static constexpr double kLn2Hi = 6.93145751953125e-1;
    static constexpr double kLn2Lo = 1.42860682030941723212e-6;
    static constexpr double kExpMin = -708.0; ///< 2^k >= 2^-1021
    /** Taylor coefficients 1/n!, n = 0..12. */
    static constexpr std::array<double, 13> kPoly{
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5040.0,
        1.0 / 40320.0,
        1.0 / 362880.0,
        1.0 / 3628800.0,
        1.0 / 39916800.0,
        1.0 / 479001600.0};
};

template <>
struct ExpConsts<float>
{
    static constexpr float kLog2e = 1.44269504f;
    // kLn2Hi has 9 significant bits (k * kLn2Hi exact); kLn2Lo is
    // negative, so kLn2Hi + kLn2Lo rounds to ln 2.
    static constexpr float kLn2Hi = 0.693359375f;
    static constexpr float kLn2Lo = -2.12194440e-4f;
    static constexpr float kExpMin = -87.0f; ///< 2^k >= 2^-126
    /** Taylor coefficients 1/n!, n = 0..7. */
    static constexpr std::array<float, 8> kPoly{
        1.0f, 1.0f, 1.0f / 2.0f, 1.0f / 6.0f,
        1.0f / 24.0f, 1.0f / 120.0f, 1.0f / 720.0f, 1.0f / 5040.0f};
};

// Abramowitz–Stegun 7.1.26 (LAMMPS EWALD_P and A1..A5).
inline constexpr double kErfcP = 0.3275911;
inline constexpr std::array<double, 5> kErfcPoly{
    0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429};

/** c[0] + x (c[1] + x (c[2] + ...)), innermost term first. */
template <typename T, int W, typename C, std::size_t N>
inline Simd<T, W>
horner(const Simd<T, W> &x, const std::array<C, N> &c)
{
    using D = Simd<T, W>;
    D p(static_cast<T>(c[N - 1]));
    for (std::size_t n = N - 1; n-- > 0;)
        p = D::fma(p, x, D(static_cast<T>(c[n])));
    return p;
}

} // namespace detail

/** e^x for x <= 0; exact zeros below ExpConsts<T>::kExpMin. */
template <typename T, int W>
inline Simd<T, W>
expNonPositive(const Simd<T, W> &x)
{
    using D = Simd<T, W>;
    using C = detail::ExpConsts<T>;
    const D minArg(C::kExpMin);
    const D xc = D::max(x, minArg);
    const D k = D::round(xc * D(C::kLog2e));
    const D r = D::fma(k, D(-C::kLn2Lo), D::fma(k, D(-C::kLn2Hi), xc));
    return D::maskZero(x >= minArg,
                       D::ldexp(detail::horner(r, C::kPoly), k));
}

/** erfc(x) and e^{-x^2} from one exp. */
template <typename T, int W>
struct ErfcExpm2
{
    Simd<T, W> erfc;
    Simd<T, W> expm2;
};

/** Ewald erfc(x) and e^{-x^2} for x >= 0 (A&S 7.1.26, see above). */
template <typename T, int W>
inline ErfcExpm2<T, W>
erfcExpm2(const Simd<T, W> &x)
{
    using D = Simd<T, W>;
    const D one(T(1));
    const D expm2 = expNonPositive(D(T(0)) - x * x);
    const D t =
        one / D::fma(D(static_cast<T>(detail::kErfcP)), x, one);
    return {t * detail::horner(t, detail::kErfcPoly) * expm2, expm2};
}

} // namespace mdbench

#endif // MDBENCH_UTIL_SIMD_MATH_H
