/**
 * @file
 * Natural cubic spline over a uniform grid, used by the tabulated EAM
 * potential (LAMMPS funcfl-style interpolation).
 */

#ifndef MDBENCH_FORCEFIELD_SPLINE_H
#define MDBENCH_FORCEFIELD_SPLINE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/simd.h"

namespace mdbench {

/**
 * Interpolates a function sampled at x_i = x0 + i * dx, providing value
 * and first derivative. Evaluation clamps to the tabulated range.
 *
 * The constructor solves the natural-spline system once and stores each
 * interval's cubic as power-basis coefficients c0..c3 in the local
 * coordinate t = (x - x_i) / dx in [0, 1], together with 1/dx. An
 * evaluation is then one scale, one truncation, four table lookups and
 * two Horner chains — no divides (LAMMPS pair_eam's per-knot
 * coefficient tables, with the interval scale folded into invDx).
 */
class CubicSpline
{
  public:
    CubicSpline() = default;

    /** Build from samples @p y at spacing @p dx starting at @p x0. */
    CubicSpline(double x0, double dx, std::vector<double> y);

    /** Interpolated value at @p x. */
    double
    value(double x) const
    {
        double v;
        double d;
        eval(x, v, d);
        return v;
    }

    /** Interpolated first derivative at @p x. */
    double
    derivative(double x) const
    {
        double v;
        double d;
        eval(x, v, d);
        return d;
    }

    /**
     * Value and derivative in one lookup. evalSplineSimd below is the
     * same expression sequence, lane by lane.
     */
    void
    eval(double x, double &value, double &derivative) const
    {
        double s = (x - x0_) * invDx_;
        s = std::min(std::max(s, 0.0), static_cast<double>(n_ - 1));
        const std::size_t i = std::min(static_cast<std::size_t>(s), n_ - 2);
        const double t = s - static_cast<double>(i);
        const double c1 = c1_[i];
        const double c2 = c2_[i];
        const double c3 = c3_[i];
        value = c0_[i] + t * (c1 + t * (c2 + t * c3));
        derivative = (c1 + t * (2.0 * c2 + t * (3.0 * c3))) * invDx_;
    }

    /** Upper end of the tabulated range. */
    double
    xMax() const
    {
        return x0_ + dx_ * static_cast<double>(n_ == 0 ? 0 : n_ - 1);
    }

    /**
     * Raw coefficient view for vectorized evaluation (evalSplineSimd
     * gathers the four coefficients of each lane's interval). Pointers
     * are borrowed: valid until the spline is modified or destroyed.
     * The element type follows the precision policy's `real`
     * (util/precision.h): double views borrow the coefficient arrays
     * directly, float views borrow the cached once-cast mirrors.
     */
    template <typename T>
    struct ViewT
    {
        const T *c0 = nullptr; ///< per-interval constant term
        const T *c1 = nullptr; ///< per-interval linear term
        const T *c2 = nullptr; ///< per-interval quadratic term
        const T *c3 = nullptr; ///< per-interval cubic term
        T x0 = T(0);           ///< first knot abscissa
        T invDx = T(1);        ///< reciprocal knot spacing
        std::size_t n = 0;     ///< knot count (intervals + 1)
    };

    using View = ViewT<double>;

    View
    view() const
    {
        return {c0_.data(), c1_.data(), c2_.data(), c3_.data(),
                x0_, invDx_, n_};
    }

    /**
     * Float-coefficient view for the float-tier SIMD kernels. Builds
     * the float mirrors of the coefficient arrays on first call (each
     * coefficient cast exactly once) and caches them for the spline's
     * lifetime — the coefficients never change after construction.
     */
    ViewT<float>
    viewF()
    {
        if (c0F_.size() != c0_.size()) {
            c0F_.assign(c0_.begin(), c0_.end());
            c1F_.assign(c1_.begin(), c1_.end());
            c2F_.assign(c2_.begin(), c2_.end());
            c3F_.assign(c3_.begin(), c3_.end());
        }
        return {c0F_.data(), c1F_.data(), c2F_.data(), c3F_.data(),
                static_cast<float>(x0_), static_cast<float>(invDx_), n_};
    }

  private:
    double x0_ = 0.0;
    double dx_ = 1.0;
    double invDx_ = 1.0;
    std::size_t n_ = 0; ///< knot count
    // Power-basis coefficients of interval i, one entry per interval.
    std::vector<double> c0_;
    std::vector<double> c1_;
    std::vector<double> c2_;
    std::vector<double> c3_;

    // Cached float mirrors of c0_..c3_ (viewF).
    std::vector<float> c0F_;
    std::vector<float> c1F_;
    std::vector<float> c2F_;
    std::vector<float> c3F_;
};

/**
 * W-wide CubicSpline::eval: the same clamp / locate / Horner
 * expressions over gathered coefficients, so in the double
 * instantiation each lane is bitwise-identical to a scalar eval at that
 * abscissa whenever the compiler does not contract a*b+c (float
 * instantiations evaluate the same expressions over the once-cast
 * coefficient mirrors). Out-of-range lanes (the sentinel's huge radius)
 * clamp to the last interval and produce finite garbage that callers
 * mask off.
 */
template <typename T, int W>
inline void
evalSplineSimd(const CubicSpline::ViewT<T> &sp, const Simd<T, W> &x,
               Simd<T, W> &value, Simd<T, W> &derivative)
{
    using D = Simd<T, W>;
    using I = SimdIndex<W>;
    const D invDx(sp.invDx);
    D s = (x - D(sp.x0)) * invDx;
    s = D::min(D::max(s, D(T(0))), D(static_cast<T>(sp.n - 1)));
    const I idx =
        I::min(D::truncToIndex(s), static_cast<std::uint32_t>(sp.n - 2));
    const D t = s - D::fromIndex(idx);
    const D c1 = D::gather(sp.c1, idx);
    const D c2 = D::gather(sp.c2, idx);
    const D c3 = D::gather(sp.c3, idx);
    value = D::gather(sp.c0, idx) + t * (c1 + t * (c2 + t * c3));
    derivative = (c1 + t * (D(T(2)) * c2 + t * (D(T(3)) * c3))) * invDx;
}

} // namespace mdbench

#endif // MDBENCH_FORCEFIELD_SPLINE_H
