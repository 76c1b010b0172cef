#include "forcefield/spline.h"

#include <utility>

#include "util/error.h"

namespace mdbench {

CubicSpline::CubicSpline(double x0, double dx, std::vector<double> y)
    : x0_(x0), dx_(dx), invDx_(1.0 / dx), n_(y.size())
{
    require(dx > 0.0, "spline grid spacing must be positive");
    require(n_ >= 3, "spline needs at least three samples");

    // Solve the tridiagonal natural-spline system for second derivatives.
    const std::size_t n = n_;
    std::vector<double> m(n, 0.0);
    std::vector<double> diag(n, 0.0);
    std::vector<double> rhs(n, 0.0);
    diag[0] = 1.0;
    for (std::size_t i = 1; i + 1 < n; ++i) {
        diag[i] = 4.0;
        rhs[i] = 6.0 * (y[i + 1] - 2.0 * y[i] + y[i - 1]) / (dx * dx);
    }
    diag[n - 1] = 1.0;

    // Thomas algorithm (sub/super diagonals are 1 except at the ends).
    for (std::size_t i = 2; i + 1 < n; ++i) {
        const double w = 1.0 / diag[i - 1];
        diag[i] -= w;
        rhs[i] -= w * rhs[i - 1];
    }
    for (std::size_t i = n - 1; i-- > 1;)
        m[i] = (rhs[i] - (i + 2 < n ? m[i + 1] : 0.0)) / diag[i];

    // Hermite form of interval i in t = (x - x_i) / dx, a = 1 - t:
    //   a y_i + t y_{i+1} + ((a^3 - a) m_i + (t^3 - t) m_{i+1}) dx^2/6,
    // expanded into powers of t.
    const double h2o6 = dx * dx / 6.0;
    c1_.resize(n - 1);
    c2_.resize(n - 1);
    c3_.resize(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        c1_[i] = (y[i + 1] - y[i]) - h2o6 * (2.0 * m[i] + m[i + 1]);
        c2_[i] = 3.0 * h2o6 * m[i];
        c3_[i] = h2o6 * (m[i + 1] - m[i]);
    }
    c0_ = std::move(y);
    c0_.pop_back();
}

} // namespace mdbench
