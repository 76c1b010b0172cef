/**
 * @file
 * Orthogonal simulation box with per-axis periodic boundary conditions.
 */

#ifndef MDBENCH_MD_BOX_H
#define MDBENCH_MD_BOX_H

#include <array>
#include <cmath>

#include "md/vec3.h"

namespace mdbench {

/**
 * An axis-aligned simulation box.
 *
 * Each axis is independently periodic or fixed (fixed axes are used by the
 * Chute experiment, which has a wall at the bottom of the z axis).
 */
class Box
{
  public:
    Box() = default;

    /** Construct from lower and upper corners, fully periodic. */
    Box(const Vec3 &lo, const Vec3 &hi);

    /** Set periodicity per axis. */
    void setPeriodic(bool px, bool py, bool pz);

    const Vec3 &lo() const { return lo_; }
    const Vec3 &hi() const { return hi_; }

    /** Edge lengths. */
    Vec3 lengths() const { return len_; }

    /** Box volume. */
    double volume() const;

    /** Whether axis @p axis (0..2) is periodic. */
    bool periodic(int axis) const { return periodic_[axis]; }

    /**
     * Wrap @p pos into the primary cell along periodic axes:
     * x - L * floor((x - lo) / L). Non-periodic axes are left untouched.
     *
     * Coordinates already inside the cell, the common case, skip the
     * divide: when q = (x - lo) * (1/L) (cached reciprocal) lies in
     * (0, 0.99) the result is x itself. That is bitwise the divide form:
     * q is within an ulp of (x - lo) / L, so that quotient lies in
     * (0, 1), its floor is +0, and x - L * (+0) is x (also for x = ±0).
     * Everything else takes the divide form: q >= 0.99, NaN, infinity,
     * and x - lo <= 0, where x = -0 with lo = +0 must come out as +0.
     */
    Vec3
    wrap(const Vec3 &pos) const
    {
        Vec3 out = pos;
        if (periodic_[0])
            out.x = wrapAxis(out.x, lo_.x, len_.x, invLen_.x);
        if (periodic_[1])
            out.y = wrapAxis(out.y, lo_.y, len_.y, invLen_.y);
        if (periodic_[2])
            out.z = wrapAxis(out.z, lo_.z, len_.z, invLen_.z);
        return out;
    }

    /**
     * Minimum-image displacement: @p delta shifted along each periodic
     * axis by a whole number of edges, d - L * round(d / L).
     * Assumes each box edge exceeds twice the interaction range.
     *
     * Displacements inside half an edge, the common case, skip the
     * divide: when q = d * (1/L) (cached reciprocal) has |q| < 0.49 the
     * result is d - L * round(q), with round(q) written as the signed
     * zero copysign(0, q) it equals there (no libm call). That is
     * bitwise the divide form: q is within an ulp of d / L, so both
     * quotients lie below 0.5 in magnitude, carry the sign of d, and
     * round to the same signed zero. Anything else (including NaN and
     * infinity) takes the divide form.
     */
    Vec3
    minimumImage(const Vec3 &delta) const
    {
        Vec3 out = delta;
        if (periodic_[0])
            out.x = imageAxis(out.x, len_.x, invLen_.x);
        if (periodic_[1])
            out.y = imageAxis(out.y, len_.y, invLen_.y);
        if (periodic_[2])
            out.z = imageAxis(out.z, len_.z, invLen_.z);
        return out;
    }

    /** Rescale the box isotropically about its center by @p factor. */
    void dilate(double factor);

    /** True if @p pos lies inside the box (half-open on the high side). */
    bool contains(const Vec3 &pos) const;

  private:
    static double
    wrapAxis(double x, double lo, double len, double invLen)
    {
        const double q = (x - lo) * invLen;
        if (q > 0.0 && q < 0.99)
            return x;
        return x - len * std::floor((x - lo) / len);
    }

    static double
    imageAxis(double d, double len, double invLen)
    {
        const double q = d * invLen;
        if (std::fabs(q) < 0.49)
            return d - len * std::copysign(0.0, q);
        return d - len * std::round(d / len);
    }

    /** Refresh the cached edge lengths and their reciprocals. */
    void updateLengths();

    Vec3 lo_{0, 0, 0};
    Vec3 hi_{1, 1, 1};
    // Derived from lo_/hi_ by updateLengths(); the constructor and
    // dilate() are the only mutators of the corners.
    Vec3 len_{1, 1, 1};
    Vec3 invLen_{1, 1, 1};
    std::array<bool, 3> periodic_{true, true, true};
};

} // namespace mdbench

#endif // MDBENCH_MD_BOX_H
