#include "md/box.h"

#include <cmath>

#include "util/error.h"

namespace mdbench {

Box::Box(const Vec3 &lo, const Vec3 &hi) : lo_(lo), hi_(hi)
{
    require(hi.x > lo.x && hi.y > lo.y && hi.z > lo.z,
            "box upper corner must exceed lower corner");
    updateLengths();
}

void
Box::updateLengths()
{
    len_ = hi_ - lo_;
    invLen_ = {1.0 / len_.x, 1.0 / len_.y, 1.0 / len_.z};
}

void
Box::setPeriodic(bool px, bool py, bool pz)
{
    periodic_ = {px, py, pz};
}

double
Box::volume() const
{
    const Vec3 len = lengths();
    return len.x * len.y * len.z;
}

void
Box::dilate(double factor)
{
    require(factor > 0.0, "box dilation factor must be positive");
    const Vec3 center = (lo_ + hi_) * 0.5;
    lo_ = center + (lo_ - center) * factor;
    hi_ = center + (hi_ - center) * factor;
    updateLengths();
}

bool
Box::contains(const Vec3 &pos) const
{
    return pos.x >= lo_.x && pos.x < hi_.x && pos.y >= lo_.y &&
           pos.y < hi_.y && pos.z >= lo_.z && pos.z < hi_.z;
}

} // namespace mdbench
