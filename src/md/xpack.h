/**
 * @file
 * Padded position staging for the SIMD pair kernels (DESIGN.md §12-13).
 *
 * Kernels restage AtomStore positions each compute as 4-element
 * [x, y, z, w] records — one per atom slot including the neighbor
 * packing's pad slot — so the inner loops use `loadXyzw` transpose
 * loads instead of three or four hardware gathers. The w slot carries
 * the kernel's per-atom payload (charge for lj/charmm/coul/long,
 * F'(rho) for EAM's second pass, zero for lj/cut).
 *
 * The element type is the precision policy's `real`: the double tier
 * stages 32-byte double records, the mixed/single tiers stage 16-byte
 * float records so float-lane kernels consume float coordinates
 * without converting per pair — conversion happens exactly once per
 * compute, here.
 */

#ifndef MDBENCH_MD_XPACK_H
#define MDBENCH_MD_XPACK_H

#include <cstddef>
#include <vector>

#include "md/vec3.h"

namespace mdbench {

template <typename T>
class XPack
{
    static_assert(sizeof(Vec3) == 3 * sizeof(double));

  public:
    /**
     * Restage [x, y, z, payload] records for @p n atom slots (owned +
     * ghost + pad). @p payload may be null (w = 0). Returns the
     * 64-byte-aligned record base, so every record sits whole inside a
     * cache line (split-line record loads cost ~1.4x).
     */
    const T *
    stage(const Vec3 *x, const double *payload, std::size_t n)
    {
        reserve(n);
        T *out = aligned_;
        const double *xd = reinterpret_cast<const double *>(x);
        for (std::size_t a = 0; a < n; ++a) {
            out[4 * a + 0] = static_cast<T>(xd[3 * a + 0]);
            out[4 * a + 1] = static_cast<T>(xd[3 * a + 1]);
            out[4 * a + 2] = static_cast<T>(xd[3 * a + 2]);
            out[4 * a + 3] = payload ? static_cast<T>(payload[a]) : T(0);
        }
        return out;
    }

    /**
     * Rewrite only the w payload slots of an already-staged buffer
     * (EAM refills F'(rho) between its two radial passes). Returns the
     * record base.
     */
    const T *
    setPayload(const double *payload, std::size_t n)
    {
        T *out = aligned_;
        for (std::size_t a = 0; a < n; ++a)
            out[4 * a + 3] = static_cast<T>(payload[a]);
        return out;
    }

    /**
     * Bare aligned storage for @p n records, to be filled by the
     * caller (the neighbor build stages bin-ordered candidate records
     * in parallel slices). Contents are unspecified until written.
     */
    T *
    records(std::size_t n)
    {
        reserve(n);
        return aligned_;
    }

  private:
    void
    reserve(std::size_t n)
    {
        buf_.resize(4 * n + 64 / sizeof(T));
        aligned_ = reinterpret_cast<T *>(
            (reinterpret_cast<std::uintptr_t>(buf_.data()) + 63) &
            ~std::uintptr_t{63});
    }

    std::vector<T> buf_;
    T *aligned_ = nullptr;
};

} // namespace mdbench

#endif // MDBENCH_MD_XPACK_H
