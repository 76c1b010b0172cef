/**
 * @file
 * The skeleton every SIMD pair kernel shares (DESIGN.md §12-13): one
 * tier × width dispatcher, the precision tier's energy/virial
 * accumulation rule, and the row-level Newton scatter and force flush
 * around each style's own per-pair arithmetic.
 *
 * Hot-loop rule for everything here: kernels build these helpers inside
 * the slice lambda, and the helpers hold values or raw pointers, never
 * references to closure state. The force scatters store through double
 * pointers, so anything reached through the closure would have to be
 * reloaded after every such store.
 */

#ifndef MDBENCH_FORCEFIELD_PAIR_KERNEL_H
#define MDBENCH_FORCEFIELD_PAIR_KERNEL_H

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

#include "md/neighbor.h"
#include "md/vec3.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/precision.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace mdbench {

/**
 * Run the kernel @p list was packed for: `kernel.template
 * operator()<P, W>()`, one templated body per style. padWidth 0 (SIMD
 * layer off) runs <PrecisionDouble, 1> over the plain rows at every
 * tier. Packed widths run W = padWidth with P the policy of the list's
 * recorded packTier — not the live global, so a knob flip between
 * build and compute cannot mismatch the padded geometry — under a
 * `pair`/`simd` trace scope. The generic backend compiles every width
 * on every build, so forced widths run on portable and sanitizer
 * builds too.
 */
template <typename KernelFn>
void
dispatchPairKernel(const NeighborList &list, KernelFn &&kernel)
{
    if (list.padWidth == 0)
        return kernel.template operator()<PrecisionDouble, 1>();
    TraceScope simdTrace("pair", "simd");
    const auto width = [&]<typename P>() {
        switch (list.padWidth) {
          case 1: return kernel.template operator()<P, 1>();
          case 2: return kernel.template operator()<P, 2>();
          case 4: return kernel.template operator()<P, 4>();
          case 8: return kernel.template operator()<P, 8>();
          case 16: return kernel.template operator()<P, 16>();
          default:
            panic("no pair kernel for packed width " +
                  std::to_string(list.padWidth));
        }
    };
    switch (list.packTier) {
      case Precision::Mixed:
        return width.template operator()<PrecisionMixed>();
      case Precision::Single:
        return width.template operator()<PrecisionSingle>();
      default:
        return width.template operator()<PrecisionDouble>();
    }
}

/**
 * Energy/virial accumulation of precision tier P for N quantities.
 * Kernels add each group's masked terms to `sums[q]` and call endRow()
 * after every neighbor row; total(q) is the slice's sum.
 *
 * - Double tier: slice-long lane stripes, summed once per slice. At
 *   W = 1 (and so at width 0) this is one plain running sum.
 * - Float tiers: per-row stripes, flushed at each row end into P::acc
 *   scalars (double for mixed, float for single), which bounds float
 *   accumulation error at the row length.
 */
template <typename P, int W, int N>
class TierSums
{
    static_assert(N == 2 || N == 3);
    using real = typename P::real;
    using acc = typename P::acc;
    using D = Simd<real, W>;
    static constexpr bool kSliceStripes = std::is_same_v<real, double>;

  public:
    TierSums() { stripes_.fill(D(real(0))); }

    D &operator[](int q) { return stripes_[q]; }

    void
    endRow()
    {
        if constexpr (!kSliceStripes) {
            real s[3] = {};
            if constexpr (N == 2)
                sumPair(stripes_[0], stripes_[1], s[0], s[1]);
            else
                sumXyz(stripes_[0], stripes_[1], stripes_[2], s[0], s[1],
                       s[2]);
            for (int q = 0; q < N; ++q) {
                rows_[q] += static_cast<acc>(s[q]);
                stripes_[q] = D(real(0));
            }
        }
    }

    double
    total(int q) const
    {
        if constexpr (kSliceStripes)
            return stripes_[q].sum();
        else
            return static_cast<double>(rows_[q]);
    }

  private:
    std::array<D, N> stripes_;
    std::array<acc, N> rows_{};
};

/**
 * Call fn(l) for every set bit l of @p bits in ascending lane order,
 * which is the row's ascending neighbor order, so the order of j-side
 * updates does not depend on W.
 */
template <typename Fn>
inline void
forEachLane(int bits, Fn &&fn)
{
    for (int rest = bits; rest; rest &= rest - 1)
        fn(std::countr_zero(static_cast<unsigned>(rest)));
}

/**
 * Newton scatter of the W-wide group at packed slot @p k: subtract lane
 * l's pair force from fw.at(pk[k + l]) for every lane of @p active,
 * ascending. The pair terms are spilled once; masked lanes (including
 * the sentinel) get no store at all, so a rejected pair touches no
 * force. Float-tier terms widen at the store. The group is passed as
 * base + slot, not as one pointer: the kernel keeps both live anyway,
 * and a third register spills the group counter out of the hot loop.
 */
template <typename T, int W>
inline void
newtonScatter(ReduceScratch<Vec3>::Accumulator &fw, const std::uint32_t *pk,
              std::uint32_t k, int active, const Simd<T, W> &fx,
              const Simd<T, W> &fy, const Simd<T, W> &fz)
{
    alignas(64) T sx[W], sy[W], sz[W];
    fx.storeu(sx);
    fy.storeu(sy);
    fz.storeu(sz);
    forEachLane(active, [&](int l) {
        Vec3 &fj = fw.at(pk[k + l]);
        fj.x -= sx[l];
        fj.y -= sy[l];
        fj.z -= sz[l];
    });
}

/**
 * One-component form for symmetric per-atom sums (EAM pass-1 host
 * densities): adds lane l's value to sum.at(pk[k + l]).
 */
template <typename T, int W>
inline void
newtonScatter(ReduceScratch<double>::Accumulator &sum,
              const std::uint32_t *pk, std::uint32_t k, int active,
              const Simd<T, W> &v)
{
    alignas(64) T sv[W];
    v.storeu(sv);
    forEachLane(active, [&](int l) { sum.at(pk[k + l]) += sv[l]; });
}

/**
 * Add a row's force stripes to @p fi. Per-atom forces are always
 * double, so on float tiers this is the once-per-atom widening.
 */
template <typename T, int W>
inline void
flushRowForce(Vec3 &fi, const Simd<T, W> &fx, const Simd<T, W> &fy,
              const Simd<T, W> &fz)
{
    T sx, sy, sz;
    sumXyz(fx, fy, fz, sx, sy, sz);
    fi.x += sx;
    fi.y += sy;
    fi.z += sz;
}

} // namespace mdbench

#endif // MDBENCH_FORCEFIELD_PAIR_KERNEL_H
